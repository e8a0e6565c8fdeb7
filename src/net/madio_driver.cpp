#include "net/madio_driver.hpp"

#include <utility>

namespace padico::net {

namespace wire = vlink::wire;

MadIODriver::MadIODriver(MadIO& io, std::string name)
    : FrameDriver(io.madeleine().host(), std::move(name)), io_(&io) {
  io_->set_handler(MadIO::kVLinkTag,
                   [this](core::NodeId src, mad::UnpackHandle& h) {
                     handle_frame(src, h.remaining_view());
                   });
}

bool MadIODriver::reaches(core::NodeId node) const {
  return io_->reaches(node);
}

void MadIODriver::emit(core::NodeId dst, const wire::Header& h,
                       core::ByteView payload, core::SimTime* /*pace*/) {
  mad::PackHandle handle = io_->begin(MadIO::kVLinkTag, dst);
  handle.pack(wire::encode(h));
  if (!payload.empty()) {
    // Borrowed until end_packing flushes, which happens before emit
    // returns — the single payload copy is the one onto the wire.
    handle.pack(payload, mad::SendMode::later);
  }
  io_->end(std::move(handle));
}

}  // namespace padico::net
