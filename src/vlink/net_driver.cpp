#include "vlink/net_driver.hpp"

#include <algorithm>
#include <utility>

namespace padico::vlink {

NetDriver::NetDriver(core::Host& host, simnet::Network& net, std::string name)
    : FrameDriver(host, std::move(name)), net_(&net) {
  net_->set_receiver(host.id(), [this](core::NodeId src, core::Bytes msg) {
    on_message(src, std::move(msg));
  });
}

NetDriver::~NetDriver() { net_->set_receiver(host().id(), nullptr); }

bool NetDriver::reaches(core::NodeId node) const {
  return node != host().id() && net_->attached(node);
}

core::Duration NetDriver::stream_time(std::size_t bytes) const {
  const std::uint64_t wire =
      bytes + net_->frames_for(bytes) * net_->model().frame_overhead;
  const std::uint64_t bps =
      std::max<std::uint64_t>(net_->model().per_stream_bytes_per_second, 1);
  return (wire * 1'000'000'000ull + bps - 1) / bps;
}

void NetDriver::emit(core::NodeId dst, const wire::Header& h,
                     core::ByteView payload, core::SimTime* pace) {
  // Frames come out of the engine's recycled-buffer pool; the
  // receiving side's on_message() releases them after handling, so
  // steady-state frame traffic allocates nothing.
  core::Bytes frame =
      wire::encode(h, payload, host().engine().bytes_pool());
  if (net_->model().per_stream_bytes_per_second == 0 || pace == nullptr) {
    net_->send(host().id(), dst, std::move(frame));
    return;
  }
  // Window-limited stream: this connection's frames queue behind each
  // other at the per-stream rate before touching the shared NIC.  Per
  // connection the release instants are monotone and same-instant
  // events run FIFO, so frame order within a stream is preserved.
  core::Engine& engine = host().engine();
  const core::SimTime start = std::max(engine.now(), *pace);
  *pace = start + stream_time(frame.size());
  if (start == engine.now()) {
    net_->send(host().id(), dst, std::move(frame));
    return;
  }
  // Deliberately NOT capturing `this`: the driver may die before the
  // engine fires a paced frame (links outlive drivers by contract),
  // while the network — owned by the fabric, declared above every
  // driver — outlives any engine run a test can still perform.
  engine.schedule_at(start, [net = net_, src = host().id(), dst,
                             f = std::move(frame)]() mutable {
    net->send(src, dst, std::move(f));
  });
}

void NetDriver::on_message(core::NodeId src, core::Bytes msg) {
  // The frame buffer goes back to the pool that built it (emit());
  // handle_frame fully consumes the view — links and adapters copy
  // payloads into their own buffers.  The pool lives on the engine,
  // which outlives any callback the frame can trigger.
  core::BytesPool& pool = host().engine().bytes_pool();
  if (!dispatch_) {
    handle_frame(src, core::view_of(msg));
    pool.release(std::move(msg));
    return;
  }
  dispatch_([this, src, &pool, m = std::move(msg)]() mutable {
    handle_frame(src, core::view_of(m));
    pool.release(std::move(m));
  });
}

}  // namespace padico::vlink
