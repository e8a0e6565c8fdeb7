// MadIODriver: the vlink access method ("madio") carried over the
// MadIO/arbitration stack.
//
// Connection management and stream framing are inherited from
// FrameDriver; each frame travels as the payload of a MadIO message on
// the reserved kVLinkTag.  The full SAN path of a data byte is thus
//
//   Link -> MadIODriver frame (24 B) -> MadIO header (24 B, combined or
//   detached) -> Madeleine message (8 B) -> SanDriver frame (8 B) ->
//   simulated Myrinet
//
// and incoming frames arrive already arbitrated (MadIO dispatches tag
// handlers through the node's Arbitration).
//
// Units / ownership / determinism: adds no virtual time beyond the
// layers it stacks on.  Borrows its MadIO (owned by the Grid's SAN
// stack) and installs its handler on the reserved kVLinkTag; the VLink
// owns the driver itself.  Inherits FrameDriver's listener table and
// connection slab; it paces nothing, so emit() ignores the slot's
// horizon.
#pragma once

#include "net/madio.hpp"
#include "vlink/frame_driver.hpp"

namespace padico::net {

class MadIODriver final : public vlink::FrameDriver {
 public:
  MadIODriver(MadIO& io, std::string name);

  bool reaches(core::NodeId node) const override;

  MadIO& io() const noexcept { return *io_; }

 protected:
  void emit(core::NodeId dst, const vlink::wire::Header& h,
            core::ByteView payload, core::SimTime* pace) override;

 private:
  MadIO* io_;
};

}  // namespace padico::net
