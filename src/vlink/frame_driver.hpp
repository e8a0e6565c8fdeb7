// FrameDriver: the transport-agnostic half of a connection-oriented
// vlink driver.
//
// Every driver of the stack frames its traffic the same way — a
// wire::Header (connect / accept / refuse / data) followed by stream
// payload — and keeps the same books: listeners by port and one
// connection slab.  FrameDriver owns all of that; a concrete driver
// only supplies `emit()` (push one frame towards a peer) and
// `reaches()`.  NetDriver emits straight onto a simulated network;
// MadIODriver emits through the MadIO arbitration stack.
//
// Connection slab.  Each connection end — in-flight connect or live
// link — holds one Slot of a per-driver vector, recycled through a
// freelist.  A slot is named by a 32-bit handle, its index in the low
// kSlotBits and a generation (bumped every time the slot is freed)
// above.  The originator puts its handle in the low 32 bits of the
// conn id, under the origin node in bits 40 and up, so the id stays
// unique among live connections; the acceptor allocates its own slot
// and returns its handle in the accept frame's `peer` field.  Every
// later data frame carries the receiver's handle in `peer`, so demux
// is an array index plus three checks: the generation, the stored
// conn id and the slot's state.  A frame that fails any of them —
// aimed at a closed link whose slot was since reused, a duplicate
// accept, an accept or refuse for another node's conn id — is
// dropped.
//
// Every connect runs the transport's reaches() precheck, and every
// received frame demuxes afresh (listeners by port for connects, the
// slab for the rest), so there is no cached reachability or demux
// state that churn could leave stale.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/host.hpp"
#include "vlink/driver.hpp"
#include "vlink/link.hpp"
#include "vlink/wire.hpp"

namespace padico::vlink {

class FrameDriver : public Driver {
 public:
  ~FrameDriver() override;

  void listen(core::Port port, AcceptFn on_accept) override;
  void unlisten(core::Port port) override;
  bool listening(core::Port port) const override {
    return listeners_.count(port) != 0;
  }
  void connect(const RemoteAddr& remote, ConnectFn on_connect) override;

  /// Connection ends currently holding a slot (in-flight connects plus
  /// live links).
  std::size_t open_connections() const noexcept {
    return slots_.size() - free_count_;
  }
  /// Slots ever allocated: the slab's high-water mark of concurrently
  /// open connection ends.
  std::size_t slab_size() const noexcept { return slots_.size(); }

 protected:
  FrameDriver(core::Host& host, std::string name);

  core::Host& host() const noexcept { return *host_; }

  /// Transport hook: deliver one encoded frame to `dst`.  `pace` is
  /// the sending connection end's pacing horizon (its slot's
  /// busy_until), null for a refuse, which belongs to no connection.
  /// The pointer dies with the next slab allocation: use it before
  /// anything can re-enter the driver.
  virtual void emit(core::NodeId dst, const wire::Header& h,
                    core::ByteView payload, core::SimTime* pace) = 0;

  /// Entry point for the transport: parse and act on one received
  /// frame.  Malformed frames are counted and dropped.
  void handle_frame(core::NodeId src, core::ByteView frame);

  std::uint64_t malformed_frames() const noexcept { return malformed_; }

 private:
  class FrameLink;
  friend class FrameLink;

  static constexpr unsigned kSlotBits = 20;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint32_t kNoSlot = ~0u;

  // One connection end.  Free: no link, no pending connect, on the
  // freelist through `next_free`.
  struct Slot {
    FrameLink* link = nullptr;
    ConnectFn pending;            // originator, until accept / refuse
    std::uint64_t conn_id = 0;    // the id every frame must carry
    core::SimTime busy_until = 0; // per-stream pacing horizon
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoSlot;
  };

  static std::uint32_t handle_of(std::uint32_t slot, std::uint32_t gen) {
    return (gen << kSlotBits) | slot;
  }
  /// Slot index `h` names, or kNoSlot unless its generation is current
  /// and the slot is bound to `conn_id`.  Never returns a reference:
  /// a callback can grow the slab.
  std::uint32_t find(std::uint32_t h, std::uint64_t conn_id) const;
  /// The originator slot an accept / refuse for `conn_id` answers:
  /// our own origin bits, a current handle, still connecting.
  std::uint32_t find_connecting(std::uint64_t conn_id) const;
  /// A free slot (grows the slab when none is), pacing reset; the
  /// caller binds its conn id.
  std::uint32_t alloc();
  /// Unbind `slot`, bump its generation, push it on the freelist.
  void release(std::uint32_t slot);

  core::Host* host_;
  // Listeners stay a hash map (probed once per connect); nothing
  // event-ordering-dependent ever iterates it.
  std::unordered_map<core::Port, AcceptFn> listeners_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t free_count_ = 0;
  std::uint64_t malformed_ = 0;
  core::Port next_ephemeral_ = 49152;
  // obs instrumentation: node-wide vlink traffic totals (a Link keeps
  // no counters of its own).
  obs::Counter* obs_tx_frames_;
  obs::Counter* obs_tx_bytes_;
  obs::Counter* obs_rx_frames_;
  obs::Counter* obs_rx_bytes_;
};

}  // namespace padico::vlink
