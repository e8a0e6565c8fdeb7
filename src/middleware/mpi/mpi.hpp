// padico::mpi — the MPI personality: an MPICH-flavoured communicator
// over one Madeleine circuit endpoint, or over a byte stream.
//
// The paper runs MPICH-1.2.5 (ch_mad device) unmodified over
// PadicoTM; `Comm` is that device's shape — rank-addressed tagged
// messages over the circuit the communicator was built on, with
// MPICH's per-message CPU cost charged to virtual time (the gap
// between Circuit's 8.4 us and MPICH's 12.06 us in Table 1).  Across
// a WAN there is no common SAN, so the device falls back to whatever
// stream the chooser picked (plain sysio or parallel streams): the
// second constructor runs the same communicator over a connected
// vlink Link (the virtual socket) — the §5 configuration, where MPI
// gets the same ~9 MB/s as every other middleware on one TCP stream.
//
// Message wire shape: a 16-byte envelope [u32 tag][u32 payload len]
// [u64 seq] then the payload.  The length frames the message on the
// stream fallback (a circuit keeps message boundaries, so its reader
// ignores it); seq is a per-(peer rank, tag) contiguous number
// (net::SeqBook, the same book MadIO and the circuit layer keep) so
// `seq_gaps()` detects miswiring end to end.  Matching is (source rank, tag), FIFO per pair —
// unexpected messages queue, like a real MPI unexpected-message queue.
//
// Ownership / determinism: a Comm borrows its circuit endpoint (the
// caller owns the CircuitSet; destroy the Comm first), or owns its
// stream link outright.  isend copies
// the payload at call time (MPI buffer-reuse semantics) and the send
// is scheduled at the cost clock's completion instant, so traces stay
// bit-identical across runs.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <utility>

#include "core/bytes.hpp"
#include "core/task.hpp"
#include "madeleine/circuit.hpp"
#include "middleware/personality.hpp"
#include "net/seqbook.hpp"
#include "vlink/link.hpp"

namespace padico::mpi {

/// MPICH-1.2.5 over the ch_mad device: a few microseconds of request
/// bookkeeping per message on each side, effectively zero-copy bulk.
middleware::CostModel mpich_costs();

class Comm final : public middleware::Personality {
 public:
  /// A communicator on `endpoint` (one member's view; build one Comm
  /// per CircuitSet member for a full communicator).  The endpoint's
  /// receive handler is taken over until destruction.
  explicit Comm(circuit::Circuit& endpoint,
                middleware::CostModel costs = mpich_costs());

  /// A two-rank communicator over a connected stream (the WAN
  /// fallback): this end is `rank` (0 or 1), the peer is the other.
  Comm(std::unique_ptr<vlink::Link> stream, int rank, core::Engine& engine,
       middleware::CostModel costs = mpich_costs());

  ~Comm();

  int rank() const noexcept { return rank_; }
  int size() const noexcept { return size_; }

  /// The circuit endpoint, or nullptr for a stream-backed Comm.
  circuit::Circuit* endpoint() const noexcept { return ep_; }

  /// Non-blocking send: the payload is copied (the caller may reuse
  /// the buffer immediately) and leaves once the MPICH send path's CPU
  /// cost has been charged.
  void isend(int dst_rank, int tag, core::ByteView data);

  /// Blocking-send shape: completes when the message has left this
  /// rank (buffer handed to the wire), not when it was received.
  core::Completion<void> send(int dst_rank, int tag, core::ByteView data);

  /// Await the next message from `src_rank` under `tag` (FIFO per
  /// (source, tag) pair).
  core::Completion<core::Bytes> recv(int src_rank, int tag);

  /// The classic combined exchange: isend to `dst_rank`, then await
  /// the matching receive.
  core::Completion<core::Bytes> sendrecv(int dst_rank, int send_tag,
                                         core::ByteView data, int src_rank,
                                         int recv_tag);

  std::uint64_t messages_sent() const noexcept { return sent_; }
  std::uint64_t messages_received() const noexcept { return received_; }

  /// Envelope sequence discontinuities (always 0 on a healthy SAN).
  std::uint64_t seq_gaps() const noexcept { return seq_.gaps(); }

  /// Frames too short to carry an MPI envelope (a miswired sender on
  /// this circuit); always 0 on a healthy stack, like seq_gaps().
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  static constexpr std::size_t kEnvelope = 16;

  /// isend body; returns the instant the send path's CPU completes.
  core::SimTime post_send(int dst_rank, int tag, core::ByteView data);
  void on_message(int src_rank, mad::UnpackHandle& handle);
  void deliver(int src_rank, int tag, std::uint64_t seq,
               core::Bytes payload);
  core::Task stream_reader();

  circuit::Circuit* ep_ = nullptr;
  std::unique_ptr<vlink::Link> stream_;
  int rank_;
  int size_;
  core::Task reader_;
  net::SeqBook<std::pair<int, int>> seq_;  // keyed (peer rank, tag)
  std::map<std::pair<int, int>, std::deque<core::Bytes>> unexpected_;
  std::map<std::pair<int, int>, std::deque<core::Completion<core::Bytes>>>
      posted_;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t dropped_ = 0;
  // Sends scheduled past this Comm's lifetime become no-ops.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace padico::mpi
