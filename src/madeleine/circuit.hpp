// Madeleine circuits: group-scoped incarnations of Madeleine channels
// (the paper's Circuit API, the top row of Table 1).
//
// A `circuit::Group` is an ordered list of grid nodes; members address
// each other by *rank* (index in the group), never by node id.  A
// `circuit::Circuit` is one member's endpoint: it owns a dedicated
// Madeleine channel on the node's SAN attachment and speaks the
// incremental pack/unpack API (`begin`/`pack`/`end`, `SendMode` honored
// end to end — later/cheaper segments stay borrowed until the flush).
// A `grid::CircuitSet` bundles the per-member endpoints that
// `Grid::make_circuit` wires up.
//
// Why circuits undercut VLink latency (8.4 us vs 10.2 us in Table 1):
// a circuit message pays one 24-byte control header (the shared
// vlink::wire codec, tag in the port fields, per-(src, dst) sequence in
// conn_id) directly on its private Madeleine channel.  The VLink path
// over the same SAN pays that header twice (MadIO multiplexing + the
// MadIODriver connection frame) plus the Link stream-reassembly
// machinery.  See DESIGN.md "Circuits".
//
// Establishment reuses the stack's one connection handshake: every
// non-root member sends a wire `connect` frame (tag in src_port, the
// circuit's rendezvous port in dst_port, channel id in conn_id) to the
// group root, which answers `accept` (or `refuse` on a mismatch) — the
// same frame vocabulary the vlink FrameDriver uses for links.  Channel
// ids are grid-allocated, so circuits with overlapping groups agree on
// channel numbers on every member node.
//
// Units / ownership / determinism: all time is virtual nanoseconds
// charged by the layers below; this layer adds only the dispatch cost
// of the node's Arbitration pump (PadicoTM's NetAccess), through which
// every received circuit message competes with SysIO/MadIO flows.  A
// Circuit borrows its node's Arbitration and Madeleine (the Grid owns
// both) and must be destroyed before them.  Sequence state lives in a
// net::SeqBook, whose hash maps are only point-looked-up, never
// iterated, and the root's accept book is an ordered map, so circuit
// traffic traces are bit-identical across runs.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/bytes.hpp"
#include "core/time.hpp"
#include "madeleine/madeleine.hpp"
#include "net/seqbook.hpp"
#include "net/tag.hpp"
#include "obs/registry.hpp"

namespace padico::net {
class Arbitration;
}  // namespace padico::net

namespace padico::circuit {

/// Ordered member list of a circuit.  Ranks are positions in the list;
/// the node at rank 0 is the group root (establishment rendezvous).
class Group {
 public:
  Group(std::initializer_list<core::NodeId> nodes);
  explicit Group(std::vector<core::NodeId> nodes);

  std::size_t size() const noexcept { return nodes_.size(); }
  const std::vector<core::NodeId>& nodes() const noexcept { return nodes_; }

  /// Node id at `rank`.  Throws std::out_of_range.
  core::NodeId node(int rank) const;

  /// Rank of `node`, or -1 if it is not a member.
  int rank_of(core::NodeId node) const noexcept;

  bool contains(core::NodeId node) const noexcept {
    return rank_of(node) >= 0;
  }

 private:
  void validate() const;

  std::vector<core::NodeId> nodes_;
};

/// One member's endpoint of a circuit.  Created by Grid::make_circuit
/// (or directly in tests); not movable — the Madeleine channel handler
/// captures `this`.
class Circuit {
 public:
  using RecvHandler = std::function<void(int src_rank, mad::UnpackHandle&)>;

  /// Opens the circuit's channel at `channel_id` on `madeleine` and, on
  /// non-root ranks, posts the connect frame towards the root.  Create
  /// every member endpoint before running the engine; `madeleine` must
  /// belong to the node at `group.node(rank)`.
  Circuit(std::string name, Group group, int rank, net::Tag tag,
          core::Port port, net::Arbitration& arbitration,
          mad::Madeleine& madeleine, std::uint8_t channel_id);
  Circuit(const Circuit&) = delete;
  Circuit& operator=(const Circuit&) = delete;
  ~Circuit();

  const std::string& name() const noexcept { return name_; }
  const Group& group() const noexcept { return group_; }
  int rank() const noexcept { return rank_; }
  net::Tag tag() const noexcept { return tag_; }
  core::Port port() const noexcept { return port_; }
  std::uint8_t channel_id() const noexcept { return channel_->id; }

  /// The engine this endpoint runs on — the hook the middleware
  /// personalities use to charge their CPU costs next to the endpoint
  /// they ride on.
  core::Engine& engine() const noexcept { return mad_->host().engine(); }

  /// True once the establishment handshake has completed at this end.
  bool established() const noexcept { return established_; }

  /// True if the root refused this member's connect (configuration
  /// mismatch); Grid::make_circuit turns this into an exception.
  bool refused() const noexcept { return refused_; }

  /// Open a message towards `dst_rank` (not this endpoint's own rank).
  /// Append payload segments with PackHandle::pack under any SendMode,
  /// then flush with end().  Throws std::out_of_range for a rank
  /// outside the group and std::invalid_argument for a self-send.
  mad::PackHandle begin(int dst_rank);

  /// Flush: prepends the 24-byte circuit control header (the sequence
  /// number is consumed here, so an abandoned handle never burns one)
  /// and hands header + payload to Madeleine as one hardware message.
  void end(mad::PackHandle handle);

  /// Convenience: begin + pack(data, mode) + end.  With the default
  /// `safer` the payload is copied immediately; `later`/`cheaper`
  /// borrow `data` only until this call returns (the flush is inside).
  void send(int dst_rank, core::ByteView data,
            mad::SendMode mode = mad::SendMode::safer);

  /// Install (or replace) the receive handler.  It runs from the node's
  /// Arbitration pump, never inline from the wire.
  void set_recv_handler(RecvHandler handler) {
    handler_ = std::move(handler);
  }

  std::uint64_t messages_sent() const noexcept { return sent_; }
  std::uint64_t messages_received() const noexcept { return received_; }

  /// Messages discarded: non-member sources, malformed or mismatched
  /// control headers, deliveries with no handler installed.
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Data headers whose per-source sequence did not follow its
  /// predecessor.  Always 0 on a reliable SAN.
  std::uint64_t seq_gaps() const noexcept { return seq_.gaps(); }

 private:
  void on_channel_message(core::NodeId src, mad::UnpackHandle& handle);
  void send_control(core::NodeId dst, vlink::wire::FrameType type);
  void drop() noexcept;  // count one discarded message (both books)

  std::string name_;
  Group group_;
  int rank_;
  net::Tag tag_;
  core::Port port_;
  core::NodeId node_;
  net::Arbitration* arbitration_;
  mad::Madeleine* mad_;
  mad::Channel* channel_;
  RecvHandler handler_;
  // Liveness token shared with closures queued in the arbitration:
  // deliveries still in flight when the Circuit dies become no-ops.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  // Send keyed by destination rank, receive keyed by source rank
  // (net/seqbook.hpp, the book MadIO keeps per (tag, node)).
  net::SeqBook<int> seq_;
  std::map<int, bool> accepted_;          // root: ranks already accepted
  bool established_ = false;
  bool refused_ = false;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t dropped_ = 0;
  // obs instrumentation (the engine is reached through the Madeleine's
  // host; trace names are interned "<circuit-name>.send/.recv").
  obs::Counter* obs_sends_;
  obs::Counter* obs_recvs_;
  obs::Counter* obs_dropped_;
  const char* trace_send_;
  const char* trace_recv_;
};

}  // namespace padico::circuit

namespace padico::grid {

/// The per-member endpoints of one circuit, indexed by rank.  Movable
/// (endpoints are heap-held), so Grid::make_circuit returns it by
/// value.  Destroy the set before the Grid that owns the stacks the
/// endpoints borrow.
class CircuitSet {
 public:
  CircuitSet(std::string name, circuit::Group group);
  CircuitSet(CircuitSet&&) = default;
  CircuitSet& operator=(CircuitSet&&) = default;

  const std::string& name() const noexcept { return name_; }
  const circuit::Group& group() const noexcept { return group_; }
  std::size_t size() const noexcept { return members_.size(); }

  /// Endpoint of `rank`.  Throws std::out_of_range.
  circuit::Circuit& at(int rank) const;

  /// True once every member endpoint has completed establishment.
  bool established() const noexcept;

  /// Append the endpoint for rank `size()` (used by Grid::make_circuit;
  /// throws std::invalid_argument if the rank does not line up).
  void add(std::unique_ptr<circuit::Circuit> member);

 private:
  std::string name_;
  circuit::Group group_;
  std::vector<std::unique_ptr<circuit::Circuit>> members_;
};

}  // namespace padico::grid
