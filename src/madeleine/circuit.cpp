#include "madeleine/circuit.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "net/arbitration.hpp"
#include "vlink/wire.hpp"

namespace padico::circuit {

namespace wire = vlink::wire;

// --- Group -----------------------------------------------------------------

Group::Group(std::initializer_list<core::NodeId> nodes) : nodes_(nodes) {
  validate();
}

Group::Group(std::vector<core::NodeId> nodes) : nodes_(std::move(nodes)) {
  validate();
}

void Group::validate() const {
  // Ranks must fit the 16-bit halves of the pack-handle context word.
  if (nodes_.size() > 0xFFFF) {
    throw std::length_error("circuit::Group: more than 65535 members");
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes_.size(); ++j) {
      if (nodes_[i] == nodes_[j]) {
        throw std::invalid_argument("circuit::Group: node " +
                                    std::to_string(nodes_[i]) +
                                    " appears twice");
      }
    }
  }
}

core::NodeId Group::node(int rank) const {
  if (rank < 0 || static_cast<std::size_t>(rank) >= nodes_.size()) {
    throw std::out_of_range("circuit::Group: rank " + std::to_string(rank) +
                            " outside group of " +
                            std::to_string(nodes_.size()));
  }
  return nodes_[static_cast<std::size_t>(rank)];
}

int Group::rank_of(core::NodeId node) const noexcept {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == node) return static_cast<int>(i);
  }
  return -1;
}

// --- Circuit ---------------------------------------------------------------

Circuit::Circuit(std::string name, Group group, int rank, net::Tag tag,
                 core::Port port, net::Arbitration& arbitration,
                 mad::Madeleine& madeleine, std::uint8_t channel_id)
    : name_(std::move(name)),
      group_(std::move(group)),
      rank_(rank),
      tag_(tag),
      port_(port),
      node_(group_.node(rank)),  // validates the rank too
      arbitration_(&arbitration),
      mad_(&madeleine) {
  if (node_ != mad_->host().id()) {
    throw std::invalid_argument(
        "circuit::Circuit: rank " + std::to_string(rank_) + " maps to node " +
        std::to_string(node_) + " but the Madeleine belongs to node " +
        std::to_string(mad_->host().id()));
  }
  channel_ = mad_->open_channel_at(channel_id);
  mad_->set_recv_handler(*channel_,
                         [this](core::NodeId src, mad::UnpackHandle& h) {
                           on_channel_message(src, h);
                         });
  core::Engine& engine = mad_->host().engine();
  obs::Registry& reg = engine.obs();
  obs_sends_ = &reg.counter("circuit.sends");
  obs_recvs_ = &reg.counter("circuit.recvs");
  obs_dropped_ = &reg.counter("circuit.dropped");
  trace_send_ = engine.tracer().intern(name_ + ".send");
  trace_recv_ = engine.tracer().intern(name_ + ".recv");
  if (rank_ == 0) {
    // The root rendezvous: established once every other member's
    // connect has been accepted.
    established_ = group_.size() == 1;
  } else {
    send_control(group_.node(0), wire::FrameType::connect);
  }
}

Circuit::~Circuit() {
  // Release the channel (its id becomes reusable by later circuits)
  // and neutralise dispatch closures already queued in the arbitration
  // — they hold a copy of the liveness token and no-op once it reads
  // false.
  mad_->close_channel(*channel_);
  *alive_ = false;
}

void Circuit::send_control(core::NodeId dst, wire::FrameType type) {
  mad::PackHandle handle = mad_->begin_packing(*channel_, dst);
  wire::Header h = net::tagged_header(tag_, node_, channel_->id, type);
  h.dst_port = port_;  // establishment frames carry the rendezvous port
  handle.pack(wire::encode(h));
  mad_->end_packing(std::move(handle));
}

mad::PackHandle Circuit::begin(int dst_rank) {
  const core::NodeId dst = group_.node(dst_rank);  // throws on bad rank
  if (dst_rank == rank_) {
    throw std::invalid_argument("circuit::Circuit: rank " +
                                std::to_string(rank_) + " sending to itself");
  }
  mad::PackHandle handle = mad_->begin_packing(*channel_, dst);
  // end() finalises the control header; the context word records who
  // opened the message (high half) and for which rank (low half).
  handle.set_context((static_cast<std::uint32_t>(rank_) << 16) |
                     static_cast<std::uint32_t>(dst_rank));
  return handle;
}

void Circuit::end(mad::PackHandle handle) {
  // The handle must come from begin() on THIS endpoint: same channel,
  // opened by this rank, and a context rank that still maps to the
  // handle's destination — a foreign or tampered handle would corrupt
  // another endpoint's sequence book or misattribute the sender.
  const auto src_rank = static_cast<int>(handle.context() >> 16);
  const auto dst_rank = static_cast<std::size_t>(handle.context() & 0xFFFF);
  if (handle.channel() != channel_->id || src_rank != rank_ ||
      dst_rank >= group_.size() ||
      group_.node(static_cast<int>(dst_rank)) != handle.dst()) {
    throw std::invalid_argument(
        "circuit::Circuit::end(): handle does not come from begin() "
        "on this endpoint");
  }
  // The sequence number is consumed HERE, at flush time — an abandoned
  // handle never burns one, so seq_gaps() genuinely stays 0 on a
  // reliable SAN.
  handle.prepend(wire::encode(net::tagged_header(
      tag_, node_, seq_.next(static_cast<int>(dst_rank)),
      wire::FrameType::data)));
  ++sent_;
  obs_sends_->add();
  mad_->host().engine().tracer().instant(
      obs::Cat::circuit, trace_send_, static_cast<std::uint32_t>(node_));
  mad_->end_packing(std::move(handle));
}

void Circuit::drop() noexcept {
  ++dropped_;
  obs_dropped_->add();
}

void Circuit::send(int dst_rank, core::ByteView data, mad::SendMode mode) {
  mad::PackHandle handle = begin(dst_rank);
  handle.pack(data, mode);
  end(std::move(handle));
}

void Circuit::on_channel_message(core::NodeId src, mad::UnpackHandle& handle) {
  const int src_rank = group_.rank_of(src);
  const std::optional<wire::Header> h =
      wire::decode(handle.unpack(wire::kHeaderSize));
  if (!h || src_rank < 0) {
    drop();
    return;
  }
  switch (h->type) {
    case wire::FrameType::connect: {
      // Root side of the handshake.  A connect must quote this
      // circuit's tag, rendezvous port and channel id.
      if (rank_ != 0 || src_rank == 0) {
        drop();
        return;
      }
      const bool matches = h->src_port == tag_ && h->dst_port == port_ &&
                           h->conn_id == channel_->id;
      send_control(src, matches ? wire::FrameType::accept
                                : wire::FrameType::refuse);
      if (!matches) {
        drop();
        return;
      }
      accepted_[src_rank] = true;
      established_ = accepted_.size() + 1 == group_.size();
      return;
    }
    case wire::FrameType::accept:
      if (rank_ == 0 || src_rank != 0) {
        drop();
        return;
      }
      established_ = true;
      return;
    case wire::FrameType::refuse:
      // Only the root refuses, and only non-roots can be refused.
      if (rank_ == 0 || src_rank != 0) {
        drop();
        return;
      }
      refused_ = true;
      return;
    case wire::FrameType::data: {
      if (h->src_port != tag_ || h->dst_port != tag_) {
        drop();
        return;
      }
      // Contiguous per-source sequence; on a reliable SAN a gap means
      // circuit wiring can no longer be trusted.
      seq_.observe(src_rank, h->conn_id);
      ++received_;
      obs_recvs_->add();
      // Hand off to the node's I/O manager: the handler runs when the
      // arbitration pump schedules it, competing with SysIO/MadIO
      // events.  (shared_ptr because std::function needs a copyable
      // closure; the handle is move-only.  The liveness token makes a
      // dispatch outliving its Circuit a no-op instead of a
      // use-after-free.)
      auto owned = std::make_shared<mad::UnpackHandle>(std::move(handle));
      arbitration_->enqueue(
          net::Substrate::mad,
          [this, src_rank, owned = std::move(owned), alive = alive_] {
            if (!*alive) return;
            if (!handler_) {
              drop();
              return;
            }
            obs::Scope scope(mad_->host().engine().tracer(),
                             obs::Cat::circuit, trace_recv_,
                             static_cast<std::uint32_t>(node_));
            handler_(src_rank, *owned);
          });
      return;
    }
    default:
      drop();
      return;
  }
}

}  // namespace padico::circuit

namespace padico::grid {

CircuitSet::CircuitSet(std::string name, circuit::Group group)
    : name_(std::move(name)), group_(std::move(group)) {
  members_.reserve(group_.size());
}

circuit::Circuit& CircuitSet::at(int rank) const {
  if (rank < 0 || static_cast<std::size_t>(rank) >= members_.size()) {
    throw std::out_of_range("CircuitSet::at(): rank " + std::to_string(rank) +
                            " outside set of " +
                            std::to_string(members_.size()));
  }
  return *members_[static_cast<std::size_t>(rank)];
}

bool CircuitSet::established() const noexcept {
  if (members_.size() != group_.size()) return false;
  return std::all_of(members_.begin(), members_.end(),
                     [](const auto& m) { return m->established(); });
}

void CircuitSet::add(std::unique_ptr<circuit::Circuit> member) {
  if (member->rank() != static_cast<int>(members_.size())) {
    throw std::invalid_argument("CircuitSet::add(): expected rank " +
                                std::to_string(members_.size()) + ", got " +
                                std::to_string(member->rank()));
  }
  members_.push_back(std::move(member));
}

}  // namespace padico::grid
