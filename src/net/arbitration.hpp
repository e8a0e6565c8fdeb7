// Arbitration: the paper's SysIO/MadIO interleaving policy.
//
// PadicoTM funnels every network event of a node — SAN-side (Madeleine
// polling, "mad") and IP-side (socket readiness, "sys") — through one
// single-threaded I/O manager.  This class models that manager's poll
// loop in virtual time: incoming events are queued per substrate and
// dispatched by a weighted round-robin pump.  Each dispatch costs
// `dispatch_cost` (one poll iteration); moving the pump from one
// substrate to the other costs `switch_cost` on top (polling the other
// API).  The weights say how many events one substrate may dispatch
// before the pump considers switching — the dynamically tunable policy
// knob of section 4.1 (`node.arbitration().set_policy(sys, mad)`).
//
// The pump is sticky: with only one substrate active it never pays the
// switch cost, so an uncontended stream sees a constant per-message
// overhead — the property the latency reproductions rely on.
//
// Units / ownership / determinism: `dispatch_cost` / `switch_cost` are
// virtual nanoseconds.  An Arbitration borrows its Engine and is held
// by value in its grid::Node — it is PadicoTM's NetAccess, the node's
// single arbitration point; queued closures are owned until dispatched.
// Queues are plain FIFOs and the pump's state machine is driven only
// by engine events, so dispatch order is bit-identical across runs.
// An empty queue holds no heap block: a grid has one Arbitration per
// node and most sit idle between events.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/engine.hpp"

namespace padico::net {

/// The two event sources the I/O manager multiplexes.
enum class Substrate : std::uint8_t { sys = 0, mad = 1 };

class Arbitration {
 public:
  explicit Arbitration(core::Engine& engine);
  Arbitration(const Arbitration&) = delete;
  Arbitration& operator=(const Arbitration&) = delete;

  /// Set the interleave weights (events per turn); clamped to >= 1.
  /// May be called at any time, including mid-run.
  void set_policy(int sys_weight, int mad_weight);

  int sys_weight() const noexcept { return weight_[0]; }
  int mad_weight() const noexcept { return weight_[1]; }

  /// Tune the virtual cost of one poll iteration and of switching the
  /// pump between substrates.
  void set_costs(core::Duration dispatch_cost, core::Duration switch_cost) {
    dispatch_cost_ = dispatch_cost;
    switch_cost_ = switch_cost;
  }
  core::Duration dispatch_cost() const noexcept { return dispatch_cost_; }
  core::Duration switch_cost() const noexcept { return switch_cost_; }

  /// Queue one event for dispatch under the policy.  `core::EventFn`
  /// carries the closure inline (no allocation per queued frame).
  void enqueue(Substrate s, core::EventFn fn);

  std::uint64_t dispatched(Substrate s) const noexcept {
    return dispatched_[static_cast<int>(s)];
  }
  std::size_t queued(Substrate s) const noexcept {
    return queue_[static_cast<int>(s)].size();
  }

 private:
  /// FIFO of queued events: a vector plus a read index, allocating on
  /// first push only.  Drained, it rewinds; once the consumed prefix
  /// reaches `kCompactAt` entries and half the vector it is erased, so
  /// a queue that never drains stays bounded.
  struct Fifo {
    static constexpr std::size_t kCompactAt = 64;

    std::vector<core::EventFn> items;
    std::size_t head = 0;

    bool empty() const noexcept { return head == items.size(); }
    std::size_t size() const noexcept { return items.size() - head; }
    core::EventFn pop() noexcept;
  };

  void pump();

  core::Engine* engine_;
  Fifo queue_[2];
  int weight_[2] = {1, 1};
  core::Duration dispatch_cost_ = core::nanoseconds(40);
  core::Duration switch_cost_ = core::nanoseconds(500);
  int cur_ = static_cast<int>(Substrate::mad);  // SAN polled first
  int credit_ = 1;
  bool pumping_ = false;
  std::uint64_t dispatched_[2] = {0, 0};
  // obs instrumentation (cached registry slots; see DESIGN.md
  // "Observability" for the name scheme).
  obs::Counter* obs_turns_;
  obs::Counter* obs_switches_;
  obs::Counter* obs_dispatch_[2];
  obs::Counter* obs_dispatch_ns_[2];
};

}  // namespace padico::net
