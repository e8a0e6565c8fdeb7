#include "net/arbitration.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace padico::net {

Arbitration::Arbitration(core::Engine& engine) : engine_(&engine) {
  obs::Registry& reg = engine.obs();
  obs_turns_ = &reg.counter("arb.pump_turns");
  obs_switches_ = &reg.counter("arb.switches");
  obs_dispatch_[0] = &reg.counter("arb.dispatch.sys");
  obs_dispatch_[1] = &reg.counter("arb.dispatch.mad");
  obs_dispatch_ns_[0] = &reg.counter("arb.dispatch_ns.sys");
  obs_dispatch_ns_[1] = &reg.counter("arb.dispatch_ns.mad");
}

void Arbitration::set_policy(int sys_weight, int mad_weight) {
  weight_[0] = std::max(1, sys_weight);
  weight_[1] = std::max(1, mad_weight);
  credit_ = weight_[cur_];  // fresh turn under the new policy
}

core::EventFn Arbitration::Fifo::pop() noexcept {
  core::EventFn fn = std::move(items[head]);
  if (++head == items.size()) {
    items.clear();
    head = 0;
  } else if (head >= kCompactAt && head * 2 >= items.size()) {
    items.erase(items.begin(),
                items.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
  return fn;
}

void Arbitration::enqueue(Substrate s, core::EventFn fn) {
  queue_[static_cast<int>(s)].items.push_back(std::move(fn));
  if (!pumping_) {
    pumping_ = true;
    engine_->schedule_after(dispatch_cost_, [this] { pump(); });
  }
}

void Arbitration::pump() {
  // One poll iteration.  The choice of substrate is made here, at poll
  // time, so events queued since the iteration was scheduled count.
  obs_turns_->add();
  const bool have_cur = !queue_[cur_].empty();
  const bool have_other = !queue_[1 - cur_].empty();
  if (!have_cur && !have_other) {
    // Idle: keep `cur_` sticky so the next lone event of the same
    // substrate pays no switch cost.
    pumping_ = false;
    return;
  }
  if (!have_cur || (credit_ <= 0 && have_other)) {
    // Poll the other substrate: pay the switch cost, then re-decide.
    cur_ = 1 - cur_;
    credit_ = weight_[cur_];
    obs_switches_->add();
    engine_->tracer().instant(obs::Cat::arbitration, "arb.switch");
    engine_->schedule_after(switch_cost_, [this] { pump(); });
    return;
  }
  if (credit_ <= 0) credit_ = weight_[cur_];  // other side idle: renew
  core::EventFn fn = queue_[cur_].pop();
  --credit_;
  ++dispatched_[cur_];
  obs_dispatch_[cur_]->add();
  obs_dispatch_ns_[cur_]->add(dispatch_cost_);
  // The dispatched event occupies the pump until the next poll
  // iteration — that slice is the per-substrate dispatch cost.
  engine_->tracer().complete(
      obs::Cat::arbitration,
      cur_ == static_cast<int>(Substrate::mad) ? "arb.dispatch.mad"
                                               : "arb.dispatch.sys",
      engine_->now(), dispatch_cost_);
  fn();
  engine_->schedule_after(dispatch_cost_, [this] { pump(); });
}

}  // namespace padico::net
