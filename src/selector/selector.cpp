#include "selector/selector.hpp"

#include <stdexcept>
#include <utility>

namespace padico::selector {

Chooser::Decision Chooser::compute(core::NodeId dst) const {
  Decision d;
  if (dst == vlink_->node()) {
    d.cls = NetClass::loopback;
    return d;
  }
  // Tightest class any reaching driver serves; unreachable peers
  // keep the conservative {wan, nullptr} default.
  bool reachable = false;
  for (const auto& drv : vlink_->drivers()) {
    if (!drv->reaches(dst)) continue;
    if (!reachable || drv->net_class() < d.cls) d.cls = drv->net_class();
    reachable = true;
  }
  if (!reachable) return d;
  // WAN override first (the paper's "activate parallel streams"
  // switch), then the first registered driver whose affinity
  // matches the destination's class.
  bool overridden = false;
  if (d.cls == NetClass::wan && !wan_method_.empty()) {
    if (vlink::Driver* o = vlink_->driver(wan_method_);
        o != nullptr && o->reaches(dst)) {
      d.driver = o;
      overridden = true;
    }
  }
  if (d.driver == nullptr) {
    for (const auto& drv : vlink_->drivers()) {
      if (drv->reaches(dst) && drv->net_class() == d.cls) {
        d.driver = drv.get();
        break;
      }
    }
  }
  // Loss repair beats raw speed: if the pick drops frames, swap in
  // the first same-class loss-tolerant sibling that reaches the
  // peer (the grid stacks "vrp" on every lossy profile).  The
  // explicit wan override above is exempt — pinning a lossy method
  // is a deliberate ablation choice.
  if (!overridden && d.driver != nullptr && d.driver->lossy()) {
    for (const auto& drv : vlink_->drivers()) {
      if (drv->reaches(dst) && drv->net_class() == d.cls &&
          drv->has_cap(kCapLossTolerant) && !drv->lossy()) {
        d.driver = drv.get();
        break;
      }
    }
  }
  return d;
}

NetClass Chooser::classify(core::NodeId dst) { return compute(dst).cls; }

std::string Chooser::choose(core::NodeId dst) {
  const Decision d = compute(dst);
  if (d.cls == NetClass::loopback) return "loopback";
  if (d.driver == nullptr) {
    throw std::runtime_error("selector: no driver reaches node " +
                             std::to_string(dst));
  }
  return d.driver->name();
}

bool Chooser::path_secure(core::NodeId dst) {
  const Decision d = compute(dst);
  if (d.cls == NetClass::loopback) return true;
  return d.driver != nullptr && d.driver->has_cap(kCapSecure);
}

void Chooser::set_wan_method(std::string method) {
  wan_method_ = std::move(method);
}

vlink::Driver* Chooser::select(core::NodeId dst, core::Error* error) {
  const Decision d = compute(dst);
  if (d.driver != nullptr) return d.driver;
  if (error) {
    if (d.cls == NetClass::loopback) {
      *error = {core::Status::unreachable,
                "selector: node " + std::to_string(dst) +
                    " is the local node (no loopback driver)"};
    } else {
      *error = {core::Status::unreachable,
                "no driver reaches node " + std::to_string(dst)};
    }
  }
  return nullptr;
}

}  // namespace padico::selector
