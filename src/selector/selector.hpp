// padico::selector — topology-aware access-method selection.
//
// The paper's claim: PadicoTM picks the right method per peer
// automatically — Madeleine/MadIO inside a SAN cluster, plain TCP
// ("sysio") on the LAN/WAN, and parallel streams where one socket
// cannot fill the pipe.  `Chooser` is that policy, one instance per
// node, installed as the node VLink's SelectionPolicy by the Grid.
//
// Policy notes (ranking, nearest class wins):
//   * classify(dst) — dst is `loopback` if it is the node itself,
//     otherwise the tightest NetClass affinity among registered
//     drivers that reach it (san < lan < wan); peers no driver
//     reaches classify as `wan` (the most conservative assumption)
//     and fail at choose/select time.
//   * choose(dst)  — within the destination's class, the first
//     registered driver whose affinity matches the class; for `wan`
//     destinations an explicit override (`set_wan_method`, seeded from
//     gr::BuildOptions::wan_method) wins if that driver reaches the
//     peer.  The default WAN method is therefore plain "sysio" —
//     parallel streams are *activated*, exactly like the paper's §5
//     runs, by pinning "pstream".  One refinement: when the default
//     pick is a lossy driver (Driver::lossy(), e.g. "sysio" on a
//     transcontinental profile), the first same-class kCapLossTolerant
//     non-lossy sibling — the grid's "vrp" adapter — is preferred, so
//     default traffic over lossy WANs gets loss repair for free.  The
//     explicit wan override is exempt: pinning a lossy method is a
//     deliberate ablation choice.
//   * path_secure(dst) — whether the chosen driver's path stays on
//     trusted infrastructure (kCapSecure, derived from the link
//     profile): SAN/LAN yes, WAN no, loopback trivially yes.
//
// Every lookup recomputes the decision from the live driver registry
// (a handful of drivers per node), so runtime churn — a node detached,
// a medium taken down, a WAN model swapped — is visible on the very
// next connect with no invalidation protocol to keep in step.
#pragma once

#include <string>

#include "selector/net_class.hpp"
#include "vlink/vlink.hpp"

namespace padico::selector {

class Chooser final : public vlink::SelectionPolicy {
 public:
  /// Ranks `vlink`'s registry; borrows it (the grid::Node owns both).
  explicit Chooser(vlink::VLink& vlink) : vlink_(&vlink) {}

  /// Distance class of `dst` as seen from this node.
  NetClass classify(core::NodeId dst);

  /// Method name choose/select would use for `dst`: a registered
  /// driver's name, or "loopback" for the node itself.  Throws
  /// std::runtime_error if no driver reaches `dst`.
  std::string choose(core::NodeId dst);

  /// Whether the chosen path to `dst` stays on trusted infrastructure.
  /// Unreachable peers report false (assume the worst).
  bool path_secure(core::NodeId dst);

  /// Override the method used for wan-class destinations ("" restores
  /// the default ranking).  Ignored for peers the named driver cannot
  /// reach.
  void set_wan_method(std::string method);
  const std::string& wan_method() const noexcept { return wan_method_; }

  // SelectionPolicy: the connect path of VLink delegates here.
  vlink::Driver* select(core::NodeId dst, core::Error* error) override;

 private:
  struct Decision {
    NetClass cls = NetClass::wan;
    vlink::Driver* driver = nullptr;  // null: loopback or unreachable
  };

  Decision compute(core::NodeId dst) const;

  vlink::VLink* vlink_;
  std::string wan_method_;
};

}  // namespace padico::selector
