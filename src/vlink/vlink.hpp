// VLink: the per-node virtual link service.
//
// It owns the node's set of drivers (access methods) keyed by name and
// offers listen/connect either through an explicit method or through a
// pluggable SelectionPolicy.  The built-in default policy walks the
// registry in insertion order and picks the first driver that reaches
// the destination; the Grid installs the topology-aware
// selector::Chooser on every node, which replaces that default with
// per-NetClass ranking (see src/selector/selector.hpp).
//
// Listening is sticky: `listen(port, fn)` is recorded and replayed
// onto drivers registered later, so a server never silently misses a
// network that was wired after it started accepting.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/host.hpp"
#include "vlink/driver.hpp"
#include "vlink/link.hpp"

namespace padico::vlink {

class VLink;

/// Method-selection hook: given a destination node, pick the driver to
/// connect through.  Implementations rank the owning VLink's registry
/// afresh on every call.
class SelectionPolicy {
 public:
  virtual ~SelectionPolicy() = default;

  /// The driver to use for traffic to `dst`, or nullptr with `*error`
  /// filled in (Status::unreachable when no driver reaches `dst`).
  virtual Driver* select(core::NodeId dst, core::Error* error) = 0;

  /// The driver registry changed (driver added).  The in-tree policies
  /// rank afresh on every call and ignore it.
  virtual void on_drivers_changed() {}
};

class VLink {
 public:
  explicit VLink(core::Host& host);
  VLink(const VLink&) = delete;
  VLink& operator=(const VLink&) = delete;
  ~VLink();

  core::Host& host() const noexcept { return *host_; }
  core::NodeId node() const noexcept { return host_->id(); }

  /// Register a driver; insertion order is the default-selection
  /// preference order (fastest network first).  Ports already listened
  /// on through this VLink are registered with the new driver too.
  void add_driver(std::unique_ptr<Driver> driver);

  /// Look up a driver by method name; nullptr if absent.
  Driver* driver(const std::string& method) const;

  const std::vector<std::unique_ptr<Driver>>& drivers() const noexcept {
    return drivers_;
  }

  /// Install a selection policy for method-less connects.  The policy
  /// is borrowed (the Grid's chooser outlives the VLink's use of it);
  /// nullptr restores the built-in first-reachable default.
  void set_policy(SelectionPolicy* policy);

  /// The active selection policy (the default one if none installed).
  SelectionPolicy& policy() const noexcept { return *policy_; }

  /// Accept on `port` via every registered driver (a server does not
  /// care which network the peer arrives on) — including drivers that
  /// register after this call.  Throws std::logic_error, with no
  /// driver mutated, if any driver reports a port-space collision
  /// (`Driver::can_listen`).
  void listen(core::Port port, Driver::AcceptFn on_accept);

  /// Stop accepting on `port` on every driver and forget the sticky
  /// registration.  A no-op for ports not listened through this VLink
  /// (ports claimed directly on a driver are that driver's business).
  void unlisten(core::Port port);

  /// Connect through the named method.
  void connect(const std::string& method, const RemoteAddr& remote,
               Driver::ConnectFn on_connect);

  /// Connect through the driver picked by the selection policy.
  void connect(const RemoteAddr& remote, Driver::ConnectFn on_connect);

 private:
  core::Host* host_;
  std::vector<std::unique_ptr<Driver>> drivers_;
  // Name -> driver index for the connect("method", ...) hot path.  The
  // first registration of a name wins, matching what the old linear
  // scan returned for (pathological) duplicate names.
  std::unordered_map<std::string, Driver*> by_name_;
  // Sticky listens, replayed onto late-registered drivers.  Hash map —
  // add_driver sorts the ports before replaying so the replay order
  // stays deterministic.
  std::unordered_map<core::Port, Driver::AcceptFn> listens_;
  std::unique_ptr<SelectionPolicy> default_policy_;
  SelectionPolicy* policy_;  // borrowed; defaults to default_policy_
};

/// The extracted pre-selector policy: first registered driver that
/// reaches the destination (insertion order = attachment declaration
/// order, so the typical "SAN first" testbed auto-selects the SAN).
class FirstReachablePolicy final : public SelectionPolicy {
 public:
  explicit FirstReachablePolicy(const VLink& vlink) : vlink_(&vlink) {}

  Driver* select(core::NodeId dst, core::Error* error) override;

 private:
  const VLink* vlink_;
};

}  // namespace padico::vlink
