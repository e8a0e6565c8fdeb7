// VLink: the per-node virtual link service.
//
// It owns the node's set of drivers (access methods) keyed by name and
// offers listen/connect either through an explicit method or through a
// pluggable SelectionPolicy.  There is no built-in policy: the Grid
// installs the topology-aware selector::Chooser on every node (see
// src/selector/selector.hpp), and a hand-built VLink must install one
// before it connects without a method.
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

  core::Host& host() const noexcept { return *host_; }
  core::NodeId node() const noexcept { return host_->id(); }

  /// Register a driver.  Ports already listened on through this VLink
  /// are registered with the new driver too.
  void add_driver(std::unique_ptr<Driver> driver);

  /// Look up a driver by method name; nullptr if absent.  The first
  /// registration of a name wins.
  Driver* driver(const std::string& method) const;

  const std::vector<std::unique_ptr<Driver>>& drivers() const noexcept {
    return drivers_;
  }

  /// Install a selection policy for method-less connects.  The policy
  /// is borrowed (the Grid's chooser outlives the VLink's use of it);
  /// nullptr uninstalls it.
  void set_policy(SelectionPolicy* policy) { policy_ = policy; }

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
  /// Without a policy installed it completes with Status::error.
  void connect(const RemoteAddr& remote, Driver::ConnectFn on_connect);

 private:
  core::Host* host_;
  std::vector<std::unique_ptr<Driver>> drivers_;
  // Sticky listens, replayed onto late-registered drivers.  Hash map —
  // add_driver sorts the ports before replaying so the replay order
  // stays deterministic.
  std::unordered_map<core::Port, Driver::AcceptFn> listens_;
  SelectionPolicy* policy_ = nullptr;  // borrowed
};

}  // namespace padico::vlink
