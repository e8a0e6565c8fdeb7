// Driver interface: one access method ("madio", "sysio", or one of the
// adapters "pstream", "vrp", "adoc" — see vlink/adapter.hpp) for
// reaching peers on some network.
//
// Beyond listen/connect, a driver advertises what kind of path it
// serves: a NetClass affinity (which distance class it is the natural
// method for) and a capability bitmask (secure / loss-tolerant /
// parallel).  The topology-aware chooser (src/selector/) ranks
// registered drivers by exactly these two facts; the Grid fills them
// in from the simnet profile a driver is wired to.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/result.hpp"
#include "core/time.hpp"
#include "selector/net_class.hpp"

namespace padico::vlink {

class Link;

/// Address of a remote vlink endpoint.
struct RemoteAddr {
  core::NodeId node;
  core::Port port;
};

class Driver {
 public:
  using AcceptFn = std::function<void(std::unique_ptr<Link>)>;
  using ConnectFn =
      std::function<void(core::Result<std::unique_ptr<Link>>)>;

  explicit Driver(std::string name) : name_(std::move(name)) {}
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;
  virtual ~Driver() = default;

  const std::string& name() const noexcept { return name_; }

  /// The distance class this driver is the natural method for.  Set by
  /// whoever wires the driver (the Grid derives it from the network
  /// profile); defaults to lan for hand-built rigs.
  selector::NetClass net_class() const noexcept { return net_class_; }
  void set_net_class(selector::NetClass c) noexcept { net_class_ = c; }

  /// Capability bitmask (selector::kCap*).
  selector::Caps caps() const noexcept { return caps_; }
  void set_caps(selector::Caps caps) noexcept { caps_ = caps; }
  bool has_cap(selector::Caps cap) const noexcept {
    return (caps_ & cap) != 0;
  }

  /// Accept incoming connections on `port`; `on_accept` fires once per
  /// established connection, transferring link ownership.
  virtual void listen(core::Port port, AcceptFn on_accept) = 0;

  /// Stop accepting on `port`.
  virtual void unlisten(core::Port port) = 0;

  /// True if a listener is currently installed on `port` (adapters
  /// that claim ports on a base driver use this to detect collisions).
  virtual bool listening(core::Port port) const = 0;

  /// True if listen(port) would succeed without disturbing any other
  /// registration.  VLink checks every driver before fanning a listen
  /// out, so a port-space collision fails before any driver mutated.
  virtual bool can_listen(core::Port port) const {
    (void)port;
    return true;
  }

  /// Open a connection to `remote`; `on_connect` fires with the link or
  /// an error (refused / unreachable).
  virtual void connect(const RemoteAddr& remote, ConnectFn on_connect) = 0;

  /// True if this driver can reach `node` at all (used by method
  /// selection).
  virtual bool reaches(core::NodeId node) const = 0;

  /// True when the transport can silently lose user bytes (a driver on
  /// a lossy LinkModel without a recovery protocol).  The Chooser
  /// prefers a kCapLossTolerant sibling over a lossy default.
  virtual bool lossy() const { return false; }

 private:
  std::string name_;
  selector::NetClass net_class_ = selector::NetClass::lan;
  selector::Caps caps_ = 0;
};

}  // namespace padico::vlink
