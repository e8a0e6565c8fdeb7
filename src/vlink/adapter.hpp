// AdapterDriver: the rendezvous every adapter access method shares —
// "pstream" (parallel streams), "vrp" and "adoc".  An adapter is a
// named driver stacked on a base driver registered earlier on the same
// VLink; a subclass supplies only its hello codec (accept_hello), its
// connect side (dial) and its link type.
//
// Port map.  A listen on logical port P claims base port
// rendezvous_port(P): pstream P ^ 0x8000, vrp P ^ 0x4000, adoc
// P ^ 0xC000.  Each map is an involution and the three images of one P
// differ from P and from each other, so a direct base listen and all
// three adapters can serve one logical port.  A listen whose mapped
// port the base already serves throws std::logic_error (can_listen()
// says so first, so VLink's fan-out fails before any driver mutated);
// unlisten releases the mapped port only if this driver claimed it.
//
// Accept side.  Each accepted base link waits in the pending-accept
// book in datagram mode.  Its first datagram goes to accept_hello()
// with the link back in stream mode; the hook takes the link, handing
// the adapter link on through hand_off() (only while the logical port
// is still listened), or rejects the hello: counted, link dropped.
// The hook runs inside the base link's delivery, so finished entries
// are swept lazily at the next base accept; unlisten drops every entry
// of its port.
//
// The base is borrowed and may die first (drivers die in registration
// order): the destructor never touches it, and callbacks it still
// holds check the liveness token.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>

#include "core/host.hpp"
#include "vlink/driver.hpp"
#include "vlink/link.hpp"

namespace padico::vlink {

class AdapterDriver : public Driver {
 public:
  /// Which adapter; indexes the rendezvous mask table.
  enum class Kind : std::uint8_t { pstream, vrp, adoc };

  void listen(core::Port port, AcceptFn on_accept) final;
  void unlisten(core::Port port) final;
  bool listening(core::Port port) const final {
    return listeners_.count(port) != 0;
  }
  bool can_listen(core::Port port) const final {
    // Re-listening a logical port this driver owns stays allowed:
    // that claim on the base is ours.
    return listening(port) || !base_->listening(rendezvous_port(port));
  }
  /// Fails fast with Status::unreachable when the base cannot reach
  /// the node; otherwise dial()s.
  void connect(const RemoteAddr& remote, ConnectFn on_connect) final;
  bool reaches(core::NodeId node) const final { return base_->reaches(node); }

  /// Adding a sub-protocol adds no recovery: a lossy base stays lossy
  /// (VRP, which recovers, overrides this).
  bool lossy() const override { return base_->lossy(); }

  Driver& base() const noexcept { return *base_; }

  /// The base-driver port a rendezvous on logical port `p` uses.
  core::Port rendezvous_port(core::Port p) const noexcept {
    return static_cast<core::Port>(p ^ mask_);
  }

  /// Establishment frames that failed to parse or matched nothing
  /// (their base link is dropped).
  std::uint64_t malformed_hellos() const noexcept { return malformed_hellos_; }

  /// Entries of the pending-accept book: base links still waiting for
  /// their first datagram, plus finished ones not yet swept.
  std::size_t pending_accepts() const noexcept { return accepting_.size(); }

 protected:
  AdapterDriver(core::Host& host, Driver& base, std::string name, Kind kind);

  /// Connect side, reachability already checked.
  virtual void dial(const RemoteAddr& remote, ConnectFn on_connect) = 0;

  /// The first datagram `hello` of a base link accepted for logical
  /// `port`.  Take `link` (moved out) to keep it, or return false to
  /// reject the hello as malformed.  Once a listener runs the book
  /// entry may be gone (it may unlisten): touch `link` before that.
  virtual bool accept_hello(core::Port port, std::unique_ptr<Link>& link,
                            core::ByteView hello) = 0;

  /// Fire the listener of `port` with `make()`'s link.  If `port` was
  /// unlistened meanwhile the establishment is dropped and `make` never
  /// runs (an adapter link's constructor may already talk to the peer).
  template <class MakeLink>
  void hand_off(core::Port port, MakeLink&& make) {
    auto it = listeners_.find(port);
    if (it != listeners_.end()) it->second(make());
  }

  void count_malformed_hello() noexcept { ++malformed_hellos_; }

  core::Host& host() const noexcept { return *host_; }

  /// Weak copy of the liveness token, for callbacks that may outlive
  /// the driver (base listeners, connects, timers).
  std::weak_ptr<char> liveness() const { return alive_; }

 private:
  struct PendingAccept {
    std::unique_ptr<Link> link;
    core::Port port = 0;
    bool done = false;  // first datagram seen; swept lazily
  };

  static constexpr std::array<core::Port, 3> kRendezvousMask{0x8000, 0x4000,
                                                             0xC000};

  void on_first_frame(std::uint64_t key, core::ByteView frame);

  core::Host* host_;
  Driver* base_;
  core::Port mask_;
  std::uint64_t next_accept_key_ = 1;
  std::uint64_t malformed_hellos_ = 0;
  std::map<core::Port, AcceptFn> listeners_;          // by logical port
  std::map<std::uint64_t, PendingAccept> accepting_;  // by accept order
  std::shared_ptr<char> alive_ = std::make_shared<char>();
};

}  // namespace padico::vlink
