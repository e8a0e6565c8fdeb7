// Virtual link: an ordered, connection-oriented byte stream between two
// nodes, the abstraction every middleware in the stack talks to.
//
// `Link` is the polymorphic base: it owns receive-side reassembly (a
// byte buffer plus a FIFO of pending `read_n` requests, kept in a
// vector that allocates nothing until a read actually has to wait)
// and delegates the send side to the concrete transport via
// `send_bytes`.  The transports (FrameDriver's links) and the adapter
// links stacked on them (pstream, VRP, AdOC) subclass it and keep the
// same user-facing surface.  A Link is also the stack's virtual
// socket: middleware and the scenario engine hold it directly.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "core/bytes.hpp"
#include "core/task.hpp"
#include "core/time.hpp"

namespace padico::vlink {

class Link {
 public:
  Link(core::NodeId remote_node, core::Port local_port, core::Port remote_port)
      : remote_node_(remote_node),
        local_port_(local_port),
        remote_port_(remote_port) {}
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;
  virtual ~Link() = default;

  core::NodeId remote_node() const noexcept { return remote_node_; }
  core::Port local_port() const noexcept { return local_port_; }
  core::Port remote_port() const noexcept { return remote_port_; }

  /// Queue `data` for transmission and return immediately; the wire
  /// paces delivery in virtual time.  Bytes arrive in post order.
  void post_write(core::ByteView data) { send_bytes(data); }

  /// Gather variant: the segments travel as one wire message.
  void post_write(const core::IoVec& iov);

  /// Await exactly `n` bytes from the stream.  Requests are served in
  /// FIFO order; each returns a buffer of exactly `n` bytes.
  ///
  /// Lifetime rule: the receive path executes ON the link (the
  /// transport's delivery, and for striped links a member reader
  /// coroutine), so a continuation resumed by a read must not destroy
  /// the link it just read from — hold the link across the await and
  /// drop it from outside the delivery chain (e.g. an engine event),
  /// like every other "X must outlive the run loop" rule in this
  /// stack.
  core::Completion<core::Bytes> read_n(std::size_t n);

  /// Bytes buffered and not yet claimed by a read.
  std::size_t available() const noexcept { return rx_buf_.size() - rx_head_; }

  /// Synchronously take everything buffered (may be empty).  The
  /// loss-tolerant consumers use this with a ready handler instead of
  /// read_n: on a link allowed to *lose* bytes, "exactly n" can never
  /// complete — "whatever arrived" can.
  core::Bytes read_available();

  /// `fn` fires after every delivery and on end-of-stream — the
  /// edge-triggered companion of read_available().
  void set_ready_handler(std::function<void()> fn) {
    ready_handler_ = std::move(fn);
  }

  /// Datagram mode: route each delivered transport message to `fn`
  /// whole instead of appending it to the stream buffer (an empty `fn`
  /// returns to stream mode).  The adapter rendezvous takes each
  /// accepted base link's first message, the hello, this way; VRP and
  /// AdOC stay in the mode to get framed-message semantics: a lost wire
  /// message then drops one *frame* the adapter header can account
  /// for, where a byte stream could never resync.
  void set_datagram_handler(std::function<void(core::ByteView)> fn) {
    datagram_handler_ = std::move(fn);
  }

  /// True once the peer's end-of-stream marker resolved (only
  /// transports with a teardown protocol, e.g. VRP, ever set it).
  bool eof_seen() const noexcept { return eof_; }

  /// Begin an orderly close of the write side.  Default: no-op (the
  /// baseline transports have no teardown protocol).
  virtual void post_close() {}

 protected:
  /// Transport hook: actually emit `data` towards the peer.
  virtual void send_bytes(core::ByteView data) = 0;

  /// Called by the transport when stream bytes arrive from the peer.
  void deliver(core::ByteView data);

  /// Transport hook: the peer finished its write side.  Flags
  /// eof_seen() and fires the ready handler once.
  void mark_eof();

 private:
  core::Bytes take(std::size_t n);
  void drain();

  struct PendingRead {
    std::size_t n;
    core::Completion<core::Bytes> completion;
  };

  core::NodeId remote_node_;
  core::Port local_port_;
  core::Port remote_port_;
  core::Bytes rx_buf_;
  std::size_t rx_head_ = 0;
  bool eof_ = false;
  std::vector<PendingRead> pending_;  // FIFO: served from the front
  std::function<void()> ready_handler_;
  std::function<void(core::ByteView)> datagram_handler_;
};

}  // namespace padico::vlink
