// padico::jsock — the Java-socket personality: blocking stream
// sockets with a JVM cost profile, over a vlink Link (the virtual
// socket).
//
// The paper's Java entry (Table 1: ~40 us one-way, yet ~238 MB/s peak)
// is a JVM whose java.net sockets were remapped onto PadicoTM's
// virtual sockets: every read/write crosses JNI and copies between
// the Java heap and native buffers — heavy per-message cost — but the
// underlying transport is still the full-speed SAN, so bulk transfers
// ride the wire.  `Jvm` is that runtime's cost personality (one per
// node, shared by that node's sockets); `JavaSocket` is the
// java.net.Socket shape: awaitable blocking `write` / `read_n` whose
// JNI+copy cost is charged to the VM's serialized CPU before the
// bytes touch the link.
//
// Ownership / determinism: sockets are shared_ptr (the accept
// callback hands them out); each owns its read-pump coroutine and
// shares its link with the write events in flight — the one place a
// link has two owners, so a JavaSocket may die with writes pending.
// A socket without an explicit Jvm owns a private one.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "core/bytes.hpp"
#include "core/result.hpp"
#include "core/task.hpp"
#include "middleware/personality.hpp"
#include "vlink/vlink.hpp"

namespace padico::jsock {

/// JVM socket-path cost: JNI crossing + heap<->native copy per call.
middleware::CostModel jvm_costs();

/// The per-node JVM runtime personality: the serialized CPU every
/// Java socket of that node charges its costs to.
class Jvm final : public middleware::Personality {
 public:
  explicit Jvm(core::Engine& engine,
               middleware::CostModel costs = jvm_costs())
      : Personality("jvm", std::move(costs), engine) {}
};

class JavaSocket {
 public:
  /// Wrap a connected link.  `jvm` is the shared VM runtime to
  /// charge costs to; nullptr gives the socket a private one (the
  /// bench shape, one JVM per side).
  JavaSocket(std::shared_ptr<vlink::Link> link, core::Engine& engine,
             Jvm* jvm);
  JavaSocket(const JavaSocket&) = delete;
  JavaSocket& operator=(const JavaSocket&) = delete;
  ~JavaSocket();

  /// java.net.Socket#connect through the node's chooser.  Awaitable;
  /// completes with the socket or the connect error.
  static core::Completion<core::Result<std::shared_ptr<JavaSocket>>> connect(
      vlink::VLink& vlink, vlink::RemoteAddr remote, Jvm* jvm = nullptr);

  /// OutputStream#write: charges the JNI+copy cost, then pushes the
  /// bytes (copied at call time, like the JVM copying out of the
  /// heap) onto the stream.  Completes when the buffer has left the
  /// VM — the blocking-write shape.
  core::Completion<void> write(core::ByteView data);

  /// InputStream#read of exactly `n` bytes (requests served FIFO);
  /// the JNI+copy cost is charged after the bytes arrive.
  core::Completion<core::Bytes> read_n(std::size_t n);

  std::size_t available() const noexcept { return link_->available(); }
  core::NodeId remote_node() const noexcept { return link_->remote_node(); }

  std::uint64_t bytes_written() const noexcept { return bytes_written_; }
  std::uint64_t bytes_read() const noexcept { return bytes_read_; }

 private:
  struct PendingRead {
    std::size_t n;
    core::Completion<core::Bytes> out;
  };

  middleware::Personality& vm() noexcept {
    return jvm_ != nullptr ? static_cast<middleware::Personality&>(*jvm_)
                           : *owned_vm_;
  }
  core::Task pump();

  std::shared_ptr<vlink::Link> link_;
  core::Engine* engine_;
  Jvm* jvm_;
  std::unique_ptr<Jvm> owned_vm_;
  std::deque<PendingRead> reads_;
  core::Completion<void> wakeup_;
  bool pump_waiting_ = false;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t bytes_read_ = 0;
  core::Task pump_task_;
};

/// java.net.ServerSocket: accept on `port` (every network, like any
/// VLink listener), wrapping each connection for `jvm` (nullptr: each
/// accepted socket gets a private VM).
void java_server_socket(vlink::VLink& vlink, core::Port port,
                        std::function<void(std::shared_ptr<JavaSocket>)> on_accept,
                        Jvm* jvm = nullptr);

}  // namespace padico::jsock
