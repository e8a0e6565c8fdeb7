#include "middleware/javasock/jsock.hpp"

#include <utility>

namespace padico::jsock {

middleware::CostModel jvm_costs() {
  // Table 1's Java row: ~40 us one-way against VLink's 10.2 — the JVM
  // pays a hefty JNI crossing + heap copy on both ends of every call,
  // but bulk data still streams near the wire rate (the heap copy
  // runs far above the SAN's 250 MB/s).
  return {"JVM-1.4", core::nanoseconds(18000), core::nanoseconds(14000),
          500'000'000};
}

JavaSocket::JavaSocket(std::shared_ptr<vlink::Link> link,
                       core::Engine& engine, Jvm* jvm)
    : link_(std::move(link)), engine_(&engine), jvm_(jvm) {
  if (jvm_ == nullptr) owned_vm_ = std::make_unique<Jvm>(engine);
  pump_task_ = pump();
}

JavaSocket::~JavaSocket() = default;

core::Completion<core::Result<std::shared_ptr<JavaSocket>>>
JavaSocket::connect(vlink::VLink& vlink, vlink::RemoteAddr remote, Jvm* jvm) {
  core::Completion<core::Result<std::shared_ptr<JavaSocket>>> done;
  core::Engine& engine = vlink.host().engine();
  vlink.connect(remote, [done, &engine,
                         jvm](core::Result<std::unique_ptr<vlink::Link>> r) mutable {
    if (r.ok()) {
      done.complete(
          std::make_shared<JavaSocket>(std::move(*r), engine, jvm));
    } else {
      done.complete(r.error());
    }
  });
  return done;
}

core::Completion<void> JavaSocket::write(core::ByteView data) {
  // The JVM copies out of the heap at call time...
  core::Bytes copy = data.to_bytes();
  bytes_written_ += copy.size();
  // ...and the bytes reach the native socket once the JNI+copy cost
  // has burned through the VM's serialized CPU.
  const core::SimTime t = vm().charge_send(copy.size());
  core::Completion<void> done;
  engine_->schedule_at(t, [link = link_, copy = std::move(copy),
                           done]() mutable {
    link->post_write(core::view_of(copy));
    done.complete();
  });
  return done;
}

core::Completion<core::Bytes> JavaSocket::read_n(std::size_t n) {
  core::Completion<core::Bytes> done;
  reads_.push_back(PendingRead{n, done});
  if (pump_waiting_) wakeup_.complete();
  return done;
}

core::Task JavaSocket::pump() {
  for (;;) {
    while (reads_.empty()) {
      wakeup_ = core::Completion<void>();
      pump_waiting_ = true;
      co_await wakeup_;
      pump_waiting_ = false;
    }
    PendingRead req = std::move(reads_.front());
    reads_.pop_front();
    core::Bytes data = co_await link_->read_n(req.n);
    // JNI crossing + native->heap copy before the Java caller wakes.
    const core::SimTime t = vm().charge_recv(data.size());
    if (t > engine_->now()) {
      co_await core::sleep_for(*engine_, t - engine_->now());
    }
    bytes_read_ += data.size();
    req.out.complete(std::move(data));
  }
}

void java_server_socket(
    vlink::VLink& vlink, core::Port port,
    std::function<void(std::shared_ptr<JavaSocket>)> on_accept, Jvm* jvm) {
  core::Engine& engine = vlink.host().engine();
  vlink.listen(port, [on_accept = std::move(on_accept), &engine,
                      jvm](std::unique_ptr<vlink::Link> l) {
    on_accept(std::make_shared<JavaSocket>(std::move(l), engine, jvm));
  });
}

}  // namespace padico::jsock
