#include "vlink/link.hpp"

#include <utility>

namespace padico::vlink {

void Link::post_write(const core::IoVec& iov) {
  // One wire message preserves the gather boundary end-to-end; the
  // flatten is the single copy onto the simulated wire.
  core::Bytes flat = iov.flatten();
  send_bytes(core::view_of(flat));
}

core::Completion<core::Bytes> Link::read_n(std::size_t n) {
  core::Completion<core::Bytes> c;
  if (pending_.empty() && available() >= n) {
    c.complete(take(n));
    return c;
  }
  pending_.push_back(PendingRead{n, c});
  return c;
}

void Link::deliver(core::ByteView data) {
  if (datagram_handler_) {
    // Framed mode: the adapter stacked on this link consumes whole
    // transport messages; nothing enters the stream buffer.  Invoke a
    // local copy: handshake completion swaps or clears the handler
    // from INSIDE this call (the adapter takes over the link), and
    // replacing a std::function mid-invocation would destroy its
    // captures under the running closure.
    auto handler = datagram_handler_;
    handler(data);
    return;
  }
  rx_buf_.insert(rx_buf_.end(), data.begin(), data.end());
  drain();
  if (ready_handler_) ready_handler_();
}

void Link::mark_eof() {
  if (eof_) return;
  eof_ = true;
  if (ready_handler_) ready_handler_();
}

core::Bytes Link::read_available() {
  core::Bytes out = take(available());
  if (rx_head_ == rx_buf_.size()) {
    rx_buf_.clear();
    rx_head_ = 0;
  }
  return out;
}

core::Bytes Link::take(std::size_t n) {
  core::Bytes out(rx_buf_.begin() + static_cast<std::ptrdiff_t>(rx_head_),
                  rx_buf_.begin() + static_cast<std::ptrdiff_t>(rx_head_ + n));
  rx_head_ += n;
  // Compact once the dead prefix dominates to keep reassembly O(n).
  if (rx_head_ > 4096 && rx_head_ * 2 >= rx_buf_.size()) {
    rx_buf_.erase(rx_buf_.begin(),
                  rx_buf_.begin() + static_cast<std::ptrdiff_t>(rx_head_));
    rx_head_ = 0;
  }
  return out;
}

void Link::drain() {
  while (!pending_.empty()) {
    const std::size_t want = pending_.front().n;
    if (available() < want) break;
    PendingRead req = std::move(pending_.front());
    pending_.erase(pending_.begin());
    // complete() may resume a coroutine that immediately calls read_n
    // or post_write again: pop first, so the FIFO is consistent and a
    // re-entrant read queues behind the requests still waiting.
    req.completion.complete(take(want));
  }
}

}  // namespace padico::vlink
