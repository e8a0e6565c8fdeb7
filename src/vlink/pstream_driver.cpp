#include "vlink/pstream_driver.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>
#include <utility>

namespace padico::vlink {

namespace pstream {

// Same GCC 12 -O2 false-positive story as vlink/wire.hpp (PR 105705):
// scope the provably in-bounds vector writes out of -Werror.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif

core::Bytes encode_sub(const SubHeader& h) {
  core::Bytes out(kSubHeaderSize, 0);
  std::memcpy(out.data(), &kMagic, sizeof(kMagic));
  out[4] = static_cast<std::uint8_t>(h.kind);
  out[5] = h.index;
  std::memcpy(out.data() + 6, &h.width, sizeof(h.width));
  std::memcpy(out.data() + 8, &h.port, sizeof(h.port));
  std::memcpy(out.data() + 12, &h.len, sizeof(h.len));
  std::memcpy(out.data() + 16, &h.id, sizeof(h.id));
  return out;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

std::optional<SubHeader> decode_sub(core::ByteView frame) {
  if (frame.size() < kSubHeaderSize) return std::nullopt;
  std::uint32_t magic = 0;
  std::memcpy(&magic, frame.data(), sizeof(magic));
  if (magic != kMagic) return std::nullopt;
  const std::uint8_t raw_kind = frame[4];
  if (raw_kind < static_cast<std::uint8_t>(SubKind::hello) ||
      raw_kind > static_cast<std::uint8_t>(SubKind::data)) {
    return std::nullopt;
  }
  SubHeader h;
  h.kind = static_cast<SubKind>(raw_kind);
  h.index = frame[5];
  std::memcpy(&h.width, frame.data() + 6, sizeof(h.width));
  std::memcpy(&h.port, frame.data() + 8, sizeof(h.port));
  std::memcpy(&h.len, frame.data() + 12, sizeof(h.len));
  std::memcpy(&h.id, frame.data() + 16, sizeof(h.id));
  // Senders never stripe chunks beyond kChunkSize; a bigger data
  // length is corruption and must poison, not swallow sibling frames.
  if (h.kind == SubKind::data && h.len > kChunkSize) return std::nullopt;
  return h;
}

}  // namespace pstream

// ---------------------------------------------------------------------------
// PstreamLink
// ---------------------------------------------------------------------------

PstreamLink::PstreamLink(core::Engine& engine, core::NodeId remote_node,
                         core::Port local_port, core::Port remote_port,
                         std::vector<std::unique_ptr<Link>> subs)
    : Link(remote_node, local_port, remote_port), engine_(&engine) {
  assert(!subs.empty() && "pstream link needs at least one sub-link");
  obs::Registry& reg = engine.obs();
  obs_chunks_ = &reg.counter("pstream.chunks");
  obs_chunk_bytes_ = &reg.histogram("pstream.chunk_bytes");
  subs_.reserve(subs.size());
  for (auto& s : subs) {
    Sub sub;
    sub.link = std::move(s);
    // Striping balance: one tx-bytes counter per sub-link slot (slots
    // are shared across links of a node, which is the useful view).
    sub.obs_tx = &reg.counter("pstream.sub." + std::to_string(subs_.size()) +
                              ".tx_bytes");
    subs_.push_back(std::move(sub));
  }
  // Readers start only once subs_ is complete: a sub-link may already
  // hold buffered chunks (they queued behind the hello), and releasing
  // them can touch any slot of the reorder path.
  for (std::size_t i = 0; i < subs_.size(); ++i) {
    subs_[i].reader = run_reader(i);
  }
}

void PstreamLink::send_bytes(core::ByteView data) {
  if (data.empty()) return;  // no stream bytes, nothing to stripe
  obs::Scope scope(engine_->tracer(), obs::Cat::vlink, "pstream.stripe");
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t len = std::min(pstream::kChunkSize, data.size() - off);
    pstream::SubHeader h;
    h.kind = pstream::SubKind::data;
    h.len = static_cast<std::uint32_t>(len);
    h.id = next_send_seq_;
    Sub& s = subs_[next_send_seq_ % subs_.size()];
    core::IoVec iov;
    iov.append(pstream::encode_sub(h));
    iov.append_ref(data.subview(off, len));
    s.link->post_write(iov);
    s.tx_bytes += len;
    s.obs_tx->add(len);
    obs_chunks_->add();
    obs_chunk_bytes_->record(len);
    ++next_send_seq_;
    off += len;
  }
}

core::Task PstreamLink::run_reader(std::size_t i) {
  Sub& s = subs_[i];  // stable: subs_ never resizes after construction
  for (;;) {
    core::Bytes raw = co_await s.link->read_n(pstream::kSubHeaderSize);
    const std::optional<pstream::SubHeader> h =
        pstream::decode_sub(core::view_of(raw));
    // A sequence below the release point or already queued is a
    // duplicate — corruption, like a parse failure.  A byte stream
    // cannot resync after garbage, so the sub-link is done for; chunks
    // already sequenced keep flowing from the healthy siblings.
    if (!h || h->kind != pstream::SubKind::data || h->len == 0 ||
        h->id < next_deliver_seq_ || reorder_.count(h->id) != 0) {
      ++malformed_;
      s.poisoned = true;
      co_return;
    }
    core::Bytes chunk = co_await s.link->read_n(h->len);
    s.rx_bytes += chunk.size();
    reorder_.emplace(h->id, std::move(chunk));
    // Release everything now contiguous, strictly in sequence order.
    for (;;) {
      auto it = reorder_.find(next_deliver_seq_);
      if (it == reorder_.end()) break;
      core::Bytes ready = std::move(it->second);
      reorder_.erase(it);
      ++next_deliver_seq_;
      deliver(core::view_of(ready));
    }
  }
}

// ---------------------------------------------------------------------------
// PstreamDriver
// ---------------------------------------------------------------------------

PstreamDriver::PstreamDriver(core::Host& host, Driver& base, std::string name,
                             int width)
    : AdapterDriver(host, base, std::move(name), Kind::pstream),
      width_(width) {
  assert(width >= 1 && width <= 255 && "hello index is one byte");
}

void PstreamDriver::dial(const RemoteAddr& remote, ConnectFn on_connect) {
  // Group ids are globally unique: origin node in the high bits (two
  // connectors must never collide at one acceptor), counter below.
  const std::uint64_t group =
      (static_cast<std::uint64_t>(host().id()) << 40) | next_group_++;

  struct Pending {
    ConnectFn fn;
    std::vector<std::unique_ptr<Link>> subs;
    int connected = 0;
    bool failed = false;
  };
  auto pc = std::make_shared<Pending>();
  pc->fn = std::move(on_connect);
  pc->subs.resize(static_cast<std::size_t>(width_));

  for (int i = 0; i < width_; ++i) {
    base().connect(
        {remote.node, rendezvous_port(remote.port)},
        [this, pc, i, group, remote](core::Result<std::unique_ptr<Link>> r) {
          if (pc->failed) return;  // a sibling already reported the error
          if (!r.ok()) {
            pc->failed = true;
            pc->subs.clear();  // abandon already-established sub-links
            pc->fn(core::Result<std::unique_ptr<Link>>::err(
                r.status(), name() + ": sub-link " + std::to_string(i) +
                                ": " + r.error().message));
            return;
          }
          std::unique_ptr<Link> sub = std::move(*r);
          // The hello paces ahead of any user data in this sub-link's
          // FIFO byte stream, so the acceptor always sees it first.
          pstream::SubHeader hello;
          hello.kind = pstream::SubKind::hello;
          hello.index = static_cast<std::uint8_t>(i);
          hello.width = static_cast<std::uint16_t>(width_);
          hello.port = remote.port;
          hello.id = group;
          sub->post_write(core::view_of(pstream::encode_sub(hello)));
          pc->subs[static_cast<std::size_t>(i)] = std::move(sub);
          if (++pc->connected == width_) {
            auto link = std::make_unique<PstreamLink>(
                host().engine(), remote.node, pc->subs.front()->local_port(),
                remote.port, std::move(pc->subs));
            pc->fn(core::Result<std::unique_ptr<Link>>(std::move(link)));
          }
        });
  }
}

bool PstreamDriver::accept_hello(core::Port port, std::unique_ptr<Link>& sub,
                                 core::ByteView hello) {
  const std::optional<pstream::SubHeader> h = pstream::decode_sub(hello);
  // Width is bounded by the one-byte index field; a wider claim can
  // never complete and would strand its group, so it is garbage (as is
  // width 0: no index fits).
  if (hello.size() != pstream::kSubHeaderSize || !h ||
      h->kind != pstream::SubKind::hello || h->width > 255 ||
      h->index >= h->width || h->port != port) {
    return false;
  }
  PendingGroup& g = groups_[h->id];
  if (g.slots.empty()) {
    g.port = port;
    g.slots.resize(h->width);
  }
  if (g.slots.size() != h->width || g.port != port ||
      g.slots[h->index] != nullptr) {
    return false;  // inconsistent sibling; drop this sub-link only
  }
  g.slots[h->index] = std::move(sub);
  if (++g.filled < g.slots.size()) return true;
  std::vector<std::unique_ptr<Link>> slots = std::move(g.slots);
  groups_.erase(h->id);
  hand_off(port, [&] {
    Link* first = slots.front().get();
    return std::make_unique<PstreamLink>(host().engine(), first->remote_node(),
                                         port, first->remote_port(),
                                         std::move(slots));
  });
  return true;
}

}  // namespace padico::vlink
