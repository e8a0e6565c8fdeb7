#include "adapters/vrp.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>
#include <utility>

namespace padico::vlink {

namespace vrp {

// Same GCC 12 -O2 false-positive story as vlink/wire.hpp (PR 105705):
// scope the provably in-bounds vector writes out of -Werror.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif

core::Bytes encode_header(const Header& h) {
  core::Bytes out(kHeaderSize, 0);
  std::memcpy(out.data(), &kMagic, sizeof(kMagic));
  out[4] = static_cast<std::uint8_t>(h.kind);
  out[5] = h.flags;
  std::memcpy(out.data() + 8, &h.len, sizeof(h.len));
  std::memcpy(out.data() + 12, &h.aux, sizeof(h.aux));
  std::memcpy(out.data() + 16, &h.seq, sizeof(h.seq));
  return out;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

std::optional<Header> decode_header(core::ByteView frame) {
  if (frame.size() < kHeaderSize) return std::nullopt;
  std::uint32_t magic = 0;
  std::memcpy(&magic, frame.data(), sizeof(magic));
  if (magic != kMagic) return std::nullopt;
  const std::uint8_t raw_kind = frame[4];
  if (raw_kind < static_cast<std::uint8_t>(Kind::hello) ||
      raw_kind > static_cast<std::uint8_t>(Kind::fin)) {
    return std::nullopt;
  }
  Header h;
  h.kind = static_cast<Kind>(raw_kind);
  h.flags = frame[5];
  std::memcpy(&h.len, frame.data() + 8, sizeof(h.len));
  std::memcpy(&h.aux, frame.data() + 12, sizeof(h.aux));
  std::memcpy(&h.seq, frame.data() + 16, sizeof(h.seq));
  // Senders never chunk beyond kChunkSize, never send empty data, and
  // never announce a >= 100 % loss budget — reject the impossible.
  if (h.kind == Kind::data && (h.len == 0 || h.len > kChunkSize)) {
    return std::nullopt;
  }
  if (h.kind == Kind::hello && h.len >= 1'000'000) return std::nullopt;
  return h;
}

}  // namespace vrp

namespace {

// AIMD window, in frames.  The max is sized for the transcontinental
// profile (48 * 1280 B at 1 MB/s + 100 ms one-way keeps the pipe busy
// without queue blowup); the paper's §5 shape survives a wide range.
constexpr double kInitCwnd = 12.0;
constexpr double kMinCwnd = 4.0;
constexpr double kMaxCwnd = 48.0;

// Protocol timers.  The base RTT on the profiles VRP targets is
// ~100-150 ms with serialization; the RTO backstop sits above it, the
// nack re-ask and the duplicate-repair guard just below it.
constexpr core::Duration kRto = core::milliseconds(400);
constexpr core::Duration kNackInterval = core::milliseconds(200);
constexpr core::Duration kMinRetxGap = core::milliseconds(150);
constexpr core::Duration kRttEstimate = core::milliseconds(150);

// Establishment: base connect frames and hellos are themselves lossy,
// so both re-attempt on a timer, bounded to keep failure loud.
constexpr core::Duration kConnectTimeout = core::milliseconds(1500);
constexpr core::Duration kHelloRetry = core::milliseconds(400);
constexpr int kMaxTries = 32;

std::uint32_t budget_ppm(double max_loss) {
  return static_cast<std::uint32_t>(max_loss * 1e6 + 0.5);
}

}  // namespace

// ---------------------------------------------------------------------------
// VrpLink
// ---------------------------------------------------------------------------

VrpLink::VrpLink(core::Engine& engine, core::NodeId remote_node,
                 core::Port local_port, core::Port remote_port,
                 std::unique_ptr<Link> base, double max_loss, bool acceptor)
    : Link(remote_node, local_port, remote_port),
      engine_(&engine),
      base_(std::move(base)),
      max_loss_(max_loss),
      acceptor_(acceptor),
      cwnd_(kInitCwnd) {
  obs::Registry& reg = engine.obs();
  obs_retx_ = &reg.counter("vrp.retx");
  obs_giveups_ = &reg.counter("vrp.giveups");
  obs_nacks_ = &reg.counter("vrp.nacks");
  obs_skipped_ = &reg.counter("vrp.skipped_bytes");
  trace_retx_ = engine.tracer().intern("vrp.retx");
  trace_giveup_ = engine.tracer().intern("vrp.giveup");
  base_->set_datagram_handler(
      [this](core::ByteView frame) { on_frame(frame); });
  if (acceptor_) {
    vrp::Header h;
    h.kind = vrp::Kind::hello_ack;
    emit(h);
  }
}

double VrpLink::realized_loss() const noexcept {
  // Whichever direction carried traffic contributes; a unidirectional
  // transfer reads the same number on both ends (the sender learns the
  // receiver's skip count through acks).
  const std::uint64_t resolved = cum_acked_ + expected_;
  const std::uint64_t skipped = reported_skipped_ + skipped_;
  return resolved == 0
             ? 0.0
             : static_cast<double>(skipped) / static_cast<double>(resolved);
}

void VrpLink::post_close() {
  if (fin_offset_) return;
  fin_offset_ = next_offset_;
  pump();
}

void VrpLink::send_bytes(core::ByteView data) {
  if (fin_offset_) return;  // write after close: dropped, like a shut socket
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t len = std::min(vrp::kChunkSize, data.size() - off);
    send_q_.emplace_back(next_offset_, data.subview(off, len).to_bytes());
    next_offset_ += len;
    off += len;
  }
  pump();
}

void VrpLink::emit(const vrp::Header& h, core::ByteView payload) {
  core::IoVec iov;
  iov.append(vrp::encode_header(h));
  if (!payload.empty()) iov.append_ref(payload);
  base_->post_write(iov);
}

void VrpLink::pump() {
  while (!send_q_.empty() &&
         static_cast<double>(flight_.size()) < cwnd_) {
    auto [off, payload] = std::move(send_q_.front());
    send_q_.pop_front();
    flight_.emplace(off, Flight{std::move(payload), 0});
    transmit(off);
  }
  if (fin_offset_ && send_q_.empty() && !fin_sent_) send_fin();
}

void VrpLink::transmit(std::uint64_t offset) {
  auto it = flight_.find(offset);
  assert(it != flight_.end());
  vrp::Header h;
  h.kind = vrp::Kind::data;
  h.seq = offset;
  h.len = static_cast<std::uint32_t>(it->second.payload.size());
  emit(h, core::view_of(it->second.payload));
  it->second.last_tx = engine_->now();
  arm_rto(offset);
}

void VrpLink::arm_rto(std::uint64_t offset) {
  std::weak_ptr<char> w = alive_;
  engine_->schedule_after(kRto, [this, w, offset] {
    if (w.expired()) return;
    auto it = flight_.find(offset);
    if (it == flight_.end()) return;  // resolved meanwhile
    // A newer (re)transmit of this frame armed its own timer.
    if (engine_->now() - it->second.last_tx < kRto) return;
    ++retransmissions_;
    obs_retx_->add();
    engine_->tracer().instant(obs::Cat::vlink, trace_retx_);
    cut_cwnd();
    transmit(offset);
  });
}

void VrpLink::send_fin() {
  fin_sent_ = true;
  vrp::Header h;
  h.kind = vrp::Kind::fin;
  h.seq = *fin_offset_;
  emit(h);
  arm_fin_timer();
}

void VrpLink::arm_fin_timer() {
  std::weak_ptr<char> w = alive_;
  engine_->schedule_after(kRto, [this, w] {
    if (w.expired() || fin_acked_) return;
    ++retransmissions_;
    obs_retx_->add();
    vrp::Header h;
    h.kind = vrp::Kind::fin;
    h.seq = *fin_offset_;
    emit(h);
    arm_fin_timer();
  });
}

void VrpLink::cut_cwnd() {
  // At most one multiplicative decrease per RTT: one loss *event*
  // (which may nack several frames) costs one halving, like TCP.
  const core::SimTime now = engine_->now();
  if (now - last_cut_ < kRttEstimate && last_cut_ != 0) return;
  last_cut_ = now;
  cwnd_ = std::max(kMinCwnd, cwnd_ / 2.0);
}

void VrpLink::on_frame(core::ByteView frame) {
  const std::optional<vrp::Header> h = vrp::decode_header(frame);
  if (!h) {
    ++malformed_;
    return;
  }
  const core::ByteView payload =
      frame.subview(vrp::kHeaderSize, frame.size() - vrp::kHeaderSize);
  switch (h->kind) {
    case vrp::Kind::hello:
      // The peer's hello retransmit: our hello_ack was lost; re-ack.
      if (acceptor_) {
        vrp::Header a;
        a.kind = vrp::Kind::hello_ack;
        emit(a);
      }
      return;
    case vrp::Kind::hello_ack:
      return;  // duplicate handshake confirmation
    case vrp::Kind::data:
      if (payload.size() != h->len) {
        ++malformed_;
        return;
      }
      on_data(*h, payload);
      return;
    case vrp::Kind::ack:
      on_ack(*h);
      return;
    case vrp::Kind::nack:
      on_nack(*h);
      return;
    case vrp::Kind::fin:
      on_fin(*h);
      return;
  }
}

void VrpLink::on_ack(const vrp::Header& h) {
  if (h.seq > cum_acked_) {
    cum_acked_ = h.seq;
    while (!flight_.empty()) {
      auto it = flight_.begin();
      if (it->first + it->second.payload.size() > cum_acked_) break;
      flight_.erase(it);
      cwnd_ = std::min(kMaxCwnd, cwnd_ + 1.0 / cwnd_);
    }
  }
  reported_skipped_ =
      std::max(reported_skipped_, static_cast<std::uint64_t>(h.aux));
  if ((h.flags & vrp::kFlagFinSeen) != 0 && fin_offset_) fin_acked_ = true;
  pump();
}

void VrpLink::on_nack(const vrp::Header& h) {
  const std::uint64_t end = h.seq + h.len;
  if (end <= cum_acked_) return;  // stale: already resolved
  cut_cwnd();
  const core::SimTime now = engine_->now();
  for (auto& [off, f] : flight_) {
    if (off >= end) break;
    if (off + f.payload.size() <= h.seq) continue;
    // A repair for this frame is already in flight; don't double it on
    // every re-nack.
    if (now - f.last_tx < kMinRetxGap) continue;
    ++retransmissions_;
    obs_retx_->add();
    engine_->tracer().instant(obs::Cat::vlink, trace_retx_);
    transmit(off);
  }
  pump();
}

void VrpLink::on_data(const vrp::Header& h, core::ByteView payload) {
  std::uint64_t off = h.seq;
  seen_end_ = std::max(seen_end_, off + payload.size());
  if (off + payload.size() <= expected_) {
    send_ack();  // duplicate (our ack was lost, or we skipped it): re-ack
    return;
  }
  if (off < expected_) {
    // Partially resolved frame: only the unresolved tail is news.
    const std::size_t cut = static_cast<std::size_t>(expected_ - off);
    payload = payload.subview(cut, payload.size() - cut);
    off = expected_;
  }
  ooo_.emplace(off, payload.to_bytes());  // no-op on duplicates
  resolve_gaps();
  send_ack();
}

void VrpLink::on_fin(const vrp::Header& h) {
  seen_end_ = std::max(seen_end_, h.seq);
  if (!rfin_) rfin_ = h.seq;
  resolve_gaps();
  send_ack();
}

void VrpLink::resolve_gaps() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    // Release everything now contiguous.
    while (!ooo_.empty() && ooo_.begin()->first == expected_) {
      core::Bytes chunk = std::move(ooo_.begin()->second);
      ooo_.erase(ooo_.begin());
      expected_ += chunk.size();
      deliver(core::view_of(chunk));
      progressed = true;
    }
    // The next gap: up to the earliest buffered frame, or the tail up
    // to a known fin.  The base wire never reorders, so a gap on
    // arrival is definite loss — give up NOW if the budget allows
    // (zero stall, that is VRP's entire value), else ask for repair.
    std::uint64_t gap_end = 0;
    if (!ooo_.empty()) {
      gap_end = ooo_.begin()->first;
    } else if (rfin_ && *rfin_ > expected_) {
      gap_end = *rfin_;
    } else {
      break;
    }
    const std::uint64_t gap = gap_end - expected_;
    const auto allowed = static_cast<std::uint64_t>(
        max_loss_ * static_cast<double>(seen_end_));
    if (skipped_ + gap <= allowed) {
      skipped_ += gap;
      expected_ = gap_end;
      ++give_ups_;
      obs_giveups_->add();
      obs_skipped_->add(gap);
      engine_->tracer().instant(obs::Cat::vlink, trace_giveup_);
      progressed = true;
    } else {
      maybe_nack(expected_, gap);
      break;
    }
  }
  if (rfin_ && expected_ >= *rfin_) mark_eof();
}

void VrpLink::send_ack() {
  vrp::Header a;
  a.kind = vrp::Kind::ack;
  a.seq = expected_;
  a.aux = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(skipped_, 0xffffffffull));
  if (rfin_) a.flags = vrp::kFlagFinSeen;
  emit(a);
}

void VrpLink::maybe_nack(std::uint64_t offset, std::uint64_t len) {
  const core::SimTime now = engine_->now();
  // Rate-limit re-asks for the same gap; a new gap asks immediately.
  if (offset == last_nack_off_ && now - last_nack_time_ < kNackInterval) {
    return;
  }
  last_nack_off_ = offset;
  last_nack_time_ = now;
  obs_nacks_->add();
  vrp::Header n;
  n.kind = vrp::Kind::nack;
  n.seq = offset;
  n.len = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(len, 0xffffffffull));
  emit(n);
}

// ---------------------------------------------------------------------------
// VrpDriver
// ---------------------------------------------------------------------------

VrpDriver::VrpDriver(core::Host& host, Driver& base, std::string name,
                     double max_loss)
    : AdapterDriver(host, base, std::move(name), Kind::vrp),
      max_loss_(max_loss) {
  assert(max_loss >= 0.0 && max_loss < 1.0);
}

void VrpDriver::dial(const RemoteAddr& remote, ConnectFn on_connect) {
  auto at = std::make_shared<Attempt>();
  at->fn = std::move(on_connect);
  at->remote = remote;
  start_connect(at);
}

void VrpDriver::start_connect(const std::shared_ptr<Attempt>& at) {
  ++at->connect_tries;
  std::weak_ptr<char> w = liveness();
  base().connect(
      {at->remote.node, rendezvous_port(at->remote.port)},
      [this, w, at](core::Result<std::unique_ptr<Link>> r) {
        if (w.expired() || at->done) return;
        if (at->base) return;  // late accept of an abandoned attempt
        if (!r.ok()) {
          // Refused / unreachable are definitive — no point retrying.
          at->done = true;
          at->fn(core::Result<std::unique_ptr<Link>>::err(
              r.status(), name() + ": " + r.error().message));
          return;
        }
        at->base = std::move(*r);
        at->base->set_datagram_handler(
            [this, w, at](core::ByteView frame) {
              if (w.expired() || at->done) return;
              finish_connect(at, frame);
            });
        send_hello(at);
      });
  // The base connect/accept frames are lossy and the base driver has
  // no timeout of its own: re-attempt until one round-trip survives.
  host().engine().schedule_after(kConnectTimeout, [this, w, at] {
    if (w.expired() || at->done || at->base) return;
    if (at->connect_tries >= kMaxTries) {
      at->done = true;
      at->fn(core::Result<std::unique_ptr<Link>>::err(
          core::Status::timeout,
          name() + ": connect to node " + std::to_string(at->remote.node) +
              " timed out after " + std::to_string(at->connect_tries) +
              " attempts"));
      return;
    }
    start_connect(at);
  });
}

void VrpDriver::send_hello(const std::shared_ptr<Attempt>& at) {
  ++at->hello_tries;
  vrp::Header h;
  h.kind = vrp::Kind::hello;
  h.len = budget_ppm(max_loss_);
  at->base->post_write(core::view_of(vrp::encode_header(h)));
  std::weak_ptr<char> w = liveness();
  host().engine().schedule_after(kHelloRetry, [this, w, at] {
    if (w.expired() || at->done) return;
    if (at->hello_tries >= kMaxTries) {
      at->done = true;
      at->fn(core::Result<std::unique_ptr<Link>>::err(
          core::Status::timeout, name() + ": handshake with node " +
                                     std::to_string(at->remote.node) +
                                     " timed out"));
      return;
    }
    send_hello(at);
  });
}

void VrpDriver::finish_connect(const std::shared_ptr<Attempt>& at,
                               core::ByteView first_frame) {
  const std::optional<vrp::Header> h = vrp::decode_header(first_frame);
  if (!h || h->kind == vrp::Kind::hello) {
    count_malformed_hello();
    return;  // garbage (or an impossible hello echo): keep waiting
  }
  // Any valid frame proves the acceptor exists — its hello_ack may
  // simply have been lost while data/acks got through.
  at->done = true;
  auto link = std::make_unique<VrpLink>(
      host().engine(), at->remote.node, at->base->local_port(),
      at->remote.port, std::move(at->base), max_loss_, /*acceptor=*/false);
  if (h->kind != vrp::Kind::hello_ack) link->on_frame(first_frame);
  at->fn(core::Result<std::unique_ptr<Link>>(std::move(link)));
}

bool VrpDriver::accept_hello(core::Port port, std::unique_ptr<Link>& link,
                             core::ByteView hello) {
  // The first frame on a fresh base link must be a hello; anything else
  // is corruption.
  const std::optional<vrp::Header> h = vrp::decode_header(hello);
  if (!h || h->kind != vrp::Kind::hello) return false;
  const double budget = static_cast<double>(h->len) / 1e6;
  hand_off(port, [&] {
    Link* raw = link.get();
    return std::make_unique<VrpLink>(host().engine(), raw->remote_node(), port,
                                     raw->remote_port(), std::move(link),
                                     budget, /*acceptor=*/true);
  });
  return true;
}

}  // namespace padico::vlink
