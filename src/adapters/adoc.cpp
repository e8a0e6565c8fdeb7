#include "adapters/adoc.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

namespace padico::vlink {

namespace cz = padico::compress;

namespace adoc {

// Same GCC 12 -O2 false-positive story as vlink/wire.hpp (PR 105705).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif

core::Bytes encode_header(const Header& h) {
  core::Bytes out(kHeaderSize, 0);
  std::memcpy(out.data(), &kMagic, sizeof(kMagic));
  out[4] = static_cast<std::uint8_t>(h.kind);
  out[5] = static_cast<std::uint8_t>(h.level);
  std::memcpy(out.data() + 8, &h.raw_len, sizeof(h.raw_len));
  std::memcpy(out.data() + 12, &h.enc_len, sizeof(h.enc_len));
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
      raw_kind > static_cast<std::uint8_t>(Kind::data)) {
    return std::nullopt;
  }
  if (frame[5] >= cz::kLevelCount) return std::nullopt;
  Header h;
  h.kind = static_cast<Kind>(raw_kind);
  h.level = static_cast<cz::Level>(frame[5]);
  std::memcpy(&h.raw_len, frame.data() + 8, sizeof(h.raw_len));
  std::memcpy(&h.enc_len, frame.data() + 12, sizeof(h.enc_len));
  return h;
}

}  // namespace adoc

namespace {

core::Bytes raw_encode(cz::Level level, core::ByteView payload) {
  switch (level) {
    case cz::Level::stored: return payload.to_bytes();
    case cz::Level::rle: return cz::rle_encode(payload);
    case cz::Level::lz: return cz::lz_encode(payload);
  }
  return payload.to_bytes();
}

std::optional<core::Bytes> raw_decode(cz::Level level, core::ByteView enc) {
  switch (level) {
    case cz::Level::stored: return enc.to_bytes();
    case cz::Level::rle: return cz::rle_decode(enc);
    case cz::Level::lz: return cz::lz_decode(enc);
  }
  return std::nullopt;
}

/// Prefix bytes a never-observed level trial-encodes to seed its ratio.
constexpr std::size_t kSampleBytes = 4096;

}  // namespace

// ---------------------------------------------------------------------------
// AdocLink
// ---------------------------------------------------------------------------

AdocLink::AdocLink(core::Engine& engine, core::NodeId remote_node,
                   core::Port local_port, core::Port remote_port,
                   std::unique_ptr<Link> base, simnet::Network* net,
                   core::NodeId self)
    : Link(remote_node, local_port, remote_port),
      engine_(&engine),
      base_(std::move(base)),
      net_(net),
      self_(self),
      tx_cpu_(engine),
      rx_cpu_(engine) {
  // The wire rate compression must beat: the per-stream cap when the
  // profile has one (a window-limited WAN socket), else the NIC rate.
  if (net_ != nullptr) {
    const simnet::LinkModel& m = net_->model();
    wire_bps_ = static_cast<double>(m.per_stream_bytes_per_second > 0
                                        ? m.per_stream_bytes_per_second
                                        : m.bytes_per_second);
  } else {
    wire_bps_ = 1e9;
  }
  obs::Registry& reg = engine.obs();
  obs_raw_ = &reg.counter("adoc.raw_bytes");
  obs_wire_ = &reg.counter("adoc.wire_bytes");
  obs_switches_ = &reg.counter("adoc.level_switches");
  trace_encode_ = engine.tracer().intern("adoc.encode");
  trace_decode_ = engine.tracer().intern("adoc.decode");
  base_->set_datagram_handler(
      [this](core::ByteView frame) { on_frame(frame); });
}

double AdocLink::level_ratio(cz::Level level, core::ByteView payload) const {
  if (level == cz::Level::stored) return 1.0;
  const auto idx = static_cast<std::size_t>(level);
  if (ratio_known_[idx]) return ratio_ewma_[idx];
  // Never observed: trial-encode a prefix of THIS payload (real time
  // only — the probe charges no virtual CPU, it models the adaptive
  // layer peeking at its data).
  const std::size_t n = std::min(kSampleBytes, payload.size());
  if (n == 0) return 1.0;
  const core::Bytes enc = raw_encode(level, payload.subview(0, n));
  return static_cast<double>(enc.size()) / static_cast<double>(n);
}

cz::Level AdocLink::pick(core::ByteView payload) {
  if (pinned_) return *pinned_;
  const core::SimTime now = engine_->now();
  const double backlog =
      net_ != nullptr ? static_cast<double>(net_->tx_backlog(self_)) : 0.0;
  const double cpu_queue =
      tx_cpu_.free_at() > now ? static_cast<double>(tx_cpu_.free_at() - now)
                              : 0.0;
  cz::Level best = cz::Level::stored;
  double best_est = std::numeric_limits<double>::infinity();
  for (std::uint8_t l = 0; l < cz::kLevelCount; ++l) {
    const auto level = static_cast<cz::Level>(l);
    const double ratio = level_ratio(level, payload);
    const double cpu =
        cpu_queue +
        static_cast<double>(cz::encode_cost(level, payload.size()));
    const double wire =
        static_cast<double>(payload.size()) * ratio * 1e9 / wire_bps_;
    // Pipeline view: encode overlaps whatever the NIC still has queued
    // (compressing is free while the wire is the bottleneck), then the
    // frame's own wire time is paid on top.
    const double est = std::max(cpu, backlog) + wire;
    if (est < best_est) {
      best_est = est;
      best = level;
    }
  }
  return best;
}

void AdocLink::send_bytes(core::ByteView data) {
  const cz::Level level = pick(data);
  if (have_last_ && level != last_level_) {
    ++level_switches_;
    obs_switches_->add();
  }
  last_level_ = level;
  have_last_ = true;

  core::Bytes enc = raw_encode(level, data);
  const auto idx = static_cast<std::size_t>(level);
  const double r =
      data.empty() ? 1.0
                   : static_cast<double>(enc.size()) /
                         static_cast<double>(data.size());
  ratio_ewma_[idx] = ratio_known_[idx] ? 0.75 * ratio_ewma_[idx] + 0.25 * r
                                       : r;
  ratio_known_[idx] = true;

  raw_out_ += data.size();
  enc_out_ += enc.size();
  obs_raw_->add(data.size());
  obs_wire_->add(enc.size());

  adoc::Header h;
  h.kind = adoc::Kind::data;
  h.level = level;
  h.raw_len = static_cast<std::uint32_t>(data.size());
  h.enc_len = static_cast<std::uint32_t>(enc.size());
  core::Bytes frame = adoc::encode_header(h);
  frame.insert(frame.end(), enc.begin(), enc.end());

  // Charge the encode on the serialized tx CPU; the frame reaches the
  // base link when the work completes (monotone, so frames stay FIFO).
  const core::Duration cost = cz::encode_cost(level, data.size());
  const core::SimTime done = tx_cpu_.reserve(cost);
  engine_->tracer().complete(obs::Cat::vlink, trace_encode_, done - cost,
                             cost, static_cast<std::uint32_t>(level),
                             data.size());
  std::weak_ptr<char> w = alive_;
  engine_->schedule_at(done, [this, w, frame = std::move(frame)] {
    if (w.expired()) return;
    base_->post_write(core::view_of(frame));
  });
}

void AdocLink::on_frame(core::ByteView frame) {
  const std::optional<adoc::Header> h = adoc::decode_header(frame);
  if (!h) {
    ++malformed_;
    return;
  }
  if (h->kind == adoc::Kind::hello) return;  // stray duplicate
  const core::ByteView enc =
      frame.subview(adoc::kHeaderSize, frame.size() - adoc::kHeaderSize);
  if (enc.size() != h->enc_len) {
    ++malformed_;
    return;
  }
  std::optional<core::Bytes> raw = raw_decode(h->level, enc);
  if (!raw || raw->size() != h->raw_len) {
    ++malformed_;
    return;
  }
  // Charge the decode on the serialized rx CPU; deliver when the work
  // completes (monotone, so the stream order is preserved).
  const core::Duration cost = cz::decode_cost(h->level, raw->size());
  const core::SimTime done = rx_cpu_.reserve(cost);
  engine_->tracer().complete(obs::Cat::vlink, trace_decode_, done - cost,
                             cost, static_cast<std::uint32_t>(h->level),
                             raw->size());
  std::weak_ptr<char> w = alive_;
  engine_->schedule_at(done, [this, w, raw = std::move(*raw)] {
    if (w.expired()) return;
    deliver(core::view_of(raw));
  });
}

// ---------------------------------------------------------------------------
// AdocDriver
// ---------------------------------------------------------------------------

AdocDriver::AdocDriver(core::Host& host, Driver& base, std::string name,
                       simnet::Network* net)
    : AdapterDriver(host, base, std::move(name), Kind::adoc), net_(net) {}

void AdocDriver::dial(const RemoteAddr& remote, ConnectFn on_connect) {
  std::weak_ptr<char> w = liveness();
  base().connect(
      {remote.node, rendezvous_port(remote.port)},
      [this, w, remote, fn = std::move(on_connect)](
          core::Result<std::unique_ptr<Link>> r) mutable {
        if (w.expired()) return;
        if (!r.ok()) {
          fn(core::Result<std::unique_ptr<Link>>::err(
              r.status(), name() + ": " + r.error().message));
          return;
        }
        std::unique_ptr<Link> base = std::move(*r);
        // The hello paces ahead of any user data in the base FIFO, so
        // the acceptor always sees it first.  One shot: adoc assumes a
        // reliable base (it adds no recovery of its own).
        adoc::Header hello;
        hello.kind = adoc::Kind::hello;
        base->post_write(core::view_of(adoc::encode_header(hello)));
        auto link = std::make_unique<AdocLink>(
            host().engine(), remote.node, base->local_port(), remote.port,
            std::move(base), net_, host().id());
        fn(core::Result<std::unique_ptr<Link>>(std::move(link)));
      });
}

bool AdocDriver::accept_hello(core::Port port, std::unique_ptr<Link>& link,
                              core::ByteView hello) {
  const std::optional<adoc::Header> h = adoc::decode_header(hello);
  if (!h || h->kind != adoc::Kind::hello) return false;
  hand_off(port, [&] {
    Link* raw = link.get();
    return std::make_unique<AdocLink>(host().engine(), raw->remote_node(),
                                      port, raw->remote_port(),
                                      std::move(link), net_, host().id());
  });
  return true;
}

}  // namespace padico::vlink
