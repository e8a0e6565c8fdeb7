#include "middleware/corba/orb.hpp"

#include <utility>

#include "middleware/corba/cdr.hpp"

namespace padico::orb {

namespace {

void marshal_any(CdrOut& out, const Any& a) {
  out.put_u8(static_cast<std::uint8_t>(a.kind()));
  switch (a.kind()) {
    case Any::Kind::none:
      break;
    case Any::Kind::octets:
      out.put_octets(core::view_of(a.octets()));
      break;
    case Any::Kind::string:
      out.put_string(a.str());
      break;
    case Any::Kind::u64:
      out.put_u64(a.u64());
      break;
  }
}

/// Invalid kinds / truncation poison `in` (CdrIn::ok goes false).
Any unmarshal_any(CdrIn& in) {
  switch (static_cast<Any::Kind>(in.get_u8())) {
    case Any::Kind::none:
      return Any{};
    case Any::Kind::octets:
      return Any(in.get_octets().to_bytes());
    case Any::Kind::string:
      return Any(in.get_string());
    case Any::Kind::u64:
      return Any(in.get_u64());
    default:
      in.get_octets();  // guaranteed to fail: poison the stream
      return Any{};
  }
}

core::Bytes frame_header(std::uint32_t body_len, std::uint8_t kind,
                         std::uint32_t id) {
  core::Bytes h(9);
  std::memcpy(h.data(), &body_len, 4);
  h[4] = kind;
  std::memcpy(h.data() + 5, &id, 4);
  return h;
}

/// Everything a scheduled request send must keep alive: the arguments
/// (the zero-copy marshaler references their storage) and the
/// marshalled frame.
struct MarshalState {
  std::vector<Any> args;
  CdrOut body;

  MarshalState(bool copying, std::vector<Any> a)
      : args(std::move(a)), body(copying) {}
};

core::Completion<void> sleep_until(core::Engine& engine, core::SimTime t) {
  return core::sleep_for(engine, t > engine.now() ? t - engine.now() : 0);
}

}  // namespace

namespace profiles {

// Per-message overheads are the half-RTT budget above the raw VLink
// path (Table 1: omniORB-4 18.4 us, omniORB-3 20.3 us one-way against
// VLink's 10.2); the copying marshalers additionally pay a per-byte
// pass that caps Figure 3 (Mico ~55 MB/s, ORBacus ~63 MB/s, §5 text).
OrbProfile omniorb3() {
  return {"omniORB-3",
          {"omniORB-3", core::nanoseconds(5900), core::nanoseconds(6300), 0}};
}

OrbProfile omniorb4() {
  return {"omniORB-4",
          {"omniORB-4", core::nanoseconds(5000), core::nanoseconds(5300), 0}};
}

OrbProfile mico() {
  return {"Mico", {"Mico", core::nanoseconds(26000), core::nanoseconds(29000),
                   59'700'000}};
}

OrbProfile orbacus() {
  return {"ORBacus", {"ORBacus", core::nanoseconds(22000),
                      core::nanoseconds(24000), 68'500'000}};
}

}  // namespace profiles

Orb::Orb(core::Host& host, vlink::VLink& vlink, OrbProfile profile,
         core::Port port, std::string method)
    : Personality(profile.name, profile.costs, host.engine()),
      host_(&host),
      vlink_(&vlink),
      profile_(std::move(profile)),
      port_(port),
      method_(std::move(method)) {}

Orb::~Orb() {
  *alive_ = false;
  if (started_) vlink_->unlisten(port_);
}

void Orb::activate(const std::string& key, Method method) {
  objects_[key] = std::move(method);
}

void Orb::start() {
  if (started_) return;
  started_ = true;
  vlink_->listen(port_, [this](std::unique_ptr<vlink::Link> l) {
    server_readers_.push_back(server_loop(std::move(l)));
  });
}

ObjectRef Orb::ref_of(const std::string& key) const {
  return ObjectRef{host_->id(), port_, key};
}

void Orb::ensure_conn(core::NodeId node, core::Port port) {
  ClientConn& c = conns_[{node, port}];
  if (c.link || c.connecting) return;
  c.connecting = true;
  auto on_connect = [this, alive = alive_, node,
                     port](core::Result<std::unique_ptr<vlink::Link>> r) {
    if (!*alive) return;
    ClientConn& conn = conns_[{node, port}];
    conn.connecting = false;
    auto queued = std::move(conn.queued);
    conn.queued.clear();
    if (!r.ok()) {
      for (auto& [id, frame] : queued) fail_request(id, r.error().status);
      return;
    }
    conn.link = std::move(*r);
    conn.reader = client_loop(*conn.link);
    for (auto& [id, frame] : queued) {
      conn.link->post_write(core::view_of(frame));
    }
  };
  // An empty method routes through the node's chooser.
  if (method_.empty()) {
    vlink_->connect({node, port}, std::move(on_connect));
  } else {
    vlink_->connect(method_, {node, port}, std::move(on_connect));
  }
}

void Orb::fail_request(std::uint32_t id, core::Status status) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  core::Completion<Reply> done = std::move(it->second);
  pending_.erase(it);
  done.complete(Reply{status, {}});
}

core::Completion<Reply> Orb::invoke(const ObjectRef& ref,
                                    const std::string& method,
                                    std::vector<Any> args) {
  core::Completion<Reply> done;
  const std::uint32_t id = next_request_++;
  pending_.emplace(id, done);
  ++requests_sent_;

  auto state = std::make_shared<MarshalState>(profile_.copying(),
                                              std::move(args));
  CdrOut& body = state->body;
  body.put_string(ref.key);
  body.put_string(method);
  body.put_u32(static_cast<std::uint32_t>(state->args.size()));
  for (const Any& a : state->args) marshal_any(body, a);
  const std::size_t body_size = body.byte_size();
  body.prepend(
      frame_header(static_cast<std::uint32_t>(body_size), kRequest, id));

  // Open the connection in parallel with the marshal (real ORBs do the
  // TCP handshake under the first marshal too).
  ensure_conn(ref.node, ref.port);

  // The marshal burns this ORB's CPU; the frame reaches the wire when
  // the serialized clock says the copy/packing is done.
  const core::SimTime t = charge_send(kFrameHeader + body_size);
  engine().schedule_at(t, [this, alive = alive_, node = ref.node,
                           port = ref.port, id, state] {
    if (!*alive) return;
    ClientConn& c = conns_[{node, port}];
    if (c.link) {
      c.link->post_write(state->body.iov());
    } else if (c.connecting) {
      // Keep the frame (flattened: the connection outlives the state's
      // borrowed views) until the connect callback flushes it.
      c.queued.emplace_back(id, state->body.flatten());
    } else {
      fail_request(id, core::Status::refused);
    }
  });
  return done;
}

core::Task Orb::client_loop(vlink::Link& link) {
  for (;;) {
    core::Bytes hdr = co_await link.read_n(kFrameHeader);
    CdrIn h(core::view_of(hdr));
    const std::uint32_t len = h.get_u32();
    const std::uint8_t kind = h.get_u8();
    const std::uint32_t id = h.get_u32();
    core::Bytes body = co_await link.read_n(len);
    // Unmarshalling the reply is receive-side CPU.
    co_await sleep_until(engine(), charge_recv(kFrameHeader + len));
    if (kind != kReply) {
      ++protocol_errors_;
      continue;
    }
    CdrIn in(core::view_of(body));
    Reply reply;
    reply.status = static_cast<core::Status>(in.get_u8());
    const std::uint32_t argc = in.get_u32();
    if (argc > body.size()) {  // each result is at least one byte
      ++protocol_errors_;
      continue;
    }
    for (std::uint32_t i = 0; i < argc && in.ok(); ++i) {
      reply.results.push_back(unmarshal_any(in));
    }
    if (!in.ok()) {
      ++protocol_errors_;
      reply.status = core::Status::error;
      reply.results.clear();
    }
    auto it = pending_.find(id);
    if (it == pending_.end()) {
      ++protocol_errors_;
      continue;
    }
    core::Completion<Reply> done = std::move(it->second);
    pending_.erase(it);
    done.complete(std::move(reply));
  }
}

core::Task Orb::server_loop(std::unique_ptr<vlink::Link> link) {
  for (;;) {
    core::Bytes hdr = co_await link->read_n(kFrameHeader);
    CdrIn h(core::view_of(hdr));
    const std::uint32_t len = h.get_u32();
    const std::uint8_t kind = h.get_u8();
    const std::uint32_t id = h.get_u32();
    core::Bytes body = co_await link->read_n(len);
    // Demarshalling the request (the copying ORBs pay the byte pass
    // again here — the receive half of their Figure 3 cap).
    co_await sleep_until(engine(), charge_recv(kFrameHeader + len));
    if (kind != kRequest) {
      ++protocol_errors_;
      continue;
    }
    CdrIn in(core::view_of(body));
    const std::string key = in.get_string();
    const std::string method = in.get_string();
    const std::uint32_t argc = in.get_u32();
    std::vector<Any> args;
    if (argc <= body.size()) {  // each argument is at least one byte
      for (std::uint32_t i = 0; i < argc && in.ok(); ++i) {
        args.push_back(unmarshal_any(in));
      }
    } else {
      in.get_octets();  // poison: oversized argc is a malformed frame
    }
    Reply reply;
    if (!in.ok()) {
      ++protocol_errors_;
      reply.status = core::Status::error;
    } else {
      auto it = objects_.find(key);
      if (it == objects_.end()) {
        reply.status = core::Status::error;
      } else {
        reply.results = it->second(method, std::move(args));
        ++requests_served_;
      }
    }

    CdrOut out(profile_.copying());
    out.put_u8(static_cast<std::uint8_t>(reply.status));
    out.put_u32(static_cast<std::uint32_t>(reply.results.size()));
    for (const Any& a : reply.results) marshal_any(out, a);
    const std::size_t reply_size = out.byte_size();
    out.prepend(
        frame_header(static_cast<std::uint32_t>(reply_size), kReply, id));
    // Marshalling the reply is send-side CPU; the reply's storage
    // (`reply`, `out`) lives in this frame until the write below.
    co_await sleep_until(engine(), charge_send(kFrameHeader + reply_size));
    link->post_write(out.iov());
  }
}

}  // namespace padico::orb
