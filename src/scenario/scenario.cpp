#include "scenario/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "core/result.hpp"
#include "obs/category.hpp"
#include "vlink/link.hpp"

namespace padico::scenario {

namespace {

/// Per-flavor cost model + wire envelope (bytes added to every
/// request/reply).  VIO is the zero-overhead baseline; the Java-socket
/// flavor pays the JNI/serialization crossings of Table 1; SOAP pays
/// XML marshalling CPU and a fat envelope on the wire.
struct FlavorProfile {
  middleware::CostModel cost;
  std::uint32_t envelope;
};

FlavorProfile flavor_profile(Flavor f) {
  switch (f) {
    case Flavor::jsock:
      return {{"jsock", core::microseconds(4), core::microseconds(4),
               1ull << 30},
              16};
    case Flavor::soap:
      return {{"soap", core::microseconds(20), core::microseconds(20),
               200ull << 20},
              256};
    case Flavor::vio:
      break;
  }
  return {{"vio", 0, 0, 0}, 0};
}

}  // namespace

// ---------------------------------------------------------------------------
// Live per-session / per-connection state
// ---------------------------------------------------------------------------

struct Scenario::Session {
  core::NodeId client = 0;
  core::NodeId server = 0;
  std::uint32_t key = 0;
  std::uint32_t done = 0;     // completed round trips
  std::uint32_t rx_need = 0;  // reply bytes still missing
  bool counted = false;       // already tallied closed/failed
  bool live = false;          // IdTable occupancy
  std::unique_ptr<vlink::Link> link;
};

struct Scenario::ServerConn {
  core::NodeId server = 0;
  std::uint32_t need = 0;  // request bytes still missing
  std::uint8_t flag = 0;   // final-request marker of the request in flight
  bool retiring = false;
  bool live = false;  // IdTable occupancy
  std::unique_ptr<vlink::Link> link;
};

// ---------------------------------------------------------------------------
// Construction: topology
// ---------------------------------------------------------------------------

Scenario::Scenario(ScenarioSpec spec) : spec_(std::move(spec)) {
  spec_.validate();

  const FlavorProfile fp = flavor_profile(spec_.workload.flavor);
  cost_ = fp.cost;
  envelope_ = fp.envelope;
  request_wire_ = spec_.workload.request_bytes + envelope_;
  reply_wire_ = spec_.workload.reply_bytes + envelope_;
  request_scratch_.assign(request_wire_, 0x5a);
  reply_scratch_.assign(reply_wire_, 0xa5);

  // Independent seeded streams derived from the one spec seed.
  core::Rng seeder(spec_.seed);
  arrivals_ =
      std::make_unique<ArrivalProcess>(spec_.workload, seeder.next_u64());
  place_rng_.reseed(seeder.next_u64());
  churn_rng_.reseed(seeder.next_u64());
  keys_ = std::make_unique<ZipfPicker>(spec_.workload.keys,
                                       spec_.workload.key_skew);

  // Topology: every node on its cluster's private network AND the WAN
  // backbone (cluster attachment first, so it is the preferred path).
  std::size_t total = 0;
  for (const ClusterSpec& c : spec_.clusters) total += c.nodes;
  grid_.add_nodes(total);
  wan_net_ = grid_.add_network(spec_.wan);
  core::NodeId next = 0;
  for (std::size_t ci = 0; ci < spec_.clusters.size(); ++ci) {
    const ClusterSpec& c = spec_.clusters[ci];
    const simnet::NetId net = grid_.add_network(c.profile);
    cluster_nets_.push_back(net);
    for (std::uint32_t j = 0; j < c.nodes; ++j, ++next) {
      grid_.attach(net, next);
      grid_.attach(wan_net_, next);
      if (j < c.servers) {
        servers_.push_back(next);
      } else {
        clients_.emplace_back(next, static_cast<std::uint32_t>(ci));
      }
    }
  }
  grid_.build();

  obs::Registry& reg = grid_.engine().obs();
  sessions_rate_ = &reg.rate("scenario.sessions");
  bytes_rate_ = &reg.rate("scenario.bytes");
  obs_failed_ = &reg.counter("scenario.failed");
  obs_churn_ = &reg.counter("scenario.churn");

  for (const core::NodeId s : servers_) {
    grid_.node(s).vlink().listen(kServerPort,
                                 [this, s](std::unique_ptr<vlink::Link> l) {
                                   on_accept(s, std::move(l));
                                 });
  }
}

Scenario::~Scenario() = default;

// ---------------------------------------------------------------------------
// Digest
// ---------------------------------------------------------------------------

void Scenario::fold(std::uint64_t v) noexcept {
  // FNV-1a over the value's little-endian bytes.
  for (int i = 0; i < 8; ++i) {
    digest_ ^= (v >> (8 * i)) & 0xff;
    digest_ *= 0x100000001b3ull;
  }
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

void Scenario::open_next() {
  const std::uint64_t id = opened_++;
  open_session(id);
  if (opened_ < spec_.workload.sessions) {
    grid_.engine().schedule_after(arrivals_->next_gap(),
                                  [this] { open_next(); });
  }
}

void Scenario::open_session(std::uint64_t id) {
  if (clients_.empty()) {
    // Churn removed every client; the session can't even place.
    ++failed_;
    obs_failed_->add();
    fold(0x2full);
    fold(id);
    fold(grid_.engine().now());
    return;
  }
  const std::size_t pick = static_cast<std::size_t>(
      place_rng_.uniform_int(0, clients_.size() - 1));
  const core::NodeId client = clients_[pick].first;
  const std::uint32_t key = keys_->pick(place_rng_);
  const core::NodeId server = servers_[key % servers_.size()];

  Session& s = sessions_.add(id);
  s.client = client;
  s.server = server;
  s.key = key;
  s.rx_need = reply_wire_;
  grid_.engine().tracer().instant(obs::Cat::scenario, "session.open", client);

  grid_.node(client).vlink().connect(
      {server, kServerPort},
      [this, id](core::Result<std::unique_ptr<vlink::Link>> r) {
        Session* s = sessions_.find(id);
        if (s == nullptr || s->counted) {
          if (r.ok()) {
            // Session already settled; tear the stray link down from
            // outside the delivery chain.
            grid_.engine().post([l = std::move(*r)] {});
          }
          return;
        }
        if (!r.ok()) {
          fail_session(id, "session.fail.connect");
          return;
        }
        s->link = std::move(*r);
        s->link->set_ready_handler([this, id] { on_client_ready(id); });
        send_request(id);
      });
}

void Scenario::send_request(std::uint64_t id) {
  const Session& s = *sessions_.find(id);
  const bool fin = s.done + 1 == spec_.workload.requests_per_session;
  after_cpu(s.client, cost_.send_cost(request_wire_), [this, id, fin] {
    Session* s2 = sessions_.find(id);
    if (s2 == nullptr || s2->counted) return;
    request_scratch_[0] = fin ? 1 : 0;
    s2->link->post_write(core::view_of(request_scratch_));
    payload_tx_ += request_wire_;
    bytes_rate_->add(request_wire_);
  });
}

void Scenario::on_client_ready(std::uint64_t id) {
  Session* s = sessions_.find(id);
  if (s == nullptr || s->counted) return;
  const core::Bytes got = s->link->read_available();
  if (got.empty()) return;
  payload_rx_ += got.size();
  bytes_rate_->add(got.size());
  if (got.size() < s->rx_need) {
    s->rx_need -= static_cast<std::uint32_t>(got.size());
    return;
  }
  // Full reply in (a session never pipelines, so no overshoot).
  s->rx_need = 0;
  after_cpu(s->client, cost_.recv_cost(reply_wire_), [this, id] {
    Session* s2 = sessions_.find(id);
    if (s2 == nullptr || s2->counted) return;
    ++s2->done;
    if (s2->done < spec_.workload.requests_per_session) {
      s2->rx_need = reply_wire_;
      send_request(id);
    } else {
      complete_session(id);
    }
  });
}

void Scenario::complete_session(std::uint64_t id) {
  Session& s = *sessions_.find(id);
  s.counted = true;
  ++closed_;
  sessions_rate_->add();
  fold(0x0c);
  fold(id);
  fold(s.client);
  fold(s.server);
  fold(s.key);
  fold(s.done);
  fold(grid_.engine().now());
  grid_.engine().tracer().instant(obs::Cat::scenario, "session.close",
                                  s.client);
  retire_session(id);
}

void Scenario::fail_session(std::uint64_t id, const char* why) {
  Session* found = sessions_.find(id);
  if (found == nullptr || found->counted) return;
  Session& s = *found;
  s.counted = true;
  ++failed_;
  obs_failed_->add();
  fold(0x0f);
  fold(id);
  fold(s.client);
  fold(s.server);
  fold(s.key);
  fold(grid_.engine().now());
  grid_.engine().tracer().instant(obs::Cat::scenario, why, s.client);
  retire_session(id);
}

void Scenario::retire_session(std::uint64_t id) {
  // The path that got us here usually runs inside the session link's
  // own delivery; destruction must happen from a fresh engine event.
  grid_.engine().post([this, id] { sessions_.erase(id); });
}

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

void Scenario::on_accept(core::NodeId server,
                         std::unique_ptr<vlink::Link> link) {
  const std::uint64_t cid = conn_seq_++;
  ServerConn& c = conns_.add(cid);
  c.server = server;
  c.need = request_wire_;
  c.link = std::move(link);
  c.link->set_ready_handler([this, cid] { on_server_ready(cid); });
  if (c.link->available() > 0) on_server_ready(cid);
}

void Scenario::on_server_ready(std::uint64_t conn_id) {
  ServerConn* c = conns_.find(conn_id);
  if (c == nullptr || c->retiring) return;
  const core::Bytes got = c->link->read_available();
  std::size_t off = 0;
  while (off < got.size()) {
    if (c->need == request_wire_) c->flag = got[off];
    const std::size_t take =
        std::min<std::size_t>(got.size() - off, c->need);
    c->need -= static_cast<std::uint32_t>(take);
    off += take;
    if (c->need == 0) {
      c->need = request_wire_;
      send_reply(conn_id, c->flag != 0);
      // The reply may have run inline; look the entry up afresh.
      c = conns_.find(conn_id);
      if (c == nullptr || c->retiring) break;
    }
  }
}

void Scenario::send_reply(std::uint64_t conn_id, bool final_request) {
  ServerConn& c = *conns_.find(conn_id);
  if (final_request) c.retiring = true;
  const core::Duration cost =
      cost_.recv_cost(request_wire_) + cost_.send_cost(reply_wire_);
  after_cpu(c.server, cost, [this, conn_id, final_request] {
    ServerConn* c2 = conns_.find(conn_id);
    if (c2 == nullptr) return;
    c2->link->post_write(core::view_of(reply_scratch_));
    if (final_request) {
      // Same deferred-destruction rule as the client side.
      grid_.engine().post([this, conn_id] { conns_.erase(conn_id); });
    }
  });
}

// ---------------------------------------------------------------------------
// Churn
// ---------------------------------------------------------------------------

void Scenario::apply_churn(const ChurnEvent& ev) {
  core::Engine& eng = grid_.engine();
  switch (ev.kind) {
    case ChurnKind::node_join: {
      const core::NodeId id = grid_.add_node_live();
      grid_.attach_live(cluster_nets_[ev.cluster], id);
      grid_.attach_live(wan_net_, id);
      clients_.emplace_back(id, ev.cluster);
      ++churn_applied_;
      obs_churn_->add();
      fold(0x10);
      fold(id);
      fold(eng.now());
      eng.tracer().instant(obs::Cat::scenario, "churn.join", id);
      return;
    }
    case ChurnKind::node_leave: {
      std::vector<std::size_t> cand;
      for (std::size_t i = 0; i < clients_.size(); ++i) {
        if (clients_[i].second == ev.cluster && grid_.alive(clients_[i].first))
          cand.push_back(i);
      }
      if (cand.empty()) {
        // Nothing left to remove; the skip is part of the digest too.
        fold(0x11);
        fold(0xffffffffull);
        fold(eng.now());
        return;
      }
      const std::size_t pick = cand[static_cast<std::size_t>(
          churn_rng_.uniform_int(0, cand.size() - 1))];
      const core::NodeId victim = clients_[pick].first;
      grid_.remove_node_live(victim);
      clients_.erase(clients_.begin() + static_cast<std::ptrdiff_t>(pick));
      ++churn_applied_;
      obs_churn_->add();
      fold(0x11);
      fold(victim);
      fold(eng.now());
      eng.tracer().instant(obs::Cat::scenario, "churn.leave", victim);
      return;
    }
    case ChurnKind::link_flap: {
      simnet::Network& net = grid_.fabric().network(cluster_nets_[ev.cluster]);
      net.set_up(false);
      eng.schedule_after(ev.duration, [&net] { net.set_up(true); });
      ++churn_applied_;
      obs_churn_->add();
      fold(0x12);
      fold(ev.cluster);
      fold(eng.now());
      eng.tracer().instant(obs::Cat::scenario, "churn.flap", ev.cluster);
      return;
    }
    case ChurnKind::loss_burst: {
      simnet::Network& net = grid_.fabric().network(cluster_nets_[ev.cluster]);
      simnet::LinkModel saved = net.model();
      simnet::LinkModel burst = saved;
      burst.loss_rate = ev.magnitude;
      net.set_model(std::move(burst));
      eng.schedule_after(ev.duration,
                         [&net, saved] { net.set_model(saved); });
      ++churn_applied_;
      obs_churn_->add();
      fold(0x13);
      fold(ev.cluster);
      fold(eng.now());
      eng.tracer().instant(obs::Cat::scenario, "churn.loss", ev.cluster);
      return;
    }
    case ChurnKind::wan_brownout: {
      simnet::Network& net = grid_.fabric().network(wan_net_);
      simnet::LinkModel saved = net.model();
      simnet::LinkModel dim = saved;
      dim.bytes_per_second = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 static_cast<double>(saved.bytes_per_second) * ev.magnitude));
      net.set_model(std::move(dim));
      eng.schedule_after(ev.duration,
                         [&net, saved] { net.set_model(saved); });
      ++churn_applied_;
      obs_churn_->add();
      fold(0x14);
      fold(eng.now());
      eng.tracer().instant(obs::Cat::scenario, "churn.brownout", 0);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Virtual CPU
// ---------------------------------------------------------------------------

core::SimTime Scenario::cpu_reserve(core::NodeId node, core::Duration cost) {
  if (node >= cpu_free_.size()) cpu_free_.resize(node + 1, 0);
  core::SimTime& free_at = cpu_free_[node];
  const core::SimTime start = std::max(grid_.engine().now(), free_at);
  free_at = start + cost;
  return free_at;
}

void Scenario::after_cpu(core::NodeId node, core::Duration cost,
                         core::EventFn fn) {
  if (cost == 0) {
    fn();
    return;
  }
  grid_.engine().schedule_at(cpu_reserve(node, cost), std::move(fn));
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

Report Scenario::run() {
  if (ran_) throw std::logic_error("Scenario::run: single-shot; rebuild");
  ran_ = true;
  core::Engine& eng = grid_.engine();
  const std::uint64_t events_before = eng.processed();

  for (const ChurnEvent& ev : spec_.churn) {
    eng.schedule_at(ev.at, [this, ev] { apply_churn(ev); });
  }
  if (spec_.workload.sessions > 0) {
    eng.schedule_after(arrivals_->next_gap(), [this] { open_next(); });
  }
  eng.run_until_idle();

  // Sweep: sessions still tracked hung on churn or loss (their reply
  // will never come) — they count failed, keeping the invariant
  // opened == closed + failed.
  sessions_.for_each([this](std::uint64_t id, Session& s) {
    if (s.counted) return;
    s.counted = true;
    ++failed_;
    obs_failed_->add();
    fold(0x5eull);
    fold(id);
  });
  sessions_.clear();
  conns_.clear();

  fold(opened_);
  fold(closed_);
  fold(failed_);
  fold(payload_tx_);
  fold(payload_rx_);
  fold(churn_applied_);
  fold(eng.now());
  fold(eng.processed());

  Report r;
  r.opened = opened_;
  r.closed = closed_;
  r.failed = failed_;
  r.payload_tx_bytes = payload_tx_;
  r.payload_rx_bytes = payload_rx_;
  r.churn_applied = churn_applied_;
  r.events = eng.processed() - events_before;
  r.duration = eng.now();
  const double secs = core::to_seconds(r.duration);
  if (secs > 0.0) {
    r.events_per_vsec = static_cast<double>(r.events) / secs;
    r.bytes_per_vsec = static_cast<double>(payload_tx_ + payload_rx_) / secs;
    r.sessions_per_vsec = static_cast<double>(closed_) / secs;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest_));
  r.digest = hex;
  eng.obs().rate("scenario.events").add(r.events);
  r.registry = eng.obs().snapshot();
  return r;
}

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

ScenarioSpec small_world(std::uint32_t clusters,
                         std::uint32_t nodes_per_cluster,
                         std::uint64_t sessions, double rate_per_sec,
                         std::uint64_t seed) {
  ScenarioSpec s;
  s.name = "small-world";
  s.seed = seed;
  s.clusters.assign(clusters,
                    ClusterSpec{nodes_per_cluster, 1,
                                simnet::profiles::ethernet100()});
  s.workload.sessions = sessions;
  s.workload.rate_per_sec = rate_per_sec;
  return s;
}

}  // namespace padico::scenario
