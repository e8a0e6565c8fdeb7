// The adapter layer: padico::compress codecs, the VRP loss-tolerant
// retransmit/give-up FSM, the AdOC adaptive compression controller, and
// the rendezvous contract all three adapters (pstream, vrp, adoc) share
// through vlink::AdapterDriver — all driven end-to-end through
// Grid-built topologies on the deterministic engine, so every loss
// pattern and every controller decision is reproducible.
#include "adapters/adoc.hpp"
#include "adapters/vrp.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "compress/lz.hpp"
#include "core/core.hpp"
#include "grid/grid.hpp"
#include "simnet/simnet.hpp"
#include "vlink/frame_driver.hpp"
#include "vlink/pstream_driver.hpp"

namespace pc = padico::core;
namespace sn = padico::simnet;
namespace gr = padico::grid;
namespace vl = padico::vlink;
namespace cz = padico::compress;

namespace {

pc::Bytes text_payload(std::size_t n) {
  pc::Bytes b;
  const std::string w = "deterministic grid middleware state vector dump ";
  while (b.size() < n) b.insert(b.end(), w.begin(), w.end());
  b.resize(n);
  return b;
}

pc::Bytes random_payload(std::size_t n, std::uint64_t seed = 7) {
  pc::Rng rng(seed);
  pc::Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
  return b;
}

pc::Bytes pattern_payload(std::size_t n) {
  pc::Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(i * 131 + (i >> 8));
  }
  return b;
}

struct Pair {
  gr::Grid grid;
  std::unique_ptr<vl::Link> a, b;

  Pair(const sn::LinkModel& model, double max_loss) {
    grid.add_nodes(2);
    sn::NetId net = grid.add_network(model);
    grid.attach(net, 0);
    grid.attach(net, 1);
    gr::BuildOptions opts;
    opts.vrp.max_loss = max_loss;
    grid.build(opts);
  }

  void connect(const std::string& method, pc::Port port) {
    ASSERT_NE(grid.node(1).vlink().driver(method), nullptr) << method;
    grid.node(1).vlink().driver(method)->listen(
        port, [this](std::unique_ptr<vl::Link> l) { b = std::move(l); });
    grid.node(0).vlink().connect(
        method, {1, port}, [this](pc::Result<std::unique_ptr<vl::Link>> r) {
          ASSERT_TRUE(r.ok()) << r.error().message;
          a = std::move(*r);
        });
    grid.engine().run_while_pending([this] { return a && b; });
    ASSERT_TRUE(a);
    ASSERT_TRUE(b);
  }
};

/// Stream-transfer `payload` a -> b with close, collecting whatever
/// the receiver resolves until eof.
pc::Bytes transfer(Pair& p, const pc::Bytes& payload) {
  pc::Bytes got;
  bool eof = false;
  p.b->set_ready_handler([&] {
    pc::Bytes chunk = p.b->read_available();
    got.insert(got.end(), chunk.begin(), chunk.end());
    if (p.b->eof_seen()) eof = true;
  });
  p.a->post_write(pc::view_of(payload));
  p.a->post_close();
  p.grid.engine().run_while_pending([&] { return eof; });
  p.grid.engine().run_until_idle();
  EXPECT_TRUE(eof) << "transfer never resolved to eof";
  return got;
}

}  // namespace

// ---------------------------------------------------------------------------
// padico::compress
// ---------------------------------------------------------------------------

TEST(Compress, RleAndLzRoundTripAllShapes) {
  for (const pc::Bytes& data :
       {pc::Bytes{}, pc::Bytes(1, 0x42), pc::Bytes(4096, 0),
        text_payload(10000), random_payload(10000), pattern_payload(257)}) {
    const pc::Bytes rle = cz::rle_encode(pc::view_of(data));
    auto rle_back = cz::rle_decode(pc::view_of(rle));
    ASSERT_TRUE(rle_back.has_value());
    EXPECT_EQ(*rle_back, data);
    const pc::Bytes lz = cz::lz_encode(pc::view_of(data));
    auto lz_back = cz::lz_decode(pc::view_of(lz));
    ASSERT_TRUE(lz_back.has_value());
    EXPECT_EQ(*lz_back, data);
  }
}

TEST(Compress, FramedRoundTripAllLevels) {
  const pc::Bytes data = text_payload(20000);
  for (std::uint8_t l = 0; l < cz::kLevelCount; ++l) {
    const auto level = static_cast<cz::Level>(l);
    const pc::Bytes frame = cz::compress(pc::view_of(data), level);
    ASSERT_GE(frame.size(), cz::kFrameHeaderBytes);
    EXPECT_EQ(frame[0], l);
    auto back = cz::decompress(pc::view_of(frame));
    ASSERT_TRUE(back.has_value()) << cz::level_name(level);
    EXPECT_EQ(*back, data);
  }
  // Compressible text must actually compress under rle and lz.
  EXPECT_LT(cz::compress(pc::view_of(data), cz::Level::lz).size(),
            data.size());
}

TEST(Compress, GarbageAndTruncationAreRejected) {
  const pc::Bytes frame = cz::compress(pc::view_of(text_payload(500)),
                                       cz::Level::lz);
  for (std::size_t n : {std::size_t{0}, std::size_t{3},
                        cz::kFrameHeaderBytes - 1, frame.size() - 1}) {
    EXPECT_FALSE(
        cz::decompress(pc::ByteView(frame.data(), n)).has_value())
        << "length " << n;
  }
  pc::Bytes bad_level = frame;
  bad_level[0] = 99;
  EXPECT_FALSE(cz::decompress(pc::view_of(bad_level)).has_value());
  // Fuzzed LZ streams must decode to nullopt or valid bytes, never
  // crash or read out of bounds (ASan-checked in CI).
  pc::Rng rng(0xfeedf00d);
  for (int i = 0; i < 2000; ++i) {
    pc::Bytes junk(rng.uniform_int(0, 96), 0);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    (void)cz::lz_decode(pc::view_of(junk));
    (void)cz::rle_decode(pc::view_of(junk));
    (void)cz::decompress(pc::view_of(junk));
  }
}

TEST(Compress, CostModelOrdersLevelsByCpuWork) {
  const std::size_t n = 1 << 20;
  EXPECT_LT(cz::encode_cost(cz::Level::stored, n),
            cz::encode_cost(cz::Level::rle, n));
  EXPECT_LT(cz::encode_cost(cz::Level::rle, n),
            cz::encode_cost(cz::Level::lz, n));
  // Decoding is cheaper than encoding for the real codecs.
  EXPECT_LT(cz::decode_cost(cz::Level::lz, n),
            cz::encode_cost(cz::Level::lz, n));
  EXPECT_GT(cz::encode_cost(cz::Level::stored, 0), pc::Duration{0});
}

// ---------------------------------------------------------------------------
// VRP
// ---------------------------------------------------------------------------

TEST(Vrp, ZeroLossDeliversExactlyWithNoRetransmissions) {
  // loss_rate must be > 0 for Grid::build to stack a vrp driver at
  // all; 1e-12 registers the adapter while no frame ever actually
  // drops (the run is deterministic: verified loss-free once, always).
  Pair p(sn::profiles::transcontinental_internet(1e-12), 0.0);
  p.connect("vrp", 4000);
  const pc::Bytes payload = pattern_payload(96 * 1024);
  const pc::Bytes got = transfer(p, payload);
  EXPECT_EQ(got, payload);
  auto* vrp = dynamic_cast<vl::VrpLink*>(p.a.get());
  ASSERT_NE(vrp, nullptr);
  EXPECT_EQ(vrp->retransmissions(), 0u);
  EXPECT_EQ(vrp->give_ups(), 0u);
  EXPECT_DOUBLE_EQ(vrp->realized_loss(), 0.0);
}

TEST(Vrp, ToleranceZeroRepairsEveryLoss) {
  // The reliable-ARQ degenerate case: 7 % frame loss, empty budget —
  // every byte must arrive, in order, repaired by retransmission.
  Pair p(sn::profiles::transcontinental_internet(0.07), 0.0);
  p.connect("vrp", 4001);
  const pc::Bytes payload = pattern_payload(128 * 1024);
  const pc::Bytes got = transfer(p, payload);
  EXPECT_EQ(got, payload);
  auto* vrp = dynamic_cast<vl::VrpLink*>(p.a.get());
  ASSERT_NE(vrp, nullptr);
  EXPECT_GT(vrp->retransmissions(), 0u);  // loss must have bitten
  EXPECT_DOUBLE_EQ(vrp->realized_loss(), 0.0);
  auto* peer = dynamic_cast<vl::VrpLink*>(p.b.get());
  ASSERT_NE(peer, nullptr);
  EXPECT_EQ(peer->give_ups(), 0u);
}

TEST(Vrp, TolerantRunStaysWithinBudgetAndSkipsInsteadOfStalling) {
  Pair p(sn::profiles::transcontinental_internet(0.07), 0.10);
  p.connect("vrp", 4002);
  const pc::Bytes payload = pattern_payload(256 * 1024);
  const pc::Bytes got = transfer(p, payload);
  auto* vrp = dynamic_cast<vl::VrpLink*>(p.a.get());
  auto* peer = dynamic_cast<vl::VrpLink*>(p.b.get());
  ASSERT_NE(vrp, nullptr);
  ASSERT_NE(peer, nullptr);
  // Losses are absorbed, not repaired: bytes go missing, the stream
  // never stalls, and delivered + skipped resolves the whole payload.
  EXPECT_GT(peer->give_ups(), 0u);
  EXPECT_GT(peer->skipped_bytes(), 0u);
  EXPECT_EQ(got.size() + peer->skipped_bytes(), payload.size());
  // The budget is an invariant, not a target.
  EXPECT_LE(vrp->realized_loss(), 0.10 + 1e-9);
  EXPECT_GT(vrp->realized_loss(), 0.0);
}

TEST(Vrp, SurvivesHeavyAckLoss) {
  // 30 % frame loss hits data, acks, nacks, hello and fin alike; with
  // an empty budget everything must still be repaired eventually.
  Pair p(sn::profiles::transcontinental_internet(0.30), 0.0);
  p.connect("vrp", 4003);
  const pc::Bytes payload = pattern_payload(48 * 1024);
  const pc::Bytes got = transfer(p, payload);
  EXPECT_EQ(got, payload);
  auto* vrp = dynamic_cast<vl::VrpLink*>(p.a.get());
  ASSERT_NE(vrp, nullptr);
  EXPECT_GT(vrp->retransmissions(), 0u);
}

TEST(Vrp, AimdWindowReactsToLoss) {
  Pair p(sn::profiles::transcontinental_internet(0.07), 0.0);
  p.connect("vrp", 4004);
  auto* vrp = dynamic_cast<vl::VrpLink*>(p.a.get());
  ASSERT_NE(vrp, nullptr);
  const double cwnd0 = vrp->cwnd();
  (void)transfer(p, pattern_payload(128 * 1024));
  // The window moved (loss cuts + additive increase both happened) and
  // stayed inside its clamp.
  EXPECT_NE(vrp->cwnd(), cwnd0);
  EXPECT_GE(vrp->cwnd(), 4.0);
  EXPECT_LE(vrp->cwnd(), 48.0);
}

TEST(Vrp, DestroyingLinksMidRetransmitIsSafe) {
  // Kill both ends while frames, RTO timers and nacks are in flight;
  // pending timers must bail on their liveness tokens (ASan-checked).
  Pair p(sn::profiles::transcontinental_internet(0.30), 0.0);
  p.connect("vrp", 4005);
  const pc::Bytes payload = pattern_payload(64 * 1024);
  p.a->post_write(pc::view_of(payload));
  p.a->post_close();
  bool cut = false;
  p.grid.engine().schedule_after(pc::milliseconds(300), [&] { cut = true; });
  p.grid.engine().run_while_pending([&] { return cut; });
  p.a.reset();
  p.b.reset();
  p.grid.engine().run_until_idle();  // drains orphaned timers quietly
}

TEST(Vrp, ConnectToUnlistenedPortIsRefusedNotHung) {
  // The base driver refuses outright (nobody on the rendezvous port);
  // vrp must propagate the refusal instead of retrying forever.
  Pair p(sn::profiles::transcontinental_internet(0.05), 0.0);
  std::optional<pc::Status> status;
  p.grid.node(0).vlink().connect(
      "vrp", {1, 4999}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
        ASSERT_FALSE(r.ok());
        status = r.status();
      });
  p.grid.engine().run_while_pending([&] { return status.has_value(); });
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, pc::Status::refused);
}

// ---------------------------------------------------------------------------
// AdOC
// ---------------------------------------------------------------------------

TEST(Adoc, DeliversExactBytesAndAccountsCompression) {
  Pair p(sn::profiles::ethernet100(), 0.0);
  p.connect("adoc", 5000);
  const pc::Bytes payload = text_payload(64 * 1024);
  pc::Bytes got;
  bool done = false;
  auto server = [&]() -> pc::Task {
    got = co_await p.b->read_n(payload.size() * 4);
    done = true;
  };
  auto t = server();
  for (int i = 0; i < 4; ++i) p.a->post_write(pc::view_of(payload));
  p.grid.engine().run_while_pending([&] { return done; });
  ASSERT_TRUE(done);
  ASSERT_EQ(got.size(), payload.size() * 4);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], payload[i % payload.size()]) << "at byte " << i;
  }
  auto* adoc = dynamic_cast<vl::AdocLink*>(p.a.get());
  ASSERT_NE(adoc, nullptr);
  EXPECT_EQ(adoc->raw_bytes_sent(), payload.size() * 4);
  EXPECT_LT(adoc->compress_ratio(), 1.0);  // text must have compressed
  EXPECT_LT(adoc->wire_bytes_sent(), adoc->raw_bytes_sent());
}

TEST(Adoc, ControllerPicksLzForTextOnASlowLink) {
  Pair p(sn::profiles::transcontinental_internet(0.0), 0.0);
  p.connect("adoc", 5001);
  auto* adoc = dynamic_cast<vl::AdocLink*>(p.a.get());
  ASSERT_NE(adoc, nullptr);
  const pc::Bytes payload = text_payload(32 * 1024);
  for (int i = 0; i < 4; ++i) p.a->post_write(pc::view_of(payload));
  p.grid.engine().run_until_idle();
  EXPECT_EQ(adoc->last_level(), cz::Level::lz);
  EXPECT_LT(adoc->compress_ratio(), 0.5);
}

TEST(Adoc, ControllerPicksStoredForIncompressibleData) {
  Pair p(sn::profiles::transcontinental_internet(0.0), 0.0);
  p.connect("adoc", 5002);
  auto* adoc = dynamic_cast<vl::AdocLink*>(p.a.get());
  ASSERT_NE(adoc, nullptr);
  const pc::Bytes payload = random_payload(32 * 1024);
  for (int i = 0; i < 4; ++i) p.a->post_write(pc::view_of(payload));
  p.grid.engine().run_until_idle();
  EXPECT_EQ(adoc->last_level(), cz::Level::stored);
  // Stored frames pay only the header: the ratio stays ~1.
  EXPECT_LT(adoc->compress_ratio(), 1.01);
  EXPECT_GT(adoc->compress_ratio(), 0.99);
}

TEST(Adoc, PinLevelFreezesTheController) {
  Pair p(sn::profiles::transcontinental_internet(0.0), 0.0);
  p.connect("adoc", 5003);
  auto* adoc = dynamic_cast<vl::AdocLink*>(p.a.get());
  ASSERT_NE(adoc, nullptr);
  adoc->pin_level(cz::Level::stored);
  const pc::Bytes payload = text_payload(32 * 1024);  // would pick lz
  for (int i = 0; i < 3; ++i) p.a->post_write(pc::view_of(payload));
  p.grid.engine().run_until_idle();
  EXPECT_EQ(adoc->last_level(), cz::Level::stored);
  EXPECT_GT(adoc->compress_ratio(), 0.99);
  // Unpinning re-enables adaptation on the next frame.
  adoc->unpin_level();
  p.a->post_write(pc::view_of(payload));
  p.grid.engine().run_until_idle();
  EXPECT_EQ(adoc->last_level(), cz::Level::lz);
  EXPECT_GT(adoc->level_switches(), 0u);
}

TEST(Adoc, ControllerSwitchesLevelMidStream) {
  Pair p(sn::profiles::transcontinental_internet(0.0), 0.0);
  p.connect("adoc", 5004);
  auto* adoc = dynamic_cast<vl::AdocLink*>(p.a.get());
  ASSERT_NE(adoc, nullptr);
  const pc::Bytes text = text_payload(32 * 1024);
  const pc::Bytes noise = random_payload(32 * 1024);
  for (int i = 0; i < 2; ++i) p.a->post_write(pc::view_of(text));
  p.grid.engine().run_until_idle();
  EXPECT_EQ(adoc->last_level(), cz::Level::lz);
  // The per-level ratio is an EWMA (0.75/0.25): one noise frame can't
  // undo the text-learned lz estimate, but a sustained run of
  // incompressible frames drags it past break-even and the controller
  // drops back to stored.
  for (int i = 0; i < 12; ++i) p.a->post_write(pc::view_of(noise));
  p.grid.engine().run_until_idle();
  EXPECT_EQ(adoc->last_level(), cz::Level::stored);
  EXPECT_GE(adoc->level_switches(), 1u);
}

// ---------------------------------------------------------------------------
// The adapter rendezvous contract, over all three adapters
// ---------------------------------------------------------------------------

namespace {

/// A well-formed establishment hello of `method` for logical `port`
/// (pstream: a width-1 group, complete on its own).
pc::Bytes hello_for(const std::string& method, pc::Port port) {
  if (method == "pstream") {
    vl::pstream::SubHeader h;
    h.kind = vl::pstream::SubKind::hello;
    h.width = 1;
    h.port = port;
    h.id = 0x77;
    return vl::pstream::encode_sub(h);
  }
  if (method == "vrp") {
    vl::vrp::Header h;
    h.kind = vl::vrp::Kind::hello;
    return vl::vrp::encode_header(h);
  }
  vl::adoc::Header h;
  h.kind = vl::adoc::Kind::hello;
  return vl::adoc::encode_header(h);
}

/// Two nodes on one WAN carrying sysio plus all three adapters.  The
/// grid only stacks vrp on a lossy profile, so the network is built
/// lossy and made lossless before the test sends anything: every frame
/// below arrives.
class RendezvousRig {
 public:
  RendezvousRig() {
    grid.add_nodes(2);
    sn::LinkModel lossy = sn::profiles::vthd_wan();
    lossy.loss_rate = 0.01;
    const sn::NetId net = grid.add_network(lossy);
    grid.attach(net, 0);
    grid.attach(net, 1);
    grid.build();
    grid.fabric().network(net).set_model(sn::profiles::vthd_wan());
  }

  vl::VLink& server() { return grid.node(1).vlink(); }
  vl::Driver& server_base() { return *server().driver("sysio"); }
  vl::AdapterDriver& adapter(const std::string& method) {
    return dynamic_cast<vl::AdapterDriver&>(*server().driver(method));
  }

  /// A raw sysio connection from node 0 to node 1's base port `port`.
  std::unique_ptr<vl::Link> raw_connect(pc::Port port) {
    std::unique_ptr<vl::Link> raw;
    grid.node(0).vlink().driver("sysio")->connect(
        {1, port}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
          ASSERT_TRUE(r.ok()) << r.error().message;
          raw = std::move(*r);
        });
    grid.engine().run_while_pending([&] { return raw != nullptr; });
    EXPECT_TRUE(raw);
    return raw;
  }

  /// Connect node 0 -> node 1 through `method`; true once both ends hold
  /// a link (the accepted one lands in `*accepted`).
  bool establishes(const std::string& method, pc::Port port,
                   std::unique_ptr<vl::Link>* accepted) {
    std::unique_ptr<vl::Link> a;
    grid.node(0).vlink().connect(
        method, {1, port}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
          ASSERT_TRUE(r.ok()) << r.error().message;
          a = std::move(*r);
        });
    grid.engine().run_while_pending([&] { return a && *accepted; });
    return a && *accepted;
  }

  gr::Grid grid;
};

class AdapterRendezvous : public ::testing::TestWithParam<std::string> {
 protected:
  vl::AdapterDriver& adapter() { return rig.adapter(GetParam()); }
  RendezvousRig rig;
};

}  // namespace

TEST_P(AdapterRendezvous, CollisionOnTheMappedPortThrowsWithNoDriverMutated) {
  vl::VLink& v = rig.server();
  const pc::Port port = 6000;
  const pc::Port mapped = adapter().rendezvous_port(port);
  EXPECT_NE(mapped, port);
  EXPECT_EQ(adapter().rendezvous_port(mapped), port);  // an involution
  int direct = 0;
  rig.server_base().listen(mapped,
                           [&](std::unique_ptr<vl::Link>) { ++direct; });

  auto sink = [](std::unique_ptr<vl::Link>) {};
  EXPECT_FALSE(adapter().can_listen(port));
  EXPECT_THROW(adapter().listen(port, sink), std::logic_error);
  EXPECT_THROW(v.listen(port, sink), std::logic_error);
  for (const auto& d : v.drivers()) {
    EXPECT_FALSE(d->listening(port)) << d->name();
  }
  // The direct base listener still serves its port.
  std::unique_ptr<vl::Link> raw = rig.raw_connect(mapped);
  EXPECT_EQ(direct, 1);

  // The pair collision through one VLink: P, then P's mapped port.
  const pc::Port p2 = 0x1000;
  v.listen(p2, sink);
  EXPECT_THROW(v.listen(adapter().rendezvous_port(p2), sink),
               std::logic_error);
  // Re-listening a logical port the adapter owns is a handler update.
  EXPECT_NO_THROW(adapter().listen(p2, sink));
}

TEST_P(AdapterRendezvous, UnlistenOfANeverListenedPortKeepsTheBaseListener) {
  const pc::Port port = 6100;
  const pc::Port mapped = adapter().rendezvous_port(port);
  int direct = 0;
  rig.server_base().listen(mapped,
                           [&](std::unique_ptr<vl::Link>) { ++direct; });
  adapter().unlisten(port);
  EXPECT_TRUE(rig.server_base().listening(mapped));
  std::unique_ptr<vl::Link> raw = rig.raw_connect(mapped);
  EXPECT_EQ(direct, 1);
}

TEST_P(AdapterRendezvous,
       GarbageFirstFrameIsCountedAndDoesNotWedgeTheListener) {
  const pc::Port port = 6200;
  std::unique_ptr<vl::Link> accepted;
  adapter().listen(
      port, [&](std::unique_ptr<vl::Link> l) { accepted = std::move(l); });
  std::unique_ptr<vl::Link> raw =
      rig.raw_connect(adapter().rendezvous_port(port));
  pc::Rng rng(0x5eed0007);
  pc::Bytes junk(24, 0);
  for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  junk[0] = 0xff;  // no adapter magic starts with 0xff
  raw->post_write(pc::view_of(junk));
  rig.grid.engine().run_until_idle();
  EXPECT_EQ(adapter().malformed_hellos(), 1u);
  EXPECT_FALSE(accepted);

  // A real connect on the same port still establishes.
  EXPECT_TRUE(rig.establishes(GetParam(), port, &accepted));
  EXPECT_EQ(adapter().malformed_hellos(), 1u);
}

TEST_P(AdapterRendezvous, UnlistenBeforeTheHelloDropsTheHalfOpenLink) {
  const pc::Port port = 6300;
  adapter().listen(port, [](std::unique_ptr<vl::Link>) {
    ADD_FAILURE() << "accepted on an unlistened port";
  });
  auto& base = dynamic_cast<vl::FrameDriver&>(rig.server_base());
  std::unique_ptr<vl::Link> raw =
      rig.raw_connect(adapter().rendezvous_port(port));
  EXPECT_EQ(adapter().pending_accepts(), 1u);
  EXPECT_EQ(base.open_connections(), 1u);

  adapter().unlisten(port);
  EXPECT_EQ(adapter().pending_accepts(), 0u);
  EXPECT_EQ(base.open_connections(), 0u);  // the half-open link is gone
  EXPECT_FALSE(rig.server_base().listening(adapter().rendezvous_port(port)));

  // The hello now lands on a closed connection: nothing answers it.
  // The ready handler fires on every delivery and on end-of-stream, so
  // silence proves that no byte and no close came back.
  int ready = 0;
  raw->set_ready_handler([&ready] { ++ready; });
  raw->post_write(pc::view_of(hello_for(GetParam(), port)));
  rig.grid.engine().run_until_idle();
  EXPECT_EQ(adapter().pending_accepts(), 0u);
  EXPECT_EQ(adapter().malformed_hellos(), 0u);
  EXPECT_EQ(ready, 0);
  EXPECT_EQ(raw->available(), 0u);
}

TEST_P(AdapterRendezvous, ListenerMayUnlistenFromInsideItsAccept) {
  // A one-shot server: the accept callback runs inside the hello's
  // delivery and unlistens, which drops the port's other half-open
  // link and the finishing entry itself (ASan-checked).
  const pc::Port port = 6350;
  std::unique_ptr<vl::Link> accepted;
  adapter().listen(port, [&](std::unique_ptr<vl::Link> l) {
    accepted = std::move(l);
    adapter().unlisten(port);
  });
  std::unique_ptr<vl::Link> half_open =
      rig.raw_connect(adapter().rendezvous_port(port));
  EXPECT_TRUE(rig.establishes(GetParam(), port, &accepted));
  EXPECT_FALSE(adapter().listening(port));
  EXPECT_EQ(adapter().pending_accepts(), 0u);
  EXPECT_EQ(adapter().malformed_hellos(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Adapters, AdapterRendezvous,
                         ::testing::Values("pstream", "vrp", "adoc"),
                         [](const auto& info) { return info.param; });

TEST(AdapterRendezvousAll, AllAdaptersAndTheBaseShareOneLogicalPort) {
  RendezvousRig rig;
  const pc::Port port = 6400;
  std::map<std::string, std::unique_ptr<vl::Link>> accepted;
  for (const char* m : {"sysio", "pstream", "vrp", "adoc"}) {
    rig.server().driver(m)->listen(port, [&, m](std::unique_ptr<vl::Link> l) {
      accepted[m] = std::move(l);
    });
  }
  for (const char* m : {"sysio", "pstream", "vrp", "adoc"}) {
    EXPECT_TRUE(rig.establishes(m, port, &accepted[m])) << m;
  }
  EXPECT_NE(dynamic_cast<vl::PstreamLink*>(accepted["pstream"].get()), nullptr);
  EXPECT_NE(dynamic_cast<vl::VrpLink*>(accepted["vrp"].get()), nullptr);
  EXPECT_NE(dynamic_cast<vl::AdocLink*>(accepted["adoc"].get()), nullptr);
  for (const char* m : {"pstream", "vrp", "adoc"}) {
    EXPECT_EQ(rig.adapter(m).malformed_hellos(), 0u) << m;
  }
}

TEST(AdapterRendezvousAll, PstreamFirstDatagramLongerThanOneHelloIsMalformed) {
  // Every pstream hello is its own write, so a longer first datagram is
  // never a hello followed by data: it is garbage.
  RendezvousRig rig;
  const pc::Port port = 6500;
  rig.adapter("pstream").listen(port, [](std::unique_ptr<vl::Link>) {
    ADD_FAILURE() << "accepted a malformed hello";
  });
  auto& drv = dynamic_cast<vl::PstreamDriver&>(rig.adapter("pstream"));
  std::unique_ptr<vl::Link> raw =
      rig.raw_connect(drv.rendezvous_port(port));
  pc::Bytes frame = hello_for("pstream", port);
  frame.resize(frame.size() + 8, 0xab);
  raw->post_write(pc::view_of(frame));
  rig.grid.engine().run_until_idle();
  EXPECT_EQ(drv.malformed_hellos(), 1u);
  EXPECT_EQ(drv.pending_groups(), 0u);
}
