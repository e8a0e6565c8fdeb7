// Property / fuzz tests for the framed codecs of the stack: the
// 24-byte vlink wire header (ROADMAP item 6, pulled forward), the
// pstream sub-frame header, and the VRP / AdOC adapter headers.
// Round-trips for Rng-generated headers, and truncated / garbage
// frames must fail cleanly — a nullopt, never a crash or an
// out-of-bounds read.
#include "vlink/wire.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "adapters/adoc.hpp"
#include "adapters/vrp.hpp"
#include "core/core.hpp"
#include "simnet/simnet.hpp"
#include "vlink/net_driver.hpp"
#include "vlink/pstream_driver.hpp"
#include "vlink/vlink.hpp"

namespace pc = padico::core;
namespace sn = padico::simnet;
namespace vl = padico::vlink;
namespace wire = padico::vlink::wire;
namespace ps = padico::vlink::pstream;

namespace {

wire::Header random_header(pc::Rng& rng) {
  wire::Header h;
  h.type = static_cast<wire::FrameType>(rng.uniform_int(1, 5));
  h.src_port = static_cast<pc::Port>(rng.uniform_int(0, 0xFFFF));
  h.dst_port = static_cast<pc::Port>(rng.uniform_int(0, 0xFFFF));
  h.src_node = static_cast<pc::NodeId>(rng.uniform_int(0, 0xFFFFFFFF));
  h.peer = static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFFFFFF));
  h.conn_id = rng.next_u64();
  return h;
}

}  // namespace

TEST(WireFuzz, EncodedLayoutMatchesSpec) {
  wire::Header h;
  h.type = wire::FrameType::connect;
  h.src_port = 0x1234;
  h.dst_port = 0xABCD;
  h.src_node = 7;
  h.peer = 0xCAFE0042u;
  h.conn_id = 0x1122334455667788ull;
  pc::Bytes frame = wire::encode(h, pc::view_of("hi"));
  ASSERT_EQ(frame.size(), wire::kHeaderSize + 2);
  EXPECT_EQ(frame[0], 1);  // connect
  pc::Port src = 0;
  std::memcpy(&src, frame.data() + 2, sizeof(src));
  EXPECT_EQ(src, 0x1234);
  std::uint32_t peer = 0;
  std::memcpy(&peer, frame.data() + 12, sizeof(peer));
  EXPECT_EQ(peer, 0xCAFE0042u);
  std::uint64_t conn = 0;
  std::memcpy(&conn, frame.data() + 16, sizeof(conn));
  EXPECT_EQ(conn, 0x1122334455667788ull);
  // Reserved bytes are zeroed.
  EXPECT_EQ(frame[1], 0);
  EXPECT_EQ(frame[6], 0);
  EXPECT_EQ(frame[7], 0);
  EXPECT_EQ(wire::decode(pc::view_of(frame))->peer, 0xCAFE0042u);
  EXPECT_EQ(frame[wire::kHeaderSize], 'h');
}

TEST(WireFuzz, RoundTripRandomHeaders) {
  pc::Rng rng(0x5eed0001);
  for (int i = 0; i < 1000; ++i) {
    const wire::Header h = random_header(rng);
    // Alternate between bare headers and headers with payload.
    pc::Bytes payload(rng.uniform_int(0, 32), 0x5A);
    const pc::Bytes frame = wire::encode(h, pc::view_of(payload));
    ASSERT_EQ(frame.size(), wire::kHeaderSize + payload.size());
    const std::optional<wire::Header> back = wire::decode(pc::view_of(frame));
    ASSERT_TRUE(back.has_value()) << "iteration " << i;
    EXPECT_EQ(*back, h) << "iteration " << i;
    EXPECT_EQ(back->peer, h.peer) << "iteration " << i;
    EXPECT_EQ(frame[1], 0) << "iteration " << i;
    EXPECT_EQ(frame[6], 0) << "iteration " << i;
  }
}

TEST(WireFuzz, TruncatedFramesAreRejected) {
  pc::Rng rng(0x5eed0002);
  const pc::Bytes frame = wire::encode(random_header(rng));
  for (std::size_t n = 0; n < wire::kHeaderSize; ++n) {
    EXPECT_FALSE(wire::decode(pc::ByteView(frame.data(), n)).has_value())
        << "length " << n;
  }
  EXPECT_FALSE(wire::decode({}).has_value());
}

TEST(WireFuzz, GarbageBytesDecodeCleanlyOrNotAtAll) {
  pc::Rng rng(0x5eed0003);
  int decoded = 0;
  for (int i = 0; i < 2000; ++i) {
    pc::Bytes junk(rng.uniform_int(0, 64), 0);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const std::optional<wire::Header> h = wire::decode(pc::view_of(junk));
    if (junk.size() < wire::kHeaderSize) {
      EXPECT_FALSE(h.has_value());
      continue;
    }
    // A long-enough frame parses iff its type byte is a known type;
    // the parsed fields must then match the raw bytes exactly.
    if (junk[0] >= 1 && junk[0] <= 5) {
      ASSERT_TRUE(h.has_value());
      ++decoded;
      EXPECT_EQ(static_cast<std::uint8_t>(h->type), junk[0]);
      pc::Bytes re(wire::kHeaderSize, 0);
      wire::encode_into(*h, re.data());
      EXPECT_EQ(re[0], junk[0]);
      EXPECT_EQ(re[2], junk[2]);  // src_port low byte survives
      EXPECT_EQ(re[16], junk[16]);  // conn_id low byte survives
    } else {
      EXPECT_FALSE(h.has_value());
    }
  }
  EXPECT_GT(decoded, 0) << "fuzz corpus never hit a valid type byte";
}

namespace {

ps::SubHeader random_sub_header(pc::Rng& rng) {
  ps::SubHeader h;
  h.kind = static_cast<ps::SubKind>(rng.uniform_int(1, 2));
  h.index = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  h.width = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
  h.port = static_cast<pc::Port>(rng.uniform_int(0, 0xFFFF));
  // Data lengths above kChunkSize never round-trip (the decoder
  // rejects them as corruption); hello frames carry no length.
  h.len = h.kind == ps::SubKind::data
              ? static_cast<std::uint32_t>(rng.uniform_int(0, ps::kChunkSize))
              : 0;
  h.id = rng.next_u64();
  return h;
}

}  // namespace

TEST(WireFuzz, PstreamSubHeaderRoundTrips) {
  pc::Rng rng(0x5eed0010);
  for (int i = 0; i < 1000; ++i) {
    const ps::SubHeader h = random_sub_header(rng);
    const pc::Bytes frame = ps::encode_sub(h);
    ASSERT_EQ(frame.size(), ps::kSubHeaderSize);
    const std::optional<ps::SubHeader> back =
        ps::decode_sub(pc::view_of(frame));
    ASSERT_TRUE(back.has_value()) << "iteration " << i;
    EXPECT_EQ(*back, h) << "iteration " << i;
  }
}

TEST(WireFuzz, PstreamTruncatedSubFramesAreRejected) {
  pc::Rng rng(0x5eed0011);
  const pc::Bytes frame = ps::encode_sub(random_sub_header(rng));
  for (std::size_t n = 0; n < ps::kSubHeaderSize; ++n) {
    EXPECT_FALSE(ps::decode_sub(pc::ByteView(frame.data(), n)).has_value())
        << "length " << n;
  }
  EXPECT_FALSE(ps::decode_sub({}).has_value());
}

TEST(WireFuzz, PstreamGarbageSubFramesDecodeCleanlyOrNotAtAll) {
  pc::Rng rng(0x5eed0012);
  int decoded = 0;
  for (int i = 0; i < 4000; ++i) {
    pc::Bytes junk(rng.uniform_int(0, 64), 0);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    if (rng.uniform_int(0, 3) == 0 && junk.size() >= ps::kSubHeaderSize) {
      // Force a plausible prefix sometimes (magic, a valid kind, a
      // small len) so the accept path gets exercised too; the
      // remaining fields stay fuzzed.
      std::memcpy(junk.data(), &ps::kMagic, sizeof(ps::kMagic));
      junk[4] = static_cast<std::uint8_t>(rng.uniform_int(1, 2));
      junk[14] = 0;
      junk[15] = 0;  // len < 2^16 <= kMaxChunk
    }
    const std::optional<ps::SubHeader> h = ps::decode_sub(pc::view_of(junk));
    if (!h.has_value()) continue;
    ++decoded;
    // Whatever parses must satisfy every invariant of the format.
    ASSERT_GE(junk.size(), ps::kSubHeaderSize);
    std::uint32_t magic = 0;
    std::memcpy(&magic, junk.data(), sizeof(magic));
    EXPECT_EQ(magic, ps::kMagic);
    EXPECT_TRUE(h->kind == ps::SubKind::hello || h->kind == ps::SubKind::data);
    if (h->kind == ps::SubKind::data) {
      EXPECT_LE(h->len, ps::kChunkSize);
    }
    // ... and re-encoding reproduces the meaningful bytes.
    const pc::Bytes re = ps::encode_sub(*h);
    EXPECT_EQ(re[4], junk[4]);    // kind
    EXPECT_EQ(re[16], junk[16]);  // id low byte
  }
  EXPECT_GT(decoded, 0) << "fuzz corpus never hit a valid sub-frame";
}

namespace vrp = padico::vlink::vrp;
namespace adoc = padico::vlink::adoc;
namespace cz = padico::compress;

namespace {

vrp::Header random_vrp_header(pc::Rng& rng) {
  vrp::Header h;
  h.kind = static_cast<vrp::Kind>(rng.uniform_int(1, 6));
  h.flags = h.kind == vrp::Kind::ack && rng.uniform_int(0, 1) == 1
                ? vrp::kFlagFinSeen
                : 0;
  // Data lengths of 0 or beyond kChunkSize never round-trip (rejected
  // as corruption); hello budgets must stay under 100 % (1e6 ppm).
  switch (h.kind) {
    case vrp::Kind::data:
      h.len = static_cast<std::uint32_t>(rng.uniform_int(1, vrp::kChunkSize));
      break;
    case vrp::Kind::hello:
      h.len = static_cast<std::uint32_t>(rng.uniform_int(0, 999999));
      break;
    default:
      h.len = static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFF));
  }
  h.aux = static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFFFFFF));
  h.seq = rng.next_u64();
  return h;
}

}  // namespace

TEST(WireFuzz, VrpHeaderRoundTrips) {
  pc::Rng rng(0x5eed0020);
  for (int i = 0; i < 1000; ++i) {
    const vrp::Header h = random_vrp_header(rng);
    const pc::Bytes frame = vrp::encode_header(h);
    ASSERT_EQ(frame.size(), vrp::kHeaderSize);
    const std::optional<vrp::Header> back =
        vrp::decode_header(pc::view_of(frame));
    ASSERT_TRUE(back.has_value()) << "iteration " << i;
    EXPECT_EQ(*back, h) << "iteration " << i;
  }
}

TEST(WireFuzz, VrpTruncatedFramesAreRejected) {
  pc::Rng rng(0x5eed0021);
  const pc::Bytes frame = vrp::encode_header(random_vrp_header(rng));
  for (std::size_t n = 0; n < vrp::kHeaderSize; ++n) {
    EXPECT_FALSE(
        vrp::decode_header(pc::ByteView(frame.data(), n)).has_value())
        << "length " << n;
  }
  EXPECT_FALSE(vrp::decode_header({}).has_value());
}

TEST(WireFuzz, VrpGarbageFramesDecodeCleanlyOrNotAtAll) {
  pc::Rng rng(0x5eed0022);
  int decoded = 0;
  for (int i = 0; i < 4000; ++i) {
    pc::Bytes junk(rng.uniform_int(0, 64), 0);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    if (rng.uniform_int(0, 3) == 0 && junk.size() >= vrp::kHeaderSize) {
      // Sometimes force a plausible prefix so the accept path gets
      // exercised; everything else stays fuzzed.
      std::memcpy(junk.data(), &vrp::kMagic, sizeof(vrp::kMagic));
      junk[4] = static_cast<std::uint8_t>(rng.uniform_int(1, 6));
      junk[9] = 0;
      junk[10] = 0;
      junk[11] = 0;  // len < 256 <= kChunkSize, and a valid hello ppm
    }
    const std::optional<vrp::Header> h =
        vrp::decode_header(pc::view_of(junk));
    if (!h.has_value()) continue;
    ++decoded;
    ASSERT_GE(junk.size(), vrp::kHeaderSize);
    std::uint32_t magic = 0;
    std::memcpy(&magic, junk.data(), sizeof(magic));
    EXPECT_EQ(magic, vrp::kMagic);
    EXPECT_GE(static_cast<std::uint8_t>(h->kind), 1);
    EXPECT_LE(static_cast<std::uint8_t>(h->kind), 6);
    if (h->kind == vrp::Kind::data) {
      EXPECT_GE(h->len, 1u);
      EXPECT_LE(h->len, vrp::kChunkSize);
    }
    if (h->kind == vrp::Kind::hello) {
      EXPECT_LT(h->len, 1000000u);
    }
    const pc::Bytes re = vrp::encode_header(*h);
    EXPECT_EQ(re[4], junk[4]);    // kind
    EXPECT_EQ(re[16], junk[16]);  // seq low byte
  }
  EXPECT_GT(decoded, 0) << "fuzz corpus never hit a valid vrp frame";
}

namespace {

adoc::Header random_adoc_header(pc::Rng& rng) {
  adoc::Header h;
  h.kind = static_cast<adoc::Kind>(rng.uniform_int(1, 2));
  h.level = static_cast<cz::Level>(rng.uniform_int(0, cz::kLevelCount - 1));
  h.raw_len = static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFFFF));
  h.enc_len = static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFFFF));
  return h;
}

}  // namespace

TEST(WireFuzz, AdocHeaderRoundTrips) {
  pc::Rng rng(0x5eed0030);
  for (int i = 0; i < 1000; ++i) {
    const adoc::Header h = random_adoc_header(rng);
    const pc::Bytes frame = adoc::encode_header(h);
    ASSERT_EQ(frame.size(), adoc::kHeaderSize);
    const std::optional<adoc::Header> back =
        adoc::decode_header(pc::view_of(frame));
    ASSERT_TRUE(back.has_value()) << "iteration " << i;
    EXPECT_EQ(*back, h) << "iteration " << i;
  }
}

TEST(WireFuzz, AdocTruncatedAndGarbageFramesAreRejectedCleanly) {
  pc::Rng rng(0x5eed0031);
  const pc::Bytes frame = adoc::encode_header(random_adoc_header(rng));
  for (std::size_t n = 0; n < adoc::kHeaderSize; ++n) {
    EXPECT_FALSE(
        adoc::decode_header(pc::ByteView(frame.data(), n)).has_value())
        << "length " << n;
  }
  EXPECT_FALSE(adoc::decode_header({}).has_value());
  int decoded = 0;
  for (int i = 0; i < 4000; ++i) {
    pc::Bytes junk(rng.uniform_int(0, 48), 0);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    if (rng.uniform_int(0, 3) == 0 && junk.size() >= adoc::kHeaderSize) {
      std::memcpy(junk.data(), &adoc::kMagic, sizeof(adoc::kMagic));
      junk[4] = static_cast<std::uint8_t>(rng.uniform_int(1, 2));
      junk[5] =
          static_cast<std::uint8_t>(rng.uniform_int(0, cz::kLevelCount - 1));
    }
    const std::optional<adoc::Header> h =
        adoc::decode_header(pc::view_of(junk));
    if (!h.has_value()) continue;
    ++decoded;
    ASSERT_GE(junk.size(), adoc::kHeaderSize);
    std::uint32_t magic = 0;
    std::memcpy(&magic, junk.data(), sizeof(magic));
    EXPECT_EQ(magic, adoc::kMagic);
    EXPECT_LT(static_cast<std::uint8_t>(h->level), cz::kLevelCount);
    const pc::Bytes re = adoc::encode_header(*h);
    EXPECT_EQ(re[4], junk[4]);  // kind
    EXPECT_EQ(re[8], junk[8]);  // raw_len low byte
  }
  EXPECT_GT(decoded, 0) << "fuzz corpus never hit a valid adoc frame";
}

TEST(WireFuzz, NetDriverSurvivesGarbageFrames) {
  // Inject raw garbage straight onto the wire under a live driver: the
  // driver must drop every malformed frame and keep serving real
  // connections afterwards.
  pc::Engine engine;
  sn::Fabric fabric{engine};
  sn::NetId net = fabric.add_network(sn::profiles::myrinet2000());
  fabric.attach(net, 0);
  fabric.attach(net, 1);
  pc::Host h0(engine, 0), h1(engine, 1);
  vl::VLink v0(h0), v1(h1);
  v0.add_driver(
      std::make_unique<vl::NetDriver>(h0, fabric.network(net), "madio"));
  v1.add_driver(
      std::make_unique<vl::NetDriver>(h1, fabric.network(net), "madio"));

  pc::Rng rng(0x5eed0004);
  for (int i = 0; i < 200; ++i) {
    pc::Bytes junk(rng.uniform_int(0, 40), 0);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    fabric.network(net).send(0, 1, std::move(junk));
  }
  engine.run_until_idle();

  std::unique_ptr<vl::Link> a, b;
  v1.driver("madio")->listen(
      8000, [&](std::unique_ptr<vl::Link> l) { b = std::move(l); });
  v0.connect("madio", {1, 8000}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
    ASSERT_TRUE(r.ok()) << r.error().message;
    a = std::move(*r);
  });
  engine.run_while_pending([&] { return a && b; });
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);

  bool done = false;
  auto prog = [&]() -> pc::Task {
    a->post_write(pc::view_of("still alive"));
    pc::Bytes got = co_await b->read_n(11);
    EXPECT_EQ(got, pc::view_of("still alive").to_bytes());
    done = true;
  };
  auto t = prog();
  engine.run_while_pending([&] { return done; });
  EXPECT_TRUE(done);
}
