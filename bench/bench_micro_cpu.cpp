// Real-wall-clock microbenchmarks (google-benchmark) of the CPU-side
// components: these are the only numbers in the repository measured in
// real time, and they exist to show the functional substrates (packing,
// CDR marshalling, compression) carry realistic constant factors.
#include <benchmark/benchmark.h>

#include "compress/lz.hpp"
#include "core/bytes.hpp"
#include "core/engine.hpp"
#include "core/rng.hpp"
#include "middleware/corba/cdr.hpp"

namespace pc = padico::core;
namespace cz = padico::compress;
namespace orb = padico::orb;

namespace {

pc::Bytes text_data(std::size_t n) {
  pc::Bytes b;
  const std::string w = "grid computing communication frameworks ";
  while (b.size() < n) b.insert(b.end(), w.begin(), w.end());
  b.resize(n);
  return b;
}

void BM_EngineDispatch(benchmark::State& state) {
  for (auto _ : state) {
    pc::Engine e;
    for (int i = 0; i < 1000; ++i) {
      e.schedule_at(static_cast<pc::SimTime>(i), [] {});
    }
    e.run_until_idle();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineDispatch);

void BM_IoVecGatherFlatten(benchmark::State& state) {
  const std::size_t frag = static_cast<std::size_t>(state.range(0));
  pc::Bytes chunk(frag, 7);
  for (auto _ : state) {
    pc::IoVec v;
    for (int i = 0; i < 16; ++i) v.append_ref(pc::view_of(chunk));
    benchmark::DoNotOptimize(v.flatten());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16 *
                          static_cast<std::int64_t>(frag));
}
BENCHMARK(BM_IoVecGatherFlatten)->Arg(512)->Arg(8192);

void BM_LzEncode(benchmark::State& state) {
  pc::Bytes data = text_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cz::lz_encode(pc::view_of(data)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LzEncode)->Arg(4096)->Arg(65536);

void BM_LzRoundTrip(benchmark::State& state) {
  pc::Bytes data = text_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    pc::Bytes frame = cz::compress(pc::view_of(data), cz::Level::lz);
    benchmark::DoNotOptimize(cz::decompress(pc::view_of(frame)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LzRoundTrip)->Arg(65536);

void BM_CdrMarshalCopying(benchmark::State& state) {
  pc::Bytes bulk(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    orb::CdrOut out(/*copying=*/true);
    out.put_string("object-key");
    out.put_string("method");
    out.put_octets(pc::view_of(bulk));
    benchmark::DoNotOptimize(out.flatten());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CdrMarshalCopying)->Arg(65536);

void BM_CdrMarshalZeroCopy(benchmark::State& state) {
  pc::Bytes bulk(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    orb::CdrOut out(/*copying=*/false);
    out.put_string("object-key");
    out.put_string("method");
    out.put_octets(pc::view_of(bulk));
    benchmark::DoNotOptimize(out.iov().byte_size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CdrMarshalZeroCopy)->Arg(65536);

void BM_RleRoundTrip(benchmark::State& state) {
  pc::Bytes data = text_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    pc::Bytes enc = cz::rle_encode(pc::view_of(data));
    benchmark::DoNotOptimize(cz::rle_decode(pc::view_of(enc)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RleRoundTrip)->Arg(65536);

void BM_Xoshiro(benchmark::State& state) {
  pc::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_Xoshiro);

}  // namespace

BENCHMARK_MAIN();
