// Seeded arrival-process generators for the scenario engine.
//
// Session-open instants come from one of two families:
//
//   * (in)homogeneous Poisson — exponential gaps at the peak rate,
//     thinned against a periodic intensity lambda(t) = rate * (1 +
//     depth * tri(t / period)) (the classic thinning construction for
//     inhomogeneous Poisson processes; cf. Hohmann, "The R package
//     IPPP", arXiv:1901.10754).  depth = 0 short-circuits to plain
//     exponential gaps.
//   * bounded Pareto — i.i.d. heavy-tailed gaps with tail index alpha
//     on [gap_min, gap_max], by CDF inversion.
//
// Everything is computed in 64/128-bit fixed point (Q32 logs and
// probabilities, Q63 mantissas) from the seeded splitmix64 Rng — no
// libm, no floating-point transcendentals — so the generated instants
// are bit-identical across compilers, libms and platforms.  That is
// what lets scenario digests be CI-gated: a baseline recorded on one
// machine must reproduce exactly on another.
#pragma once

#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "core/time.hpp"
#include "scenario/spec.hpp"

namespace padico::scenario {

// Fixed-point kernels, exposed for the unit tests.
namespace fixmath {

/// ln 2 in Q32.
inline constexpr std::uint64_t kLn2Q32 = 0xb17217f8ull;

/// log2(u) in Q32 (requires u > 0).  Exact integer part; 32 fraction
/// bits by repeated squaring.
std::uint64_t log2_q32(std::uint64_t u);

/// 2^(f / 2^32) in Q63, for f in [0, 2^32) — result in [2^63, 2^64).
std::uint64_t exp2_frac_q63(std::uint64_t f_q32);

/// 2^(-e / 2^32) in Q32 (0 once e >= 32).
std::uint64_t pow2_neg_q32(std::uint64_t e_q32);

}  // namespace fixmath

/// Stream of inter-arrival gaps (virtual ns, always >= 1).  One
/// instance per scenario run; the seed fully determines the stream.
class ArrivalProcess {
 public:
  ArrivalProcess(const WorkloadSpec& w, std::uint64_t seed);

  /// Next gap to the following session open.
  core::Duration next_gap();

 private:
  std::uint64_t exp_gap(std::uint64_t mean_ns);
  std::uint64_t accept_q32() const;
  core::Duration pareto_gap();

  Arrival kind_;
  core::Rng rng_;
  core::SimTime t_ = 0;
  // Poisson state (Q32 depth; gaps in ns).
  std::uint64_t mean_gap_ns_;
  std::uint64_t peak_gap_ns_;
  std::uint64_t depth_q32_;
  std::uint64_t period_ns_;
  // Bounded-Pareto state.
  std::uint64_t gap_min_;
  std::uint64_t gap_max_;
  std::uint64_t inv_alpha_q32_;
  std::uint64_t r_q32_;  // (gap_min / gap_max)^alpha in Q32
};

/// Zipf(skew) sampler over [0, n): integer cumulative weights with
/// w_k = (k+1)^-skew in Q32, picked by binary search.  skew = 0 is
/// uniform.  Shared by hot-key selection.
class ZipfPicker {
 public:
  ZipfPicker(std::uint32_t n, double skew);

  std::uint32_t pick(core::Rng& rng) const;

  std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(cum_.size());
  }

 private:
  std::vector<std::uint64_t> cum_;
};

}  // namespace padico::scenario
