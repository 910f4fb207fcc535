#pragma once

#include <cstdint>
#include <span>

#include "common/bitvec.hpp"

namespace simra::dram::kernels {
struct MarginChainParams;
}

/// Internal interface between the dispatching kernels (kernels.cpp) and
/// the AVX2 translation unit (kernels_avx2.cpp, compiled with -mavx2 and
/// -ffp-contract=off). Not installed; callers use dram/kernels.hpp.
///
/// Contract: every function here computes bit-identical results to the
/// scalar loop in kernels.cpp — same IEEE operation order, no fused
/// multiply-add — and is only invoked when `active_simd()` resolved to
/// SimdTier::avx2 (which implies `compiled()` and cpuid support).

namespace simra::dram::kernels::avx2 {

/// Whether this binary carries the AVX2 code paths at all (the TU is
/// always linked; on a toolchain without AVX2 support the kernels below
/// become unreachable aborts and this returns false).
bool compiled() noexcept;

/// Packs values[b] < threshold for b in [0, limit) into one word
/// (limit <= 64). Used by latch_race_mask on a stack chunk of
/// scalar-computed normal CDF values: the transcendental stays scalar so
/// results match libm exactly; only compare + pack vectorize.
std::uint64_t compare_lt_word(const double* values, std::size_t limit,
                              double threshold);

/// One class's columns in a 64-column word and the float bound its
/// zetas compare against.
struct ClassBound {
  std::uint64_t columns;
  float bound;
};

/// Bit b = values[b] < classes[i].bound for the entry i whose `columns`
/// holds bit b (the entries' column sets are disjoint; b < limit <= 64).
/// 8-column groups without one of an entry's columns are skipped. The
/// zeta-vs-margin compare of resolve_word: every class of a word in one
/// call, the word's values loaded once.
std::uint64_t compare_lt_class_bounds(const float* values, std::size_t limit,
                                      const ClassBound* classes,
                                      std::size_t count);

/// Bit b = values[b] > threshold, for b in [0, limit), limit <= 64: the
/// polarity mask of resolve_word.
std::uint64_t compare_gt_float_word(const float* values, std::size_t limit,
                                    float threshold);

/// Fills `mask` with offsets[c] + noise_scale * noise[c] > 0.
void offset_noise_mask(std::span<const float> offsets,
                       std::span<const double> noise, double noise_scale,
                       BitVec& mask);

/// Sum of popcount((w ^ (w >> 8)) & kSampleBits) over words[0..count),
/// kSampleBits = 0x0001'0001'0001'0001 — the full-word body of
/// lag8_disagreement (the boundary word stays with the caller).
std::size_t lag8_full_words(const std::uint64_t* words, std::size_t count);

/// Vectorized body of kernels::hashed_normal_fill (4 lanes of splitmix64,
/// uniform mapping, and the inverse-CDF central branch; tail-probability
/// lanes and the remainder fall back to the exact scalar routine).
void hashed_normal_fill(std::uint64_t prefix, std::span<float> out);

/// Vectorized body of kernels::hashed_threshold_mask: fills `mask`
/// (already sized) with (hash_combine(prefix, c) >> 11) < bound, the
/// splitmix64 chain of hashed_normal_fill closed by a 64-bit integer
/// compare (bound <= 2^53).
void hashed_threshold_mask(std::uint64_t prefix, std::uint64_t bound,
                           BitVec& mask);

/// Vectorized body of kernels::counter_normal_fill: the hashed_normal_fill
/// machinery with a base draw offset and double-precision output (tail
/// lanes and the remainder fall back to the exact scalar routine).
void counter_normal_fill(std::uint64_t prefix, std::uint64_t base,
                         std::span<double> out);

/// Vectorized body of kernels::margin_chain (std::pow stays scalar per
/// class; the surrounding divide/subtract chain vectorizes).
void margin_chain(std::span<const float> sums, const MarginChainParams& p,
                  std::span<double> zg, std::span<std::int32_t> flags);

}  // namespace simra::dram::kernels::avx2
