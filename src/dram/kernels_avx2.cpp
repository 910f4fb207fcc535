/// AVX2 implementations of the dispatchable kernels (see kernels_simd.hpp
/// for the contract). This TU is compiled with -mavx2 -ffp-contract=off:
/// AVX2 alone cannot fuse multiply-adds (FMA is a separate ISA extension
/// we deliberately do not enable) and contraction is disabled besides, so
/// every float operation here is the same IEEE exactly-rounded mul / add /
/// div the scalar loops perform, in the same order — which is what makes
/// the two tiers bit-identical rather than merely close.

#include "dram/kernels_simd.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/normal.hpp"
#include "common/rng.hpp"
#include "dram/kernels.hpp"
#include "dram/process_variation.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace simra::dram::kernels::avx2 {

namespace {

constexpr std::size_t kWordBits = 64;

/// Lane-wise 64 x 64 -> low 64 multiply (AVX2 has only 32 x 32 widening
/// multiplies): lo + ((a_lo * b_hi + a_hi * b_lo) << 32).
inline __m256i mul64(__m256i a, __m256i b) {
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)),
                       _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b));
  return _mm256_add_epi64(_mm256_mul_epu32(a, b),
                          _mm256_slli_epi64(cross, 32));
}

/// splitmix64's mixing rounds (the caller has already added the golden
/// increment), four lanes at once. Matches simra::splitmix64 exactly.
inline __m256i splitmix_mix(__m256i z) {
  z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
            _mm256_set1_epi64x(static_cast<long long>(0xbf58476d1ce4e5b9ULL)));
  z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
            _mm256_set1_epi64x(static_cast<long long>(0x94d049bb133111ebULL)));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

/// Exact unsigned 64 -> double conversion for values below 2^53 (all our
/// inputs are 53-bit uniforms). Classic split conversion: the low 32 bits
/// ride in a 2^52-biased mantissa, the high bits in a 2^84-biased one;
/// both partials and their recombination are exact in this range, so the
/// result equals static_cast<double>(x) bit for bit.
inline __m256d u53_to_double(__m256i x) {
  const __m256d two84 = _mm256_set1_pd(19342813113834066795298816.0);
  const __m256d two52 = _mm256_set1_pd(4503599627370496.0);
  const __m256d two84_52 =
      _mm256_set1_pd(19342813113834066795298816.0 + 4503599627370496.0);
  __m256i hi = _mm256_srli_epi64(x, 32);
  hi = _mm256_or_si256(hi, _mm256_castpd_si256(two84));
  const __m256i lo =
      _mm256_blend_epi32(x, _mm256_castpd_si256(two52), 0xAA);
  const __m256d f = _mm256_sub_pd(_mm256_castsi256_pd(hi), two84_52);
  return _mm256_add_pd(f, _mm256_castsi256_pd(lo));
}

}  // namespace

bool compiled() noexcept { return true; }

std::uint64_t compare_lt_word(const double* values, std::size_t limit,
                              double threshold) {
  const __m256d vt = _mm256_set1_pd(threshold);
  std::uint64_t word = 0;
  std::size_t b = 0;
  for (; b + 4 <= limit; b += 4) {
    const __m256d v = _mm256_loadu_pd(values + b);
    const auto bits = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(v, vt, _CMP_LT_OQ)));
    word |= static_cast<std::uint64_t>(bits) << b;
  }
  for (; b < limit; ++b)
    word |= static_cast<std::uint64_t>(values[b] < threshold) << b;
  return word;
}

std::uint64_t compare_lt_class_bounds(const float* values, std::size_t limit,
                                      const ClassBound* classes,
                                      std::size_t count) {
  const std::size_t groups = limit / 8;
  __m256 v[kWordBits / 8];
  for (std::size_t g = 0; g < groups; ++g)
    v[g] = _mm256_loadu_ps(values + 8 * g);
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t columns = classes[i].columns;
    const float bound = classes[i].bound;
    const __m256 vt = _mm256_set1_ps(bound);
    std::uint64_t hits = 0;
    for (std::size_t g = 0; g < groups; ++g) {
      if (((columns >> (8 * g)) & 0xFFu) == 0) continue;
      hits |= static_cast<std::uint64_t>(static_cast<unsigned>(
                  _mm256_movemask_ps(_mm256_cmp_ps(v[g], vt, _CMP_LT_OQ))))
              << (8 * g);
    }
    for (std::size_t b = 8 * groups; b < limit; ++b)
      hits |= static_cast<std::uint64_t>(values[b] < bound) << b;
    word |= hits & columns;
  }
  return word;
}

std::uint64_t compare_gt_float_word(const float* values, std::size_t limit,
                                    float threshold) {
  const __m256 vt = _mm256_set1_ps(threshold);
  std::uint64_t word = 0;
  std::size_t b = 0;
  for (; b + 8 <= limit; b += 8) {
    const auto bits = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_cmp_ps(_mm256_loadu_ps(values + b), vt, _CMP_GT_OQ)));
    word |= static_cast<std::uint64_t>(bits) << b;
  }
  for (; b < limit; ++b)
    word |= static_cast<std::uint64_t>(values[b] > threshold) << b;
  return word;
}

void offset_noise_mask(std::span<const float> offsets,
                       std::span<const double> noise, double noise_scale,
                       BitVec& mask) {
  const std::size_t n = offsets.size();
  const __m256d vscale = _mm256_set1_pd(noise_scale);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t c = 0;
  std::size_t wi = 0;
  for (; n - c >= kWordBits; ++wi, c += kWordBits) {
    std::uint64_t word = 0;
    for (int k = 0; k < 16; ++k) {
      // Same order as the scalar expression: widen the float offset,
      // multiply scale * noise, add, compare. No FMA (see file header).
      const __m256d off =
          _mm256_cvtps_pd(_mm_loadu_ps(offsets.data() + c + 4 * k));
      const __m256d nz =
          _mm256_mul_pd(vscale, _mm256_loadu_pd(noise.data() + c + 4 * k));
      const __m256d sum = _mm256_add_pd(off, nz);
      const auto bits = static_cast<unsigned>(
          _mm256_movemask_pd(_mm256_cmp_pd(sum, zero, _CMP_GT_OQ)));
      word |= static_cast<std::uint64_t>(bits) << (4 * k);
    }
    mask.set_word(wi, word);
  }
  if (c < n) {
    std::uint64_t word = 0;
    for (std::size_t b = 0; c < n; ++b, ++c)
      word |= static_cast<std::uint64_t>(
                  offsets[c] + noise_scale * noise[c] > 0.0)
              << b;
    mask.set_word(wi, word);
  }
}

std::size_t lag8_full_words(const std::uint64_t* words, std::size_t count) {
  constexpr std::uint64_t kSampleBits = 0x0001'0001'0001'0001ULL;
  const __m256i sample =
      _mm256_set1_epi64x(static_cast<long long>(kSampleBits));
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i w =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    __m256i d = _mm256_xor_si256(w, _mm256_srli_epi64(w, 8));
    d = _mm256_and_si256(d, sample);
    // Every masked byte is 0 or 1, so the sum-of-absolute-differences
    // against zero is exactly the per-lane popcount.
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(d, zero));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::size_t disagree = static_cast<std::size_t>(lanes[0] + lanes[1] +
                                                  lanes[2] + lanes[3]);
  for (; i < count; ++i) {
    const std::uint64_t d = words[i] ^ (words[i] >> 8);
    disagree += static_cast<std::size_t>(std::popcount(d & kSampleBits));
  }
  return disagree;
}

void hashed_normal_fill(std::uint64_t prefix, std::span<float> out) {
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  // hash_combine(prefix, i) with the prefix terms hoisted:
  //   s  = prefix ^ (i + kGolden + (prefix << 6) + (prefix >> 2))
  //   h  = splitmix64(s)  (which first adds kGolden again)
  const std::uint64_t c0 = kGolden + (prefix << 6) + (prefix >> 2);
  const __m256i vprefix =
      _mm256_set1_epi64x(static_cast<long long>(prefix));
  const __m256i vc0 = _mm256_set1_epi64x(static_cast<long long>(c0));
  const __m256i vgolden =
      _mm256_set1_epi64x(static_cast<long long>(kGolden));
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d ulp53 = _mm256_set1_pd(0x1.0p-53);
  const __m256d clamp_lo = _mm256_set1_pd(1e-300);
  const __m256d clamp_hi = _mm256_set1_pd(1.0 - 1e-16);
  constexpr double kPlow = 0.02425;
  const __m256d plow = _mm256_set1_pd(kPlow);
  const __m256d phigh = _mm256_set1_pd(1.0 - kPlow);
  // Acklam's central-branch coefficients, identical to
  // inverse_normal_cdf (process_variation.cpp).
  const __m256d a0 = _mm256_set1_pd(-3.969683028665376e+01);
  const __m256d a1 = _mm256_set1_pd(2.209460984245205e+02);
  const __m256d a2 = _mm256_set1_pd(-2.759285104469687e+02);
  const __m256d a3 = _mm256_set1_pd(1.383577518672690e+02);
  const __m256d a4 = _mm256_set1_pd(-3.066479806614716e+01);
  const __m256d a5 = _mm256_set1_pd(2.506628277459239e+00);
  const __m256d b0 = _mm256_set1_pd(-5.447609879822406e+01);
  const __m256d b1 = _mm256_set1_pd(1.615858368580409e+02);
  const __m256d b2 = _mm256_set1_pd(-1.556989798598866e+02);
  const __m256d b3 = _mm256_set1_pd(6.680131188771972e+01);
  const __m256d b4 = _mm256_set1_pd(-1.328068155288572e+01);
  const __m256d one = _mm256_set1_pd(1.0);
  const std::size_t n = out.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i idx = _mm256_setr_epi64x(
        static_cast<long long>(i), static_cast<long long>(i + 1),
        static_cast<long long>(i + 2), static_cast<long long>(i + 3));
    __m256i s =
        _mm256_xor_si256(vprefix, _mm256_add_epi64(idx, vc0));
    s = _mm256_add_epi64(s, vgolden);  // splitmix64's own increment.
    const __m256i h = splitmix_mix(s);
    // hash_to_uniform: 53 high bits -> (0, 1), offset by half a ulp.
    const __m256d u = _mm256_mul_pd(
        _mm256_add_pd(u53_to_double(_mm256_srli_epi64(h, 11)), half),
        ulp53);
    // std::clamp(u, 1e-300, 1 - 1e-16), max-then-min (no NaNs here).
    const __m256d p =
        _mm256_min_pd(_mm256_max_pd(u, clamp_lo), clamp_hi);
    // Central branch, exact scalar operation order:
    //   num = (((((a0 r + a1) r + a2) r + a3) r + a4) r + a5) * q
    //   den = ((((b0 r + b1) r + b2) r + b3) r + b4) r + 1
    const __m256d q = _mm256_sub_pd(p, half);
    const __m256d r = _mm256_mul_pd(q, q);
    __m256d num = _mm256_add_pd(_mm256_mul_pd(a0, r), a1);
    num = _mm256_add_pd(_mm256_mul_pd(num, r), a2);
    num = _mm256_add_pd(_mm256_mul_pd(num, r), a3);
    num = _mm256_add_pd(_mm256_mul_pd(num, r), a4);
    num = _mm256_add_pd(_mm256_mul_pd(num, r), a5);
    num = _mm256_mul_pd(num, q);
    __m256d den = _mm256_add_pd(_mm256_mul_pd(b0, r), b1);
    den = _mm256_add_pd(_mm256_mul_pd(den, r), b2);
    den = _mm256_add_pd(_mm256_mul_pd(den, r), b3);
    den = _mm256_add_pd(_mm256_mul_pd(den, r), b4);
    den = _mm256_add_pd(_mm256_mul_pd(den, r), one);
    __m256d res = _mm256_div_pd(num, den);
    // Tail-probability lanes (~4.85%) re-run the exact scalar routine,
    // whose sqrt/log branches are not worth replicating in vector form.
    const __m256d tails =
        _mm256_or_pd(_mm256_cmp_pd(p, plow, _CMP_LT_OQ),
                     _mm256_cmp_pd(p, phigh, _CMP_GT_OQ));
    const int tail_mask = _mm256_movemask_pd(tails);
    if (tail_mask != 0) {
      alignas(32) double pbuf[4];
      alignas(32) double rbuf[4];
      _mm256_store_pd(pbuf, p);
      _mm256_store_pd(rbuf, res);
      for (int lane = 0; lane < 4; ++lane)
        if ((tail_mask & (1 << lane)) != 0)
          rbuf[lane] = inverse_normal_cdf(pbuf[lane]);
      res = _mm256_load_pd(rbuf);
    }
    _mm_storeu_ps(out.data() + i, _mm256_cvtpd_ps(res));
  }
  for (; i < n; ++i) {
    // Remainder: the exact scalar composition.
    const std::uint64_t h = hash_combine(prefix, i);
    const double u = (static_cast<double>(h >> 11) + 0.5) * 0x1.0p-53;
    out[i] = static_cast<float>(inverse_normal_cdf(u));
  }
}

void counter_normal_fill(std::uint64_t prefix, std::uint64_t base,
                         std::span<double> out) {
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  // hashed_normal_fill's machinery with a base draw offset and the result
  // kept in double precision (the counter-based noise sampler compares
  // against float offsets later, but the draws themselves are doubles).
  const std::uint64_t c0 = kGolden + (prefix << 6) + (prefix >> 2);
  const __m256i vprefix =
      _mm256_set1_epi64x(static_cast<long long>(prefix));
  const __m256i vc0 = _mm256_set1_epi64x(static_cast<long long>(c0));
  const __m256i vgolden =
      _mm256_set1_epi64x(static_cast<long long>(kGolden));
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d ulp53 = _mm256_set1_pd(0x1.0p-53);
  const __m256d clamp_lo = _mm256_set1_pd(1e-300);
  const __m256d clamp_hi = _mm256_set1_pd(1.0 - 1e-16);
  constexpr double kPlow = 0.02425;
  const __m256d plow = _mm256_set1_pd(kPlow);
  const __m256d phigh = _mm256_set1_pd(1.0 - kPlow);
  // Acklam's central-branch coefficients, identical to
  // inverse_normal_cdf (common/normal.cpp).
  const __m256d a0 = _mm256_set1_pd(-3.969683028665376e+01);
  const __m256d a1 = _mm256_set1_pd(2.209460984245205e+02);
  const __m256d a2 = _mm256_set1_pd(-2.759285104469687e+02);
  const __m256d a3 = _mm256_set1_pd(1.383577518672690e+02);
  const __m256d a4 = _mm256_set1_pd(-3.066479806614716e+01);
  const __m256d a5 = _mm256_set1_pd(2.506628277459239e+00);
  const __m256d b0 = _mm256_set1_pd(-5.447609879822406e+01);
  const __m256d b1 = _mm256_set1_pd(1.615858368580409e+02);
  const __m256d b2 = _mm256_set1_pd(-1.556989798598866e+02);
  const __m256d b3 = _mm256_set1_pd(6.680131188771972e+01);
  const __m256d b4 = _mm256_set1_pd(-1.328068155288572e+01);
  const __m256d one = _mm256_set1_pd(1.0);
  const std::size_t n = out.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::uint64_t d0 = base + i;
    const __m256i idx = _mm256_setr_epi64x(
        static_cast<long long>(d0), static_cast<long long>(d0 + 1),
        static_cast<long long>(d0 + 2), static_cast<long long>(d0 + 3));
    __m256i s =
        _mm256_xor_si256(vprefix, _mm256_add_epi64(idx, vc0));
    s = _mm256_add_epi64(s, vgolden);  // splitmix64's own increment.
    const __m256i h = splitmix_mix(s);
    const __m256d u = _mm256_mul_pd(
        _mm256_add_pd(u53_to_double(_mm256_srli_epi64(h, 11)), half),
        ulp53);
    const __m256d p =
        _mm256_min_pd(_mm256_max_pd(u, clamp_lo), clamp_hi);
    const __m256d q = _mm256_sub_pd(p, half);
    const __m256d r = _mm256_mul_pd(q, q);
    __m256d num = _mm256_add_pd(_mm256_mul_pd(a0, r), a1);
    num = _mm256_add_pd(_mm256_mul_pd(num, r), a2);
    num = _mm256_add_pd(_mm256_mul_pd(num, r), a3);
    num = _mm256_add_pd(_mm256_mul_pd(num, r), a4);
    num = _mm256_add_pd(_mm256_mul_pd(num, r), a5);
    num = _mm256_mul_pd(num, q);
    __m256d den = _mm256_add_pd(_mm256_mul_pd(b0, r), b1);
    den = _mm256_add_pd(_mm256_mul_pd(den, r), b2);
    den = _mm256_add_pd(_mm256_mul_pd(den, r), b3);
    den = _mm256_add_pd(_mm256_mul_pd(den, r), b4);
    den = _mm256_add_pd(_mm256_mul_pd(den, r), one);
    __m256d res = _mm256_div_pd(num, den);
    // Tail-probability lanes re-run the exact scalar routine.
    const __m256d tails =
        _mm256_or_pd(_mm256_cmp_pd(p, plow, _CMP_LT_OQ),
                     _mm256_cmp_pd(p, phigh, _CMP_GT_OQ));
    const int tail_mask = _mm256_movemask_pd(tails);
    if (tail_mask != 0) {
      alignas(32) double pbuf[4];
      alignas(32) double rbuf[4];
      _mm256_store_pd(pbuf, p);
      _mm256_store_pd(rbuf, res);
      for (int lane = 0; lane < 4; ++lane)
        if ((tail_mask & (1 << lane)) != 0)
          rbuf[lane] = inverse_normal_cdf(pbuf[lane]);
      res = _mm256_load_pd(rbuf);
    }
    _mm256_storeu_pd(out.data() + i, res);
  }
  for (; i < n; ++i) {
    // Remainder: the exact scalar composition (CounterStream::at).
    const std::uint64_t h = hash_combine(prefix, base + i);
    out[i] = inverse_normal_cdf(uniform_from_hash(h));
  }
}

void margin_chain(std::span<const float> sums, const MarginChainParams& p,
                  std::span<double> zg, std::span<std::int32_t> flags) {
  const std::size_t n = sums.size();
  const double denom0 = p.cap_ratio + p.n_connected;
  const __m256d vgain = _mm256_set1_pd(p.gain);
  const __m256d vthr = _mm256_set1_pd(p.threshold);
  const __m256d vnd = _mm256_set1_pd(p.noise_denominator);
  const __m256d vpen = _mm256_set1_pd(p.z_penalty);
  const __m256d vshift = _mm256_set1_pd(p.vendor_shift);
  const __m256d vg = _mm256_set1_pd(p.g);
  constexpr std::size_t kChunk = 64;
  alignas(32) double pow_buf[kChunk];
  for (std::size_t start = 0; start < n; start += kChunk) {
    const std::size_t limit = std::min(kChunk, n - start);
    // Pass 1 (scalar): tie classification and the std::pow transcendental
    // — libm keeps both tiers bit-identical.
    bool any_tie = false;
    for (std::size_t j = 0; j < limit; ++j) {
      const double sum = sums[start + j];
      if (std::abs(sum) < 1e-9) {  // is_tie_sum, spelled out.
        flags[start + j] = kClassTie;
        pow_buf[j] = 0.0;
        any_tie = true;
        continue;
      }
      flags[start + j] = sum > 0.0 ? kClassMajorityOne : 0;
      pow_buf[j] = std::pow(std::abs(sum) / denom0, p.margin_exponent);
    }
    // Pass 2 (vector): the surrounding multiply/subtract/divide chain in
    // the exact scalar operation order.
    std::size_t j = 0;
    for (; j + 4 <= limit; j += 4) {
      const __m256d x =
          _mm256_mul_pd(vgain, _mm256_load_pd(pow_buf + j));
      const __m256d z = _mm256_add_pd(
          _mm256_sub_pd(_mm256_div_pd(_mm256_sub_pd(x, vthr), vnd), vpen),
          vshift);
      _mm256_storeu_pd(zg.data() + start + j, _mm256_div_pd(z, vg));
    }
    for (; j < limit; ++j) {
      const double x = p.gain * pow_buf[j];
      const double z = (x - p.threshold) / p.noise_denominator - p.z_penalty +
                       p.vendor_shift;
      zg[start + j] = z / p.g;
    }
    if (any_tie) {
      for (std::size_t t = 0; t < limit; ++t)
        if ((flags[start + t] & kClassTie) != 0) zg[start + t] = 0.0;
    }
  }
}

void hashed_threshold_mask(std::uint64_t prefix, std::uint64_t bound,
                           BitVec& mask) {
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  // Same hoisted hash_combine as hashed_normal_fill. Both sides of the
  // compare stay below 2^63, so the signed cmpgt is the unsigned m < bound.
  const std::uint64_t c0 = kGolden + (prefix << 6) + (prefix >> 2);
  const __m256i vprefix =
      _mm256_set1_epi64x(static_cast<long long>(prefix));
  const __m256i vc0 = _mm256_set1_epi64x(static_cast<long long>(c0));
  const __m256i vgolden =
      _mm256_set1_epi64x(static_cast<long long>(kGolden));
  const __m256i vbound = _mm256_set1_epi64x(static_cast<long long>(bound));
  const __m256i four = _mm256_set1_epi64x(4);
  __m256i idx = _mm256_setr_epi64x(0, 1, 2, 3);
  const std::size_t n = mask.size();
  std::size_t c = 0;
  std::size_t wi = 0;
  for (; n - c >= kWordBits; ++wi, c += kWordBits) {
    std::uint64_t word = 0;
    for (int k = 0; k < 16; ++k) {
      __m256i s = _mm256_xor_si256(vprefix, _mm256_add_epi64(idx, vc0));
      s = _mm256_add_epi64(s, vgolden);  // splitmix64's own increment.
      const __m256i m = _mm256_srli_epi64(splitmix_mix(s), 11);
      const auto bits = static_cast<unsigned>(_mm256_movemask_pd(
          _mm256_castsi256_pd(_mm256_cmpgt_epi64(vbound, m))));
      word |= static_cast<std::uint64_t>(bits) << (4 * k);
      idx = _mm256_add_epi64(idx, four);
    }
    mask.set_word(wi, word);
  }
  if (c < n) {
    std::uint64_t word = 0;
    for (std::size_t b = 0; c < n; ++b, ++c)
      word |= static_cast<std::uint64_t>((hash_combine(prefix, c) >> 11) <
                                         bound)
              << b;
    mask.set_word(wi, word);
  }
}

}  // namespace simra::dram::kernels::avx2

#else  // !defined(__AVX2__)

#include <cstdlib>

namespace simra::dram::kernels::avx2 {

// Toolchain without AVX2: the dispatcher never resolves to this tier
// (compiled() gates avx2_supported()), so these bodies are unreachable.

bool compiled() noexcept { return false; }

std::uint64_t compare_lt_word(const double*, std::size_t, double) {
  std::abort();
}
std::uint64_t compare_lt_class_bounds(const float*, std::size_t,
                                      const ClassBound*, std::size_t) {
  std::abort();
}
std::uint64_t compare_gt_float_word(const float*, std::size_t, float) {
  std::abort();
}
void offset_noise_mask(std::span<const float>, std::span<const double>,
                       double, BitVec&) {
  std::abort();
}
std::size_t lag8_full_words(const std::uint64_t*, std::size_t) {
  std::abort();
}
void hashed_normal_fill(std::uint64_t, std::span<float>) { std::abort(); }
void hashed_threshold_mask(std::uint64_t, std::uint64_t, BitVec&) {
  std::abort();
}
void counter_normal_fill(std::uint64_t, std::uint64_t, std::span<double>) {
  std::abort();
}
void margin_chain(std::span<const float>, const MarginChainParams&,
                  std::span<double>, std::span<std::int32_t>) {
  std::abort();
}

}  // namespace simra::dram::kernels::avx2

#endif  // defined(__AVX2__)
