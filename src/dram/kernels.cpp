#include "dram/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/env.hpp"
#include "common/normal.hpp"
#include "common/rng.hpp"
#include "dram/kernels_simd.hpp"
#include "dram/process_variation.hpp"

namespace simra::dram::kernels {

namespace {

constexpr std::size_t kWordBits = 64;

/// -1 = not yet resolved from the environment; test overrides win.
std::atomic<int> g_tier{-1};

SimdTier resolve_tier() {
  const std::string mode = env_string("SIMRA_SIMD", "auto");
  if (mode == "scalar") return SimdTier::scalar;
  // "avx2" and "auto" both want the vector tier; the difference is only
  // intent, and an unsupported machine degrades to scalar either way.
  return avx2_supported() ? SimdTier::avx2 : SimdTier::scalar;
}

double hash_to_uniform(std::uint64_t h) {
  // 53 high bits -> (0, 1); offset by half a ulp to avoid exact 0.
  return (static_cast<double>(h >> 11) + 0.5) * 0x1.0p-53;
}

}  // namespace

bool avx2_supported() noexcept {
#if defined(__GNUC__) || defined(__clang__)
  return avx2::compiled() && __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

SimdTier active_simd() noexcept {
  const int cached = g_tier.load(std::memory_order_relaxed);
  if (cached >= 0) return static_cast<SimdTier>(cached);
  const SimdTier tier = resolve_tier();
  int expected = -1;
  g_tier.compare_exchange_strong(expected, static_cast<int>(tier),
                                 std::memory_order_relaxed);
  return tier;
}

void set_simd_for_test(std::optional<SimdTier> tier) noexcept {
  if (tier && *tier == SimdTier::avx2 && !avx2_supported()) return;
  g_tier.store(tier ? static_cast<int>(*tier) : -1,
               std::memory_order_relaxed);
}

const char* simd_name(SimdTier tier) noexcept {
  return tier == SimdTier::avx2 ? "avx2" : "scalar";
}

BitVec latch_race_mask(std::span<const float> race, double latch_fraction) {
  BitVec mask(race.size());
  const std::size_t n = race.size();
  if (active_simd() == SimdTier::avx2) {
    // The transcendental stays scalar (bit-identity with libm); only the
    // compare + pack stage vectorizes, one stack-resident word chunk at a
    // time so the hot loop never allocates.
    alignas(32) double cdf[kWordBits];
    std::size_t c = 0;
    for (std::size_t wi = 0; c < n; ++wi) {
      const std::size_t limit = std::min(kWordBits, n - c);
      for (std::size_t b = 0; b < limit; ++b) cdf[b] = normal_cdf(race[c + b]);
      mask.set_word(wi, avx2::compare_lt_word(cdf, limit, latch_fraction));
      c += limit;
    }
    return mask;
  }
  std::size_t c = 0;
  for (std::size_t wi = 0; c < n; ++wi) {
    std::uint64_t word = 0;
    const std::size_t limit = std::min(kWordBits, n - c);
    for (std::size_t b = 0; b < limit; ++b, ++c)
      word |= static_cast<std::uint64_t>(normal_cdf(race[c]) < latch_fraction)
              << b;
    mask.set_word(wi, word);
  }
  return mask;
}

BitVec offset_noise_mask(std::span<const float> offsets,
                         std::span<const double> noise, double noise_scale) {
  if (offsets.size() != noise.size())
    throw std::invalid_argument("offset/noise span size mismatch");
  BitVec mask(offsets.size());
  if (active_simd() == SimdTier::avx2) {
    avx2::offset_noise_mask(offsets, noise, noise_scale, mask);
    return mask;
  }
  const std::size_t n = offsets.size();
  std::size_t c = 0;
  for (std::size_t wi = 0; c < n; ++wi) {
    std::uint64_t word = 0;
    const std::size_t limit = std::min(kWordBits, n - c);
    for (std::size_t b = 0; b < limit; ++b, ++c)
      word |= static_cast<std::uint64_t>(offsets[c] + noise_scale * noise[c] >
                                         0.0)
              << b;
    mask.set_word(wi, word);
  }
  return mask;
}

std::size_t lag8_disagreement(const BitVec& v, std::size_t& total) {
  const std::size_t n = v.size();
  if (n <= 8) return 0;
  // Sampled positions c = 0, 16, 32, ... with c + 8 < n. Within a word the
  // sample bits are {0, 16, 32, 48} and their lag-8 partners {8, 24, 40,
  // 56} never cross the word boundary, so diff = word ^ (word >> 8) holds
  // every sampled comparison.
  constexpr std::uint64_t kSampleBits = 0x0001'0001'0001'0001ULL;
  const std::size_t last_sample = ((n - 9) / 16) * 16;  // largest valid c.
  std::size_t disagree = 0;
  const auto& words = v.words();
  std::size_t wi = 0;
  if (active_simd() == SimdTier::avx2) {
    // Words whose four sample bits are all valid (base + 48 <=
    // last_sample) take the vector path; the boundary word falls through
    // to the scalar loop below.
    const std::size_t full =
        last_sample >= 48 ? (last_sample - 48) / kWordBits + 1 : 0;
    disagree += avx2::lag8_full_words(words.data(), full);
    wi = full;
  }
  for (; wi * kWordBits <= last_sample; ++wi) {
    const std::uint64_t word = words[wi];
    const std::uint64_t diff = word ^ (word >> 8);
    std::uint64_t sample = kSampleBits;
    const std::size_t base = wi * kWordBits;
    if (base + 48 > last_sample) {
      sample = 0;
      for (std::size_t b = 0; b < kWordBits; b += 16)
        if (base + b <= last_sample) sample |= 1ULL << b;
    }
    disagree += static_cast<std::size_t>(std::popcount(diff & sample));
  }
  total += last_sample / 16 + 1;
  return disagree;
}

void column_popcounts(std::span<const BitVec* const> rows, std::size_t word,
                      std::span<std::uint64_t> planes) {
  if (rows.size() > 63)
    throw std::invalid_argument("column_popcounts supports up to 63 rows");
  const auto width = static_cast<std::size_t>(std::bit_width(rows.size()));
  if (planes.size() < width)
    throw std::invalid_argument("column_popcounts needs more planes");
  std::fill(planes.begin(), planes.end(), 0);
  // Bit-sliced ripple-carry accumulation: plane p holds bit p of every
  // column's running count. Counts stay below 2^width, so the carry out
  // of the top plane is always zero. The carry runs through every plane
  // rather than stopping when it clears: with data-dependent words that
  // exit is a branch mispredicted about once per row.
  for (const BitVec* row : rows) {
    if (word >= row->word_count())
      throw std::invalid_argument("column_popcounts row narrower than word");
    std::uint64_t carry = row->words()[word];
    for (std::size_t p = 0; p < width; ++p) {
      const std::uint64_t prev = planes[p];
      planes[p] ^= carry;
      carry &= prev;
    }
  }
}

void hashed_normal_fill(std::uint64_t prefix, std::span<float> out) {
  if (active_simd() == SimdTier::avx2) {
    avx2::hashed_normal_fill(prefix, out);
    return;
  }
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<float>(
        inverse_normal_cdf(hash_to_uniform(hash_combine(prefix, i))));
}

std::uint64_t uniform_bound(float u_eff) noexcept {
  std::uint64_t lo = 0;
  for (std::uint64_t hi = std::uint64_t{1} << 53; lo < hi;) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (static_cast<float>(hash_to_uniform(mid << 11)) < u_eff)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

BitVec hashed_threshold_mask(std::uint64_t prefix, std::size_t count,
                             float u_eff) {
  const std::uint64_t bound = uniform_bound(u_eff);
  BitVec mask(count);
  if (active_simd() == SimdTier::avx2) {
    avx2::hashed_threshold_mask(prefix, bound, mask);
    return mask;
  }
  std::size_t c = 0;
  for (std::size_t wi = 0; c < count; ++wi) {
    std::uint64_t word = 0;
    const std::size_t limit = std::min(kWordBits, count - c);
    for (std::size_t b = 0; b < limit; ++b, ++c)
      word |= static_cast<std::uint64_t>((hash_combine(prefix, c) >> 11) <
                                         bound)
              << b;
    mask.set_word(wi, word);
  }
  return mask;
}

void counter_normal_fill(std::uint64_t prefix, std::uint64_t base,
                         std::span<double> out) {
  if (active_simd() == SimdTier::avx2) {
    avx2::counter_normal_fill(prefix, base, out);
    return;
  }
  // The exact math of Rng::CounterStream::at (rng.cpp), per index.
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] =
        inverse_normal_cdf(uniform_from_hash(hash_combine(prefix, base + i)));
}

void margin_chain(std::span<const float> sums, const MarginChainParams& p,
                  std::span<double> zg, std::span<std::int32_t> flags) {
  if (zg.size() != sums.size() || flags.size() != sums.size())
    throw std::invalid_argument("margin_chain table size mismatch");
  if (active_simd() == SimdTier::avx2) {
    avx2::margin_chain(sums, p, zg, flags);
    return;
  }
  for (std::size_t i = 0; i < sums.size(); ++i) {
    const double sum = sums[i];
    if (is_tie_sum(sums[i])) {
      flags[i] = kClassTie;
      zg[i] = 0.0;
      continue;
    }
    flags[i] = sum > 0.0 ? kClassMajorityOne : 0;
    const double x =
        p.gain * std::pow(std::abs(sum) / (p.cap_ratio + p.n_connected),
                          p.margin_exponent);
    const double z = (x - p.threshold) / p.noise_denominator - p.z_penalty +
                     p.vendor_shift;
    zg[i] = z / p.g;
  }
}

namespace {

/// Calls leaf(cls, columns) once for every class index present among the
/// `columns` bits: the column set splits on each plane's bit, top plane
/// first, so only realized classes are ever visited and the work is
/// O(planes) word ops per class present, never per column.
template <typename Leaf>
void for_each_class(const ClassPlanes& planes, std::size_t plane,
                    std::size_t cls, std::uint64_t columns, Leaf& leaf) {
  if (plane == 0) {
    leaf(cls, columns);
    return;
  }
  --plane;
  if (const std::uint64_t ones = columns & planes.planes[plane])
    for_each_class(planes, plane, cls | (std::size_t{1} << plane), ones, leaf);
  if (const std::uint64_t zeros = columns & ~planes.planes[plane])
    for_each_class(planes, plane, cls, zeros, leaf);
}

/// The smallest float t with double(t) >= zg, so that for every float z
/// (zg > z) <=> (z < t): the double compare of the scalar loop as a float
/// compare, eight lanes per instruction.
float float_bound(double zg) {
  float t = static_cast<float>(zg);
  if (static_cast<double>(t) < zg)
    t = std::nextafter(t, std::numeric_limits<float>::infinity());
  return t;
}

}  // namespace

WordVerdict resolve_word(const ClassPlanes& planes, std::uint64_t undecided,
                         std::span<const double> zg,
                         std::span<const std::int32_t> flags,
                         std::span<const float> zetas,
                         std::span<const float> polarities) {
  const std::size_t n = zetas.size();
  if (polarities.size() != n || n > kWordBits ||
      (n < kWordBits && (undecided >> n) != 0))
    throw std::invalid_argument("resolve_word column span mismatch");
  if (planes.count > ClassPlanes::kMaxPlanes ||
      zg.size() < (std::size_t{1} << planes.count) ||
      flags.size() != zg.size())
    throw std::invalid_argument("resolve_word class table too small");
  WordVerdict v;
  if (undecided == 0) return v;
  const bool use_avx2 = active_simd() == SimdTier::avx2;
  std::uint64_t majority = 0;
  avx2::ClassBound bounds[kWordBits];  // at most one class per column.
  std::size_t n_bounds = 0;
  auto leaf = [&](std::size_t cls, std::uint64_t columns) {
    if ((flags[cls] & kClassPending) != 0) {
      v.pending |= columns;
      return;
    }
    if ((flags[cls] & kClassMajorityOne) != 0) majority |= columns;
    if (use_avx2) {
      bounds[n_bounds++] = {columns, float_bound(zg[cls])};
      return;
    }
    for (std::uint64_t rest = columns; rest != 0; rest &= rest - 1) {
      const auto b = static_cast<std::size_t>(std::countr_zero(rest));
      if (zg[cls] > zetas[b]) v.stable |= 1ULL << b;
    }
  };
  for_each_class(planes, planes.count, 0, undecided, leaf);
  if (use_avx2)
    v.stable = avx2::compare_lt_class_bounds(zetas.data(), n, bounds, n_bounds);
  v.resolved = v.stable & majority;

  // Columns below their class's margin fall to their SA's polarity.
  const std::uint64_t weak = undecided & ~v.pending & ~v.stable;
  if (use_avx2) {
    v.resolved |= avx2::compare_gt_float_word(polarities.data(), n, 0.0f) &
                  weak;
  } else {
    for (std::uint64_t rest = weak; rest != 0; rest &= rest - 1) {
      const auto b = static_cast<std::size_t>(std::countr_zero(rest));
      if (polarities[b] > 0.0f) v.resolved |= 1ULL << b;
    }
  }
  return v;
}

}  // namespace simra::dram::kernels
