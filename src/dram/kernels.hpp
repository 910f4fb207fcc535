#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <span>

#include "common/bitvec.hpp"

namespace simra::dram::kernels {

/// Word-parallel predicate kernels for the electrical model's per-column
/// hot path. Every kernel computes the exact same per-column math as the
/// scalar loop it replaces (same comparisons on the same values), packing
/// the 64 per-column results of each word with shifts instead of per-bit
/// BitVec::set calls — the value-preservation invariant the
/// golden-equivalence suite enforces.
///
/// Each kernel additionally carries an AVX2 implementation selected by
/// runtime dispatch (`active_simd()`); the vector paths replicate the
/// scalar operation order exactly (no FMA contraction, same IEEE
/// exactly-rounded mul/add/div sequence), so scalar and AVX2 runs are
/// bit-identical — enforced by the same golden suite under
/// SIMRA_SIMD=scalar vs avx2.

/// Instruction tier the kernels execute with.
enum class SimdTier { scalar, avx2 };

/// Whether this build + CPU can run the AVX2 paths (compiled in and
/// reported by cpuid).
bool avx2_supported() noexcept;

/// The resolved tier: `SIMRA_SIMD` = "scalar" forces scalar, "avx2"
/// requests AVX2 (falling back to scalar when unsupported), anything
/// else / unset auto-detects. Read once and cached; test overrides win.
SimdTier active_simd() noexcept;

/// Overrides (or with nullopt, restores) the cached dispatch decision.
/// A forced avx2 override on a non-AVX2 machine is ignored.
void set_simd_for_test(std::optional<SimdTier> tier) noexcept;

/// Lower-case tier name ("scalar", "avx2") for manifests and bench rows.
const char* simd_name(SimdTier tier) noexcept;

/// mask[c] = (normal_cdf(race[c]) < latch_fraction): which sense
/// amplifiers won the latch race at a partial latch fraction.
BitVec latch_race_mask(std::span<const float> race, double latch_fraction);

/// mask[c] = (offsets[c] + noise_scale * noise[c] > 0): sense-amplifier
/// offset plus per-trial thermal noise (the Frac-row sensing kernel).
BitVec offset_noise_mask(std::span<const float> offsets,
                         std::span<const double> noise, double noise_scale);

/// Lag-8 bit disagreement of `v`, sampled every 16th position c with
/// c + 8 < v.size(): returns the number of sampled disagreements and adds
/// the number of sampled positions to `total`. Word-shift/XOR equivalent
/// of probing get(c) != get(c + 8) bit by bit. Rows of <= 8 bits
/// contribute nothing (mirrors the scalar guard).
std::size_t lag8_disagreement(const BitVec& v, std::size_t& total);

/// Per-column popcount across up to 63 rows at one 64-column word,
/// bit-sliced: on return bit b of planes[p] is bit p of the number of
/// `rows` with column 64 * word + b set. A ripple-carry adder over the
/// row words — O(planes) word ops per row, no per-column work. `planes`
/// must hold at least bit_width(rows.size()) entries and is overwritten.
void column_popcounts(std::span<const BitVec* const> rows, std::size_t word,
                      std::span<std::uint64_t> planes);

/// out[i] = float(inverse_normal_cdf(uniform(hash_combine(prefix, i)))) —
/// the batched hashed-normal evaluation behind
/// VariationField::normal_fill, hoisted here so the splitmix64 rounds and
/// the inverse-CDF central branch can run vectorized. Bit-identical to
/// the scalar per-index calls at every tier.
void hashed_normal_fill(std::uint64_t prefix, std::span<float> out);

/// mask[i] = (float(uniform(hash_combine(prefix, i))) < u_eff) for
/// i < count: the hashed uniforms underneath hashed_normal_fill, compared
/// against a threshold without being stored. The shared stability compare
/// of write_overdrive_mask and copy_stable_mask: against a normal deviate
/// it is monotone-equivalent in the uniform domain (zeta < z <=>
/// u < normal_cdf(z)), so no inverse CDF runs.
///
/// The float uniform is monotone non-decreasing in the hash's 53 high
/// bits m = h >> 11, so the compare holds exactly for m below
/// uniform_bound(u_eff); each column costs a hash and an integer compare.
/// u_eff <= 0 and NaN give all zeros, u_eff > 1 all ones.
BitVec hashed_threshold_mask(std::uint64_t prefix, std::size_t count,
                             float u_eff);

/// The smallest m in [0, 2^53] with !(float((m + 0.5) * 2^-53) < u_eff):
/// the compare holds for every m below it and for none at or above.
/// Binary search over that exact scalar expression, 53 steps.
std::uint64_t uniform_bound(float u_eff) noexcept;

/// out[i] = inverse_normal_cdf(uniform_from_hash(hash_combine(prefix,
/// base + i))) in double precision — the SIMD-dispatched body of
/// Rng::CounterStream::fill (rng.hpp), bit-identical to its scalar
/// reference at every tier. `base` is the stream's reserved draw index,
/// so fill(N) and fill(N/2)+fill(N/2) produce the same doubles and any
/// chunking or thread schedule that preserves indices is value-invariant.
void counter_normal_fill(std::uint64_t prefix, std::uint64_t base,
                         std::span<double> out);

/// Parameters of the per-class sense-margin chain (the gain/pow/threshold
/// math of ElectricalModel::resolve_charge_share), captured once per
/// resolution.
struct MarginChainParams {
  double gain = 0.0;
  double g = 1.0;                ///< group quality divisor.
  double noise_denominator = 1.0;
  double threshold = 0.0;
  double vendor_shift = 0.0;
  double z_penalty = 0.0;        ///< APA-regime margin penalty.
  double n_connected = 0.0;      ///< rows sharing charge (incl. Frac rows).
  double cap_ratio = 0.0;
  double margin_exponent = 1.0;
};

/// margin_chain flag bits (one entry per sum class).
inline constexpr std::int32_t kClassTie = 1;          ///< |sum| < 1e-9.
inline constexpr std::int32_t kClassMajorityOne = 2;  ///< sum > 0.
/// Set by callers on a class-table entry whose margin is not computed yet;
/// margin_chain never produces it.
inline constexpr std::int32_t kClassPending = 4;

/// The tie criterion of a class sum: a perfect charge balance, on which
/// the sense amplifier resolves metastably.
inline bool is_tie_sum(float sum) noexcept {
  return std::abs(static_cast<double>(sum)) < 1e-9;
}

/// Batched per-class margin chain: for every class sum,
///   tie (is_tie_sum)    ->  flags = kClassTie, zg = 0
///   else                ->  flags = (sum > 0) ? kClassMajorityOne : 0,
///     x  = gain * pow(|sum| / (cap_ratio + n_connected), margin_exponent)
///     zg = ((x - threshold) / noise_denominator - z_penalty
///           + vendor_shift) / g
/// filling the class -> verdict table in one pass. std::pow stays scalar
/// (libm bit-identity) at every tier; the surrounding arithmetic
/// vectorizes. `zg` and `flags` must match `sums` in size. Each entry
/// depends on its own sum only, so any batching of the classes yields
/// the same values.
void margin_chain(std::span<const float> sums, const MarginChainParams& p,
                  std::span<double> zg, std::span<std::int32_t> flags);

/// Class indices of one 64-column word in bit-sliced form: bit b of
/// planes[j] is bit j of column b's class index, for j < count.
struct ClassPlanes {
  static constexpr std::size_t kMaxPlanes = 12;
  std::uint64_t planes[kMaxPlanes] = {};
  std::size_t count = 0;

  /// Column b's class index.
  std::size_t index(std::size_t b) const noexcept {
    std::size_t cls = 0;
    for (std::size_t j = 0; j < count; ++j)
      cls |= static_cast<std::size_t>((planes[j] >> b) & 1ULL) << j;
    return cls;
  }
  /// Bit b set iff column b's class index is `cls`.
  std::uint64_t match(std::size_t cls) const noexcept {
    std::uint64_t m = ~0ULL;
    for (std::size_t j = 0; j < count; ++j)
      m &= ((cls >> j) & 1U) != 0 ? planes[j] : ~planes[j];
    return m;
  }
};

/// One word's verdicts from resolve_word (bit b = column b of the word).
struct WordVerdict {
  std::uint64_t resolved = 0;
  std::uint64_t stable = 0;
  std::uint64_t pending = 0;  ///< columns whose class is kClassPending.
};

/// Resolves the `undecided` columns of one 64-column word against a
/// class -> verdict table. With cls = planes.index(b), for each bit b of
/// `undecided`:
///   flags[cls] pending    -> pending bit b (the caller computes the class
///                            and resolves those columns again),
///   zg[cls] > zetas[b]    -> resolved = majority bit, stable bit set,
///   otherwise             -> resolved = (polarities[b] > 0).
/// Columns outside `undecided` stay clear, so a fully decided word costs
/// nothing. Tie-class columns must not be in `undecided`: their values
/// come from the caller's ordered coin flips. `zetas` and `polarities`
/// hold the word's columns (<= 64; fewer on the boundary word), `undecided`
/// has no bit at or past their size, and the table covers every index the
/// planes can form (2^planes.count entries).
///
/// No per-column class index is formed: the undecided set splits on the
/// planes into one column mask per class present, and each class's
/// margin compares against the zetas of the 8-column groups it occupies
/// (AVX2: a float compare against the smallest float >= zg, exact for
/// float zetas). Bit-identical to the per-column branch of the scalar
/// loop.
WordVerdict resolve_word(const ClassPlanes& planes, std::uint64_t undecided,
                         std::span<const double> zg,
                         std::span<const std::int32_t> flags,
                         std::span<const float> zetas,
                         std::span<const float> polarities);

}  // namespace simra::dram::kernels
