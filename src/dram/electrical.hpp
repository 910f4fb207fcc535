#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "dram/process_variation.hpp"
#include "dram/types.hpp"
#include "dram/vendor.hpp"

namespace simra::dram {

/// Operating environment of a chip, set through the testbed's temperature
/// controller and VPP power supply (§3.1).
struct EnvironmentState {
  Celsius temperature{50.0};
  Volts vpp{2.5};
};

/// What an ACT -> PRE -> ACT sequence does, decided by the two timing
/// delays (t1 between ACT and PRE, t2 between PRE and ACT) relative to the
/// device's internal milestones (§2.2, §3).
enum class ApaRegime {
  kNormal,        ///< Timings respected: plain close-then-open.
  kConsecutive,   ///< t2 moderate: wordline swapped while SA latched (RowClone).
  kSimultaneous,  ///< t2 <= ~3 ns: PRE interrupted, many rows open at once.
  kGated,         ///< Vendor ignores the violated command (Mfr. S).
};

/// Quantified consequences of an APA timing choice.
struct ApaDecision {
  ApaRegime regime = ApaRegime::kNormal;
  /// True when the first row's SA had latched (t1 >= sense enable): the
  /// simultaneous activation is SA-driven (Multi-RowCopy) rather than a
  /// charge-share (MAJ).
  bool sa_latched = false;
  /// Fraction of bitlines whose SA managed to latch the source value
  /// (partial for intermediate t1; drives Obs. 15).
  double latch_fraction = 1.0;
  /// Extra charge-share weight of the first-activated row (Obs. 7 hyp. 1).
  double first_row_extra_weight = 0.0;
  /// Charge-transfer weight of the second-group rows (< 1 when t2 is too
  /// short for the wordlines to assert fully).
  double second_group_weight = 1.0;
  /// Per-row probability that a second-group wordline fails to assert
  /// (t2 = 1.5 ns weak re-latch; lower whiskers of Fig 3).
  double row_dropout_probability = 0.0;
  /// Normalized margin penalty applied to WR overdrive (SMRA test).
  double smra_z_penalty = 0.0;
  /// Normalized margin penalty applied to charge-share sensing (MAJX).
  double majx_z_penalty = 0.0;
};

/// One row participating in a charge-share resolution.
struct ConnectedRow {
  RowAddr local_row = 0;
  const BitVec* data = nullptr;  ///< nullptr = Frac row at VDD/2.
  double weight = 1.0;           ///< charge-transfer weight.
};

/// Stable coordinates of the bitline population being resolved, used to
/// key the persistent process-variation deviates.
struct BitlineContext {
  BankId bank = 0;
  SubarrayId subarray = 0;
  /// Hash identifying the simultaneously activated row set (group quality).
  std::uint64_t group_key = 0;
  std::size_t columns = 0;
};

/// Output of a charge-share resolution.
struct ChargeShareResult {
  BitVec resolved;       ///< value latched by each sense amplifier.
  BitVec stable;         ///< bit set where the outcome is deterministic.
  std::size_t ties = 0;  ///< columns with exactly zero net imbalance
                         ///< (decided ones included).
};

/// Thread-safe LRU cache of deviate spans. Every ElectricalModel owns one;
/// the slot models of one physical chip can instead share a single cache
/// (`ElectricalModel::share_deviates`): every slot's `Chip` is seeded with
/// the same chip seed (one chip, one variation field), so without sharing
/// each slot recomputes identical spans. Spans are handed out as
/// shared_ptr — eviction here only drops the cache's reference, never a
/// span a caller is still holding — and computed under the lock, so
/// concurrent slots requesting the same span dedupe instead of racing.
/// Purely a memo of the deterministic variation field: sharing cannot
/// change any value.
class DeviateCache {
 public:
  /// The normal deviates `field.normal_fill(salt, k1, k2, ...)`. The
  /// returned block holds `count` floats and stays valid for the lifetime
  /// of the shared_ptr regardless of eviction.
  std::shared_ptr<const float[]> get_or_compute(std::uint64_t salt,
                                               std::uint64_t k1,
                                               std::uint64_t k2,
                                               std::size_t count,
                                               const VariationField& field);

 private:
  /// Full identity of one span. Keying by the whole tuple (rather than a
  /// folded 64-bit digest) makes hash collisions harmless: equal keys are
  /// equal spans by construction.
  struct Key {
    std::uint64_t salt = 0;
    std::uint64_t k1 = 0;
    std::uint64_t k2 = 0;
    std::size_t count = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };
  struct Entry {
    std::shared_ptr<const float[]> values;
    std::list<Key>::iterator order_it;
  };
  std::mutex mutex_;
  std::list<Key> order_;  ///< recency order, front = coldest.
  std::unordered_map<Key, Entry, KeyHash> map_;
};

/// The analog behaviour model: charge sharing, sensing margins, write
/// overdrive, and copy stability, with persistent process variation.
///
/// All success statistics in the characterization flow through the three
/// resolve/stability entry points below; see calibration.hpp for the
/// provenance of every constant.
class ElectricalModel {
 public:
  ElectricalModel(const VendorProfile* profile, const VariationField* variation);

  /// Points the model's span lookups at `cache` (non-owning) instead of
  /// its own cache, so sibling slot models of the same chip reuse spans;
  /// nullptr returns to the model's own cache.
  void share_deviates(DeviateCache* cache) noexcept {
    deviates_ = cache != nullptr ? cache : &own_deviates_;
  }

  /// Classifies an APA timing pair against the vendor's milestones.
  ApaDecision classify_apa(Nanoseconds t1, Nanoseconds t2) const;

  /// Resolves the sense amplifiers for a simultaneous charge share across
  /// `rows` (the MAJ regime). `pattern_noise` in [0, 0.5] is the
  /// bitline-coupling activity of the stored data (see
  /// pattern_coupling_fraction); `env` scales the charge gain. Bitlines
  /// set in `decided` (sized ctx.columns) already hold their value — the
  /// SAs that latched the source row before the other rows connected —
  /// so the resolve skips them: their `resolved` and `stable` bits carry
  /// no meaning, and the caller supplies the value. Metastable (perfect
  /// tie) bitlines resolve to a per-trial coin flip drawn from `rng`,
  /// one draw per tie column in ascending column order, decided or not:
  /// the draw sequence, and with it every later use of `rng`, does not
  /// depend on the latch race. `ties` counts those draws.
  ChargeShareResult resolve_charge_share(const BitlineContext& ctx,
                                         std::span<const ConnectedRow> rows,
                                         double pattern_noise,
                                         const EnvironmentState& env,
                                         const ApaDecision& apa,
                                         const BitVec& decided,
                                         Rng& rng) const;

  /// Per-cell stability of a WR overdrive into `group_rows` simultaneously
  /// open rows (the §3.2 SMRA experiment). Returns, for one destination
  /// row, the mask of cells that accept the written value. The reference
  /// aliases the internal mask memo: use it before the next electrical
  /// call (copy if it must outlive one).
  const BitVec& write_overdrive_mask(const BitlineContext& ctx,
                                     RowAddr local_row,
                                     unsigned differing_fields,
                                     const EnvironmentState& env,
                                     const ApaDecision& apa) const;

  /// Per-cell stability of an SA-driven copy into one destination row
  /// (Multi-RowCopy / RowClone regime). `n_dest` is the total number of
  /// destination rows in the operation; `source` is the data being driven.
  /// Same aliasing rule as write_overdrive_mask.
  const BitVec& copy_stable_mask(const BitlineContext& ctx, RowAddr dest_row,
                                 std::size_t n_dest, const BitVec& source,
                                 const EnvironmentState& env) const;

  /// Which sense amplifiers had latched the source value before the
  /// second ACT connected the other rows: bit c set iff
  /// normal_cdf(race deviate of c) < apa.latch_fraction. Persistent per
  /// bitline — higher latch fractions strictly grow the latched set (the
  /// threshold moves, the deviate does not). Memoized in the mask memo
  /// per (bank, subarray, columns, latch_fraction): the race deviates are
  /// persistent and the threshold only depends on the APA timing, so
  /// repeated trials reuse the mask.
  BitVec latched_mask(const BitlineContext& ctx, const ApaDecision& apa) const;

  /// Resolves sensing of a single Frac (VDD/2) row: each SA falls to its
  /// bias/offset side. Deterministic per bitline for biased designs
  /// (Mfr. M); for unbiased ones the per-trial thermal noise comes from
  /// the chip's counter-based noise stream (`noise`), whose draws are
  /// indexable pure functions of the stream key — so the batch fill is
  /// SIMD-dispatched and invariant to chunking and thread schedule.
  BitVec sense_frac_row(const BitlineContext& ctx,
                        Rng::CounterStream& noise) const;

  /// Measures the coupling activity of the data about to be shared:
  /// byte-periodic (fixed) patterns cancel along the bitline run, aperiodic
  /// (random) data does not. Returns a value in [0, 0.5].
  static double estimate_pattern_noise(std::span<const ConnectedRow> rows);

  const VendorProfile& profile() const noexcept { return *profile_; }

 private:
  double group_quality(const BitlineContext& ctx, std::uint64_t salt) const;

  /// Per-column persistent deviates for one (salt, k1, k2) entity row,
  /// memoized in the deviate cache: they are pure functions of the
  /// variation field, and the characterization sweeps re-touch the same
  /// rows thousands of times. The caller holds the returned block for the
  /// whole operation: once the cache evicts the span (a sibling model may
  /// do so at any time), that handle is what keeps it alive.
  std::shared_ptr<const float[]> deviates(std::uint64_t salt, std::uint64_t k1,
                                          std::uint64_t k2,
                                          std::size_t count) const;

  const VendorProfile* profile_;
  const VariationField* variation_;
  DeviateCache own_deviates_;
  DeviateCache* deviates_ = &own_deviates_;

  /// Per-model LRU memo of bit masks that are pure functions of one span
  /// identity (salt, k1, k2, count) and a threshold (the double's bits):
  /// the write-overdrive and copy-stability `zetas < z_eff` masks, and the
  /// latch-race masks (under kSaltLatchRace, threshold = latch_fraction).
  /// The trial loops re-request the same (row, threshold) point every
  /// trial. LRU-evicted instead of wiped wholesale, so paper-scale sweeps
  /// whose working set exceeds the capacity degrade to recomputing the
  /// coldest masks rather than thrashing everything. Per-model only: the
  /// slot scheduler partitions (bank, row) work disjointly across sibling
  /// models, so a chip-level mask memo would never hit.
  struct MaskKey {
    std::uint64_t salt = 0;
    std::uint64_t k1 = 0;
    std::uint64_t k2 = 0;
    std::size_t count = 0;
    std::uint64_t threshold_bits = 0;
    bool operator==(const MaskKey&) const = default;
  };
  struct MaskKeyHash {
    std::size_t operator()(const MaskKey& k) const noexcept;
  };
  struct MaskEntry {
    BitVec mask;
    std::list<MaskKey>::iterator order_it;
  };
  /// Returns the memoized mask for `key`, calling `compute()` (which
  /// returns the BitVec) only on a miss.
  template <typename Compute>
  const BitVec& mask_cached(const MaskKey& key, Compute&& compute) const;
  /// The `zeta < z_eff` stability mask of one (salt, k1, k2) entity row,
  /// hashed straight to mask bits on a miss.
  const BitVec& threshold_mask_cached(std::uint64_t salt, std::uint64_t k1,
                                      std::uint64_t k2, std::size_t count,
                                      float z_eff) const;
  mutable std::list<MaskKey> mask_order_;
  mutable std::unordered_map<MaskKey, MaskEntry, MaskKeyHash> mask_cache_;
};

/// Hash of a sorted activated-row set, for group-quality keying.
std::uint64_t group_key_of(std::span<const RowAddr> rows);

}  // namespace simra::dram
