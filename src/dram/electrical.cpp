#include "dram/electrical.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "common/prof.hpp"
#include "common/rng.hpp"
#include "dram/calibration.hpp"
#include "dram/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace simra::dram {

namespace {

// Salts keying the independent persistent-variation fields.
constexpr std::uint64_t kSaltMajOffset = 0x10;
constexpr std::uint64_t kSaltMajGroup = 0x11;
constexpr std::uint64_t kSaltMajPolarity = 0x12;
constexpr std::uint64_t kSaltSmraOffset = 0x20;
constexpr std::uint64_t kSaltSmraGroup = 0x21;
constexpr std::uint64_t kSaltCopyOffset = 0x30;
constexpr std::uint64_t kSaltCopyGroup = 0x31;
constexpr std::uint64_t kSaltLatchRace = 0x40;
constexpr std::uint64_t kSaltFracSense = 0x50;

constexpr double kLowTimingNs = 1.6;  // "1.5 ns" slot, with float slack.

double env_gain(const EnvironmentState& env) {
  const auto& p = calib::kMajx;
  const double temp_factor =
      1.0 + p.temp_gain_slope * (env.temperature.value - 50.0);
  const double vpp_factor =
      1.0 - p.vpp_gain_slope * (2.5 - env.vpp.value);
  return p.gain * temp_factor * vpp_factor;
}

}  // namespace

namespace calib {

double mrc_latch_fraction(double t1_ns) {
  // Piecewise-linear SA latch race vs t1: nothing latched before the
  // sense-enable point, ~everything by tRAS.
  struct Point {
    double t;
    double f;
  };
  static constexpr Point kPoints[] = {
      {4.0, 0.30}, {6.0, 0.995}, {12.0, 0.999}, {18.0, 0.9995}, {36.0, 1.0}};
  if (t1_ns < kPoints[0].t) return 0.0;
  for (std::size_t i = 1; i < std::size(kPoints); ++i) {
    if (t1_ns <= kPoints[i].t) {
      const auto& a = kPoints[i - 1];
      const auto& b = kPoints[i];
      return a.f + (b.f - a.f) * (t1_ns - a.t) / (b.t - a.t);
    }
  }
  return 1.0;
}

}  // namespace calib

std::size_t DeviateCache::KeyHash::operator()(const Key& k) const noexcept {
  return static_cast<std::size_t>(
      hash_combine(hash_combine(hash_combine(hash_combine(k.salt, k.k1), k.k2),
                                k.count),
                   k.uniform ? 1u : 0u));
}

std::shared_ptr<const float[]> DeviateCache::get_or_compute(
    std::uint64_t salt, std::uint64_t k1, std::uint64_t k2, std::size_t count,
    bool uniform, const VariationField& field) {
  constexpr std::size_t kCapacity = 8192;  // bound memory.
  const Key key{salt, k1, k2, count, uniform};
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    order_.splice(order_.end(), order_, it->second.order_it);
    return it->second.values;
  }
  SIMRA_PROF_SCOPE("electrical/deviates_miss");
  while (map_.size() >= kCapacity) {
    map_.erase(order_.front());
    order_.pop_front();
  }
  std::shared_ptr<float[]> values =
      std::make_shared_for_overwrite<float[]>(count);
  const std::span<float> out(values.get(), count);
  if (uniform)
    field.uniform_fill(salt, k1, k2, out);
  else
    field.normal_fill(salt, k1, k2, out);
  order_.push_back(key);
  map_.emplace(key, Entry{values, std::prev(order_.end())});
  return values;
}

std::shared_ptr<const float[]> ElectricalModel::deviates(
    std::uint64_t salt, std::uint64_t k1, std::uint64_t k2,
    std::size_t count) const {
  return deviates_->get_or_compute(salt, k1, k2, count, false, *variation_);
}

std::shared_ptr<const float[]> ElectricalModel::uniforms(
    std::uint64_t salt, std::uint64_t k1, std::uint64_t k2,
    std::size_t count) const {
  return deviates_->get_or_compute(salt, k1, k2, count, true, *variation_);
}

std::size_t ElectricalModel::MaskKeyHash::operator()(
    const MaskKey& k) const noexcept {
  return static_cast<std::size_t>(
      hash_combine(hash_combine(hash_combine(hash_combine(k.salt, k.k1), k.k2),
                                k.count),
                   k.threshold_bits));
}

template <typename Compute>
const BitVec& ElectricalModel::mask_cached(const MaskKey& key,
                                           Compute&& compute) const {
  constexpr std::size_t kCapacity = 4096;  // bound memory.
  auto it = mask_cache_.find(key);
  if (it != mask_cache_.end()) {
    mask_order_.splice(mask_order_.end(), mask_order_, it->second.order_it);
    return it->second.mask;
  }
  BitVec mask = compute();
  while (mask_cache_.size() >= kCapacity) {
    mask_cache_.erase(mask_order_.front());
    mask_order_.pop_front();
  }
  mask_order_.push_back(key);
  return mask_cache_
      .emplace(key, MaskEntry{std::move(mask), std::prev(mask_order_.end())})
      .first->second.mask;
}

const BitVec& ElectricalModel::threshold_mask_cached(std::uint64_t salt,
                                                     std::uint64_t k1,
                                                     std::uint64_t k2,
                                                     std::size_t count,
                                                     float z_eff) const {
  const MaskKey key{salt, k1, k2, count,
                    std::bit_cast<std::uint64_t>(static_cast<double>(z_eff))};
  return mask_cached(key, [&] {
    // Compared in the uniform domain: zeta < z_eff <=> u < normal_cdf(z_eff)
    // (the deviate is inverse_normal_cdf(u) and the CDF is monotone), so
    // the span fill skips the inverse CDF — by far the dominant cost of a
    // miss.
    const auto us = uniforms(salt, k1, k2, count);
    const auto u_eff =
        static_cast<float>(normal_cdf(static_cast<double>(z_eff)));
    SIMRA_PROF_SCOPE("electrical/threshold_mask_compute");
    return kernels::threshold_mask({us.get(), count}, u_eff);
  });
}

std::uint64_t group_key_of(std::span<const RowAddr> rows) {
  std::uint64_t key = hash64(rows.size());
  for (RowAddr r : rows) key = hash_combine(key, r);
  return key;
}

ElectricalModel::ElectricalModel(const VendorProfile* profile,
                                 const VariationField* variation)
    : profile_(profile), variation_(variation) {
  if (profile_ == nullptr || variation_ == nullptr)
    throw std::invalid_argument("electrical model needs profile and variation");
}

ApaDecision ElectricalModel::classify_apa(Nanoseconds t1, Nanoseconds t2) const {
  const auto& maj = calib::kMajx;
  const auto& smra = calib::kSmra;
  ApaDecision d;
  d.regime = ApaRegime::kSimultaneous;
  d.latch_fraction = calib::mrc_latch_fraction(t1.value);
  d.sa_latched = d.latch_fraction > 0.0;

  if (!d.sa_latched) {
    // Charge-share (MAJ) regime: the longer the first row stays connected
    // alone, the more charge it transfers relative to the second group.
    d.first_row_extra_weight =
        maj.asym_weight_per_ns *
        std::max(0.0, t1.value + t2.value - maj.asym_baseline_ns);
  }
  if (t2.value <= kLowTimingNs) {
    d.second_group_weight = maj.weak_t2_row_weight;
    d.row_dropout_probability = smra.dropout_t2_low;
    d.majx_z_penalty += maj.weak_t2_z_penalty;
    d.smra_z_penalty += smra.penalty_t2_low;
  }
  if (t1.value <= kLowTimingNs) d.smra_z_penalty += smra.penalty_t1_low;
  if (t1.value + t2.value < 4.5) d.smra_z_penalty += smra.penalty_sum_low;
  return d;
}

double ElectricalModel::group_quality(const BitlineContext& ctx,
                                      std::uint64_t salt) const {
  double sigma = 0.0;
  switch (salt) {
    case kSaltMajGroup:
      sigma = calib::kMajx.group_sigma;
      break;
    case kSaltSmraGroup:
      sigma = calib::kSmra.group_sigma;
      break;
    case kSaltCopyGroup:
      sigma = calib::kMrc.group_sigma;
      break;
    default:
      throw std::logic_error("unknown group-quality salt");
  }
  const double deviate =
      variation_->normal(salt, ctx.bank, ctx.subarray, ctx.group_key);
  return std::exp(sigma * deviate);
}

double ElectricalModel::estimate_pattern_noise(
    std::span<const ConnectedRow> rows) {
  SIMRA_PROF_SCOPE("electrical/estimate_pattern_noise");
  // Byte-periodic (fixed) data perturbs neighbouring bitlines coherently
  // along the run and its coupling cancels; aperiodic (random) data does
  // not. Measured as the lag-8 bit disagreement of the stored data,
  // sampled every 16th position — word-shift/XOR form of probing
  // get(c) != get(c + 8) bit by bit.
  std::size_t disagree = 0;
  std::size_t total = 0;
  for (const ConnectedRow& row : rows) {
    if (row.data == nullptr) continue;
    disagree += kernels::lag8_disagreement(*row.data, total);
  }
  if (total == 0) return 0.0;
  return std::min(0.5, static_cast<double>(disagree) / static_cast<double>(total));
}

namespace {

/// Resolution precomputed for one discrete per-column sum value: the
/// gain/pow/threshold chain is a pure function of the sum, so it runs
/// once per distinct value instead of once per column.
struct SumClass {
  bool computed = false;
  bool tie = false;
  bool majority_one = false;
  double zg = 0.0;  ///< z / g, compared against the column's zeta deviate.
};

/// Parameters of the per-sum margin math, captured once per resolve.
struct MarginMath {
  double gain = 0.0;
  double g = 1.0;
  double noise_denominator = 1.0;
  double threshold = 0.0;
  double vendor_shift = 0.0;
  double majx_z_penalty = 0.0;
  double n_connected = 0.0;
};

/// Computes one class entry with exactly the per-column math of the
/// scalar loop (double-promoted float sum in, z/g threshold out).
SumClass make_sum_class(float fsum, const MarginMath& m) {
  const auto& p = calib::kMajx;
  SumClass e;
  e.computed = true;
  const double sum = fsum;
  if (std::abs(sum) < 1e-9) {
    e.tie = true;
    return e;
  }
  e.majority_one = sum > 0.0;
  const double x =
      m.gain * std::pow(std::abs(sum) / (p.cap_ratio + m.n_connected),
                        p.margin_exponent);
  const double z = (x - m.threshold) / m.noise_denominator -
                   m.majx_z_penalty + m.vendor_shift;
  e.zg = z / m.g;
  return e;
}

/// Folds the per-column accumulation sequence of a (lead, odd, tail)
/// weight-class combination: `n_lead` rows of `tw_common` set before the
/// odd-weight row, the odd row itself when `has_odd`, then `n_tail` more
/// common rows — the exact float-addition order of the scalar loop over
/// rows, which is what makes the per-class sums bit-identical to it.
float fold_class_sum(float total_weight, std::size_t n_lead, bool has_odd,
                     float tw_odd, std::size_t n_tail, float tw_common) {
  float sum = -total_weight;
  for (std::size_t i = 0; i < n_lead; ++i) sum += tw_common;
  if (has_odd) sum += tw_odd;
  for (std::size_t i = 0; i < n_tail; ++i) sum += tw_common;
  return sum;
}

/// Sense-margin (z/g) bucket edges, shared by the registry histogram and
/// the stack-local tally below.
constexpr std::array<double, 11> kMarginBounds = {-3,    -2,   -1, -0.5,
                                                  -0.25, 0,    0.25, 0.5,
                                                  1,     2,    3};

obs::Histogram& margin_hist() {
  static obs::Histogram& hist = obs::MetricsRegistry::instance().histogram(
      "electrical/sense_margin",
      std::vector<double>(kMarginBounds.begin(), kMarginBounds.end()));
  return hist;
}

/// Sense-margin (z/g) distribution tally for one resolve call. The
/// per-class loop runs for every sensing operation, so it accumulates
/// into this stack-local array (weighted by the class's column count —
/// totals match the per-column loop the class math replaced) and merges
/// into the shared histogram once per call, keeping atomic traffic out
/// of the hot loop. Callers gate on obs::enabled().
struct MarginBatch {
  std::array<std::uint64_t, kMarginBounds.size() + 1> counts{};
  double sum = 0.0;
  std::uint64_t n = 0;

  void add(double zg, std::uint64_t weight) {
    // First bound >= zg, same bucketing as Histogram::observe.
    std::size_t b = 0;
    while (b < kMarginBounds.size() && zg > kMarginBounds[b]) ++b;
    counts[b] += weight;
    sum += zg * static_cast<double>(weight);
    n += weight;
  }

  void flush() {
    if (n == 0) return;
    margin_hist().merge(counts, sum, n);
    counts.fill(0);
    sum = 0.0;
    n = 0;
  }
};

}  // namespace

ChargeShareResult ElectricalModel::resolve_charge_share(
    const BitlineContext& ctx, std::span<const ConnectedRow> rows,
    double pattern_noise, const EnvironmentState& env, const ApaDecision& apa,
    Rng& rng) const {
  SIMRA_PROF_SCOPE("electrical/resolve_charge_share");
  const bool obs_margins = obs::enabled();
  MarginBatch margins;
  const auto& p = calib::kMajx;
  const std::size_t columns = ctx.columns;

  ChargeShareResult out;
  out.resolved = BitVec(columns);
  out.stable = BitVec(columns);

  MarginMath m;
  m.n_connected = static_cast<double>(rows.size());
  m.gain = env_gain(env);
  m.g = group_quality(ctx, kSaltMajGroup);
  m.noise_denominator = std::sqrt(1.0 + m.n_connected * p.cell_noise);
  m.threshold = p.threshold + p.coupling * pattern_noise;
  m.vendor_shift = profile_->maj_margin_shift;
  m.majx_z_penalty = apa.majx_z_penalty;

  // Rows fall into weight classes (the first-activated row vs the rest),
  // so each column's signed float sum — accumulated row by row in the
  // scalar model — takes one value per (set bits before the odd-weight
  // row, odd row's bit, set bits after) combination. Classify every
  // column with bit-sliced popcounts, then run the pow/threshold chain
  // once per class.
  float total_weight = 0.0f;
  std::vector<const BitVec*> data_rows;
  std::vector<float> twice_w;
  data_rows.reserve(rows.size());
  twice_w.reserve(rows.size());
  for (const ConnectedRow& row : rows) {
    if (row.data == nullptr) continue;  // Frac row: capacitance only.
    total_weight += static_cast<float>(row.weight);
    data_rows.push_back(row.data);
    twice_w.push_back(2.0f * static_cast<float>(row.weight));
  }
  const std::size_t k = data_rows.size();

  // Weight-class shape: all rows equal, or exactly one odd row among
  // equals. Anything richer (3+ classes) falls back to the scalar loop.
  bool all_equal = true;
  for (std::size_t i = 1; i < k; ++i)
    if (twice_w[i] != twice_w[0]) all_equal = false;
  std::size_t odd_index = k;  // k = no odd row.
  bool two_class = false;
  if (!all_equal && k >= 2) {
    for (std::size_t candidate = 0; candidate < k && !two_class; ++candidate) {
      bool rest_equal = true;
      float common = 0.0f;
      bool have_common = false;
      for (std::size_t i = 0; i < k; ++i) {
        if (i == candidate) continue;
        if (!have_common) {
          common = twice_w[i];
          have_common = true;
        } else if (twice_w[i] != common) {
          rest_equal = false;
          break;
        }
      }
      if (rest_equal && twice_w[candidate] != common) {
        two_class = true;
        odd_index = candidate;
      }
    }
  }

  const auto zeta_span =
      deviates(kSaltMajOffset, ctx.bank, ctx.subarray, columns);
  const auto polarity_span =
      deviates(kSaltMajPolarity, ctx.bank, ctx.subarray, columns);
  const std::span<const float> zetas(zeta_span.get(), columns);
  const std::span<const float> polarities(polarity_span.get(), columns);

  bool full_width = true;
  for (const BitVec* row : data_rows)
    if (row->size() < columns) full_width = false;

  if ((all_equal || two_class) && k <= 63 && full_width) {
    // Per-column class indices from bit-sliced popcounts.
    std::vector<std::uint8_t> lead_counts(columns, 0);
    std::vector<std::uint8_t> tail_counts;
    const BitVec* odd_row = nullptr;
    float tw_common = k > 0 ? twice_w[0] : 0.0f;
    std::size_t n_lead_rows = k;
    std::size_t n_tail_rows = 0;
    if (two_class) {
      odd_row = data_rows[odd_index];
      tw_common = twice_w[odd_index == 0 ? 1 : 0];
      n_lead_rows = odd_index;
      n_tail_rows = k - odd_index - 1;
      tail_counts.assign(columns, 0);
      kernels::column_popcounts(
          std::span<const BitVec* const>(data_rows.data(), n_lead_rows),
          lead_counts);
      kernels::column_popcounts(
          std::span<const BitVec* const>(data_rows.data() + odd_index + 1,
                                         n_tail_rows),
          tail_counts);
    } else if (k > 0) {
      kernels::column_popcounts(
          std::span<const BitVec* const>(data_rows.data(), k), lead_counts);
    }

    const float tw_odd = two_class ? twice_w[odd_index] : 0.0f;
    const std::size_t tail_span = n_tail_rows + 1;
    const std::size_t n_classes =
        two_class ? (n_lead_rows + 1) * tail_span * 2 : n_lead_rows + 1;

    // Pass 1: per-column class index plus per-class column counts — the
    // only per-column state the margin math needs.
    std::vector<std::int32_t> class_of(columns);
    std::vector<std::uint64_t> class_count(n_classes, 0);
    {
      std::size_t c = 0;
      for (std::size_t wi = 0; c < columns; ++wi) {
        const std::uint64_t odd_word =
            odd_row != nullptr ? odd_row->words()[wi] : 0;
        const std::size_t limit = std::min<std::size_t>(64, columns - c);
        for (std::size_t b = 0; b < limit; ++b, ++c) {
          std::size_t index = lead_counts[c];
          if (two_class) {
            const bool odd_set = (odd_word >> b) & 1ULL;
            index = (index * tail_span + tail_counts[c]) * 2 +
                    static_cast<std::size_t>(odd_set);
          }
          class_of[c] = static_cast<std::int32_t>(index);
          ++class_count[index];
        }
      }
    }

    // Pass 2: fold the sums of the realized classes (exact float-add
    // order of the scalar row loop), run the batched margin chain over
    // them, and scatter the verdicts into the class -> verdict table.
    std::vector<std::int32_t> realized;
    realized.reserve(n_classes);
    for (std::size_t idx = 0; idx < n_classes; ++idx)
      if (class_count[idx] != 0)
        realized.push_back(static_cast<std::int32_t>(idx));
    std::vector<float> class_sums(realized.size());
    for (std::size_t i = 0; i < realized.size(); ++i) {
      const auto idx = static_cast<std::size_t>(realized[i]);
      std::size_t n_lead = idx;
      bool odd_set = false;
      std::size_t n_tail = 0;
      if (two_class) {
        odd_set = (idx & 1) != 0;
        const std::size_t rest = idx >> 1;
        n_lead = rest / tail_span;
        n_tail = rest % tail_span;
      }
      class_sums[i] = fold_class_sum(total_weight, n_lead, odd_set, tw_odd,
                                     n_tail, tw_common);
    }

    kernels::MarginChainParams mp;
    mp.gain = m.gain;
    mp.g = m.g;
    mp.noise_denominator = m.noise_denominator;
    mp.threshold = m.threshold;
    mp.vendor_shift = m.vendor_shift;
    mp.z_penalty = m.majx_z_penalty;
    mp.n_connected = m.n_connected;
    mp.cap_ratio = p.cap_ratio;
    mp.margin_exponent = p.margin_exponent;

    std::vector<double> dense_zg(realized.size());
    std::vector<std::int32_t> dense_flags(realized.size());
    kernels::margin_chain(class_sums, mp, dense_zg, dense_flags);

    std::vector<double> zg_table(n_classes, 0.0);
    std::vector<std::int32_t> flag_table(n_classes, 0);
    for (std::size_t i = 0; i < realized.size(); ++i) {
      const auto idx = static_cast<std::size_t>(realized[i]);
      zg_table[idx] = dense_zg[i];
      flag_table[idx] = dense_flags[i];
      if (obs_margins && (dense_flags[i] & kernels::kClassTie) == 0)
        margins.add(dense_zg[i], class_count[idx]);
    }
    margins.flush();

    // Pass 3: table-driven resolve, then the metastable ties in
    // ascending column order — the same Rng draw sequence as the scalar
    // loop, which consumed tie coin flips in column order too.
    BitVec ties(columns);
    out.ties = kernels::class_resolve(class_of, zg_table, flag_table, zetas,
                                      polarities, out.resolved, out.stable,
                                      ties);
    if (out.ties != 0) {
      const auto& tie_words = ties.words();
      for (std::size_t wi = 0; wi < tie_words.size(); ++wi) {
        std::uint64_t word = tie_words[wi];
        const std::size_t base = wi * 64;
        while (word != 0) {
          const auto bit = static_cast<std::size_t>(std::countr_zero(word));
          word &= word - 1;
          // Perfect tie: the SA resolves metastably.
          out.resolved.set(base + bit, rng.chance(0.5));
        }
      }
    }
    return out;
  }

  // Scalar fallback (3+ weight classes or > 63 rows): the original
  // per-column accumulation and margin math.
  std::vector<float> sums(columns, -total_weight);
  for (std::size_t ri = 0; ri < k; ++ri) {
    const float tw = twice_w[ri];
    const auto& words = data_rows[ri]->words();
    for (std::size_t wi = 0; wi < words.size(); ++wi) {
      std::uint64_t word = words[wi];
      const std::size_t base = wi * 64;
      while (word != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        if (base + bit < columns) sums[base + bit] += tw;
      }
    }
  }
  for (std::size_t c = 0; c < columns; ++c) {
    const SumClass e = make_sum_class(sums[c], m);
    if (obs_margins && !e.tie) margins.add(e.zg, 1);
    if (e.tie) {
      out.resolved.set(c, rng.chance(0.5));
      ++out.ties;
    } else if (e.zg > zetas[c]) {
      out.resolved.set(c, e.majority_one);
      out.stable.set(c, true);
    } else {
      out.resolved.set(c, polarities[c] > 0.0f);
    }
  }
  margins.flush();
  return out;
}

const BitVec& ElectricalModel::write_overdrive_mask(const BitlineContext& ctx,
                                             RowAddr local_row,
                                             unsigned differing_fields,
                                             const EnvironmentState& env,
                                             const ApaDecision& apa) const {
  SIMRA_PROF_SCOPE("electrical/write_overdrive_mask");
  const auto& p = calib::kSmra;
  double z = p.z_best - apa.smra_z_penalty;
  if (differing_fields >= 5) z -= p.penalty_full_tree;
  z += p.temp_slope_per_degC * (env.temperature.value - 50.0);
  z -= p.vpp_slope_per_volt * (2.5 - env.vpp.value);
  const double g = group_quality(ctx, kSaltSmraGroup);
  const auto z_eff = static_cast<float>(z / g);

  return threshold_mask_cached(
      kSaltSmraOffset, ctx.bank,
      (static_cast<std::uint64_t>(ctx.subarray) << 32) | local_row,
      ctx.columns, z_eff);
}

const BitVec& ElectricalModel::copy_stable_mask(const BitlineContext& ctx,
                                         RowAddr dest_row, std::size_t n_dest,
                                         const BitVec& source,
                                         const EnvironmentState& env) const {
  SIMRA_PROF_SCOPE("electrical/copy_stable_mask");
  const auto& p = calib::kMrc;
  std::size_t bucket = 0;
  if (n_dest > 15)
    bucket = 4;
  else if (n_dest > 7)
    bucket = 3;
  else if (n_dest > 3)
    bucket = 2;
  else if (n_dest > 1)
    bucket = 1;
  double z = p.z_by_dest[bucket];
  z += p.temp_slope_per_degC * (env.temperature.value - 50.0);
  z -= p.vpp_slope_per_volt * (2.5 - env.vpp.value);
  if (bucket == 4 &&
      source.popcount() > source.size() - source.size() / 10) {
    // Driving ~all-ones into 31 destinations keeps every pull-up active.
    z -= p.all_ones_31_penalty;
  }
  const double g = group_quality(ctx, kSaltCopyGroup);
  const auto z_eff = static_cast<float>(z / g);

  return threshold_mask_cached(
      kSaltCopyOffset, ctx.bank,
      (static_cast<std::uint64_t>(ctx.subarray) << 32) | dest_row,
      ctx.columns, z_eff);
}

bool ElectricalModel::bitline_latched(const BitlineContext& ctx,
                                      std::size_t column,
                                      const ApaDecision& apa) const {
  if (apa.latch_fraction <= 0.0) return false;
  if (apa.latch_fraction >= 1.0) return true;
  // Persistent race outcome per bitline: higher latch fractions strictly
  // grow the latched set (the threshold moves, the deviate does not).
  const auto race =
      deviates(kSaltLatchRace, ctx.bank, ctx.subarray, ctx.columns);
  return normal_cdf(race[column]) < apa.latch_fraction;
}

BitVec ElectricalModel::latched_mask(const BitlineContext& ctx,
                                     const ApaDecision& apa) const {
  SIMRA_PROF_SCOPE("electrical/latched_mask");
  if (apa.latch_fraction <= 0.0) return BitVec(ctx.columns);
  if (apa.latch_fraction >= 1.0) return BitVec(ctx.columns, true);
  const MaskKey key{kSaltLatchRace, ctx.bank, ctx.subarray, ctx.columns,
                    std::bit_cast<std::uint64_t>(apa.latch_fraction)};
  return mask_cached(key, [&] {
    const auto race =
        deviates(kSaltLatchRace, ctx.bank, ctx.subarray, ctx.columns);
    return kernels::latch_race_mask({race.get(), ctx.columns},
                                    apa.latch_fraction);
  });
}

BitVec ElectricalModel::sense_frac_row(const BitlineContext& ctx,
                                       Rng::CounterStream& noise) const {
  SIMRA_PROF_SCOPE("electrical/sense_frac_row");
  if (profile_->sense_amp_bias != 0) {
    BitVec out(ctx.columns);
    out.fill(profile_->sense_amp_bias > 0);
    return out;
  }
  // Unbiased SAs resolve from their (persistent) offset plus thermal
  // noise: weak-offset bitlines flip trial to trial (the entropy source
  // of SiMRA-based TRNGs). The noise stream is counter-based, so draw i
  // of the batch is a pure function of (stream, cursor + i): the batched
  // SIMD fill, any chunked fill, and a per-column scalar loop all produce
  // the same bits.
  const auto offsets =
      deviates(kSaltFracSense, ctx.bank, ctx.subarray, ctx.columns);
  std::vector<double> draws(ctx.columns);
  const std::uint64_t base = noise.reserve(ctx.columns);
  kernels::counter_normal_fill(noise.prefix(), base, draws);
  return kernels::offset_noise_mask({offsets.get(), ctx.columns}, draws, 0.35);
}

}  // namespace simra::dram
