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
  return static_cast<std::size_t>(hash_combine(
      hash_combine(hash_combine(k.salt, k.k1), k.k2), k.count));
}

std::shared_ptr<const float[]> DeviateCache::get_or_compute(
    std::uint64_t salt, std::uint64_t k1, std::uint64_t k2, std::size_t count,
    const VariationField& field) {
  constexpr std::size_t kCapacity = 8192;  // bound memory.
  const Key key{salt, k1, k2, count};
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
  field.normal_fill(salt, k1, k2, {values.get(), count});
  order_.push_back(key);
  map_.emplace(key, Entry{values, std::prev(order_.end())});
  return values;
}

std::shared_ptr<const float[]> ElectricalModel::deviates(
    std::uint64_t salt, std::uint64_t k1, std::uint64_t k2,
    std::size_t count) const {
  return deviates_->get_or_compute(salt, k1, k2, count, *variation_);
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
    // no inverse CDF runs, and the hashed uniforms go straight to mask
    // bits without a stored span.
    const auto u_eff =
        static_cast<float>(normal_cdf(static_cast<double>(z_eff)));
    SIMRA_PROF_SCOPE("electrical/threshold_mask_compute");
    return variation_->threshold_mask(salt, k1, k2, count, u_eff);
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

/// Resolution of one per-column sum value in the scalar fallback: the
/// gain/pow/threshold chain of a single column.
struct SumClass {
  bool tie = false;
  bool majority_one = false;
  double zg = 0.0;  ///< z / g, compared against the column's zeta deviate.
};

/// The per-column math of the scalar loop (double-promoted float sum in,
/// z/g threshold out); kernels::margin_chain computes the same values.
SumClass make_sum_class(float fsum, const kernels::MarginChainParams& m) {
  SumClass e;
  const double sum = fsum;
  if (kernels::is_tie_sum(fsum)) {
    e.tie = true;
    return e;
  }
  e.majority_one = sum > 0.0;
  const double x =
      m.gain * std::pow(std::abs(sum) / (m.cap_ratio + m.n_connected),
                        m.margin_exponent);
  const double z = (x - m.threshold) / m.noise_denominator - m.z_penalty +
                   m.vendor_shift;
  e.zg = z / m.g;
  return e;
}

/// Sum classes of a weight-class shape: `n_lead` rows of the common
/// weight, then the odd-weight row (if any), then `n_tail` common rows.
/// A column's class index packs its count planes: bit 0 is the odd row's
/// bit (two-class shapes only), the next `tail_bits` the number of set
/// tail rows, the top bits the number of set lead rows. Ascending index
/// is ascending (lead, tail, odd), the order the per-class sums fold in.
struct ClassTable {
  std::size_t odd_bits = 0;
  std::size_t tail_bits = 0;
  std::size_t lead_bits = 0;
  std::vector<float> sums;
  std::vector<double> zg;
  /// kClassTie for tie classes, kClassPending until a class's margin is
  /// computed, margin_chain's flags after.
  std::vector<std::int32_t> flags;
  std::vector<std::size_t> ties;

  std::size_t planes() const noexcept {
    return odd_bits + tail_bits + lead_bits;
  }

  /// Computes the margins of the still-pending classes in `classes`.
  void compute(std::span<const std::size_t> classes,
               const kernels::MarginChainParams& mp) {
    std::vector<std::size_t> batch;
    std::vector<float> batch_sums;
    for (const std::size_t cls : classes) {
      if (flags[cls] != kernels::kClassPending) continue;
      flags[cls] = 0;  // queued: a class repeated in `classes` runs once.
      batch.push_back(cls);
      batch_sums.push_back(sums[cls]);
    }
    std::vector<double> batch_zg(batch.size());
    std::vector<std::int32_t> batch_flags(batch.size());
    kernels::margin_chain(batch_sums, mp, batch_zg, batch_flags);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      zg[batch[i]] = batch_zg[i];
      flags[batch[i]] = batch_flags[i];
    }
  }
};

/// Every class's sum in the exact float-addition order of the scalar row
/// loop (float addition is not associative), each prefix shared by its
/// extensions, and the tie classes. The margins stay pending: only
/// classes some column realizes pay for the pow chain.
ClassTable make_class_table(float total_weight, float tw_common,
                            std::size_t n_lead, bool has_odd, float tw_odd,
                            std::size_t n_tail) {
  ClassTable t;
  t.odd_bits = has_odd ? 1 : 0;
  t.tail_bits = static_cast<std::size_t>(std::bit_width(n_tail));
  t.lead_bits = static_cast<std::size_t>(std::bit_width(n_lead));
  const std::size_t size = std::size_t{1} << t.planes();
  t.sums.assign(size, 0.0f);
  t.zg.assign(size, 0.0);
  t.flags.assign(size, kernels::kClassPending);
  const std::size_t lead_shift = t.odd_bits + t.tail_bits;
  float lead_sum = -total_weight;
  for (std::size_t lead = 0; lead <= n_lead; ++lead) {
    if (lead > 0) lead_sum += tw_common;
    for (std::size_t odd = 0; odd <= t.odd_bits; ++odd) {
      float sum = odd != 0 ? lead_sum + tw_odd : lead_sum;
      for (std::size_t tail = 0; tail <= n_tail; ++tail) {
        if (tail > 0) sum += tw_common;
        const std::size_t cls =
            (lead << lead_shift) | (tail << t.odd_bits) | odd;
        t.sums[cls] = sum;
        if (kernels::is_tie_sum(sum)) {
          t.flags[cls] = kernels::kClassTie;
          t.ties.push_back(cls);
        }
      }
    }
  }
  return t;
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
    const BitVec& decided, Rng& rng) const {
  SIMRA_PROF_SCOPE("electrical/resolve_charge_share");
  const bool obs_margins = obs::enabled();
  MarginBatch margins;
  const auto& p = calib::kMajx;
  const std::size_t columns = ctx.columns;
  if (decided.size() != columns)
    throw std::invalid_argument("decided mask must cover every column");

  ChargeShareResult out;
  out.resolved = BitVec(columns);
  out.stable = BitVec(columns);

  kernels::MarginChainParams mp;
  mp.n_connected = static_cast<double>(rows.size());
  mp.gain = env_gain(env);
  mp.g = group_quality(ctx, kSaltMajGroup);
  mp.noise_denominator = std::sqrt(1.0 + mp.n_connected * p.cell_noise);
  mp.threshold = p.threshold + p.coupling * pattern_noise;
  mp.vendor_shift = profile_->maj_margin_shift;
  mp.z_penalty = apa.majx_z_penalty;
  mp.cap_ratio = p.cap_ratio;
  mp.margin_exponent = p.margin_exponent;

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

  bool full_width = true;
  for (const BitVec* row : data_rows)
    if (row->size() < columns) full_width = false;

  if ((all_equal || two_class) && k <= 63 && full_width) {
    // One pass over 64-column words. Each word builds its class planes,
    // draws its tie columns, and resolves only its undecided columns.
    const std::size_t n_lead = two_class ? odd_index : k;
    const std::size_t n_tail = two_class ? k - odd_index - 1 : 0;
    const std::size_t common_index = two_class && odd_index == 0 ? 1 : 0;
    const float tw_common = k > 0 ? twice_w[common_index] : 0.0f;
    const float tw_odd = two_class ? twice_w[odd_index] : 0.0f;
    ClassTable table = make_class_table(total_weight, tw_common, n_lead,
                                        two_class, tw_odd, n_tail);
    const std::span<const BitVec* const> lead_rows(data_rows.data(), n_lead);
    const std::span<const BitVec* const> tail_rows(
        data_rows.data() + n_lead + table.odd_bits, n_tail);
    std::vector<std::uint64_t> class_count(
        obs_margins ? table.flags.size() : 0, 0);
    std::shared_ptr<const float[]> zeta_span;
    std::shared_ptr<const float[]> polarity_span;
    std::vector<std::size_t> first_seen;

    for (std::size_t wi = 0; wi < decided.word_count(); ++wi) {
      const std::size_t base = wi * 64;
      const std::size_t limit = std::min<std::size_t>(64, columns - base);
      const std::uint64_t valid = limit == 64 ? ~0ULL : (1ULL << limit) - 1;
      std::uint64_t undecided = ~decided.words()[wi] & valid;
      // Nothing to resolve, no tie draws, no margins to observe: the word
      // is done before its planes are built.
      if (undecided == 0 && table.ties.empty() && !obs_margins) continue;

      kernels::ClassPlanes planes;
      planes.count = table.planes();
      if (two_class) planes.planes[0] = data_rows[odd_index]->words()[wi];
      if (n_tail > 0)
        kernels::column_popcounts(
            tail_rows, wi,
            std::span(planes.planes + table.odd_bits, table.tail_bits));
      if (n_lead > 0)
        kernels::column_popcounts(
            lead_rows, wi,
            std::span(planes.planes + table.odd_bits + table.tail_bits,
                      table.lead_bits));
      if (obs_margins)
        for (std::size_t b = 0; b < limit; ++b) ++class_count[planes.index(b)];

      // Metastable ties in ascending column order — the Rng draw sequence
      // of the scalar loop. Decided bitlines draw too and discard the
      // value, so the stream does not depend on the latch race.
      std::uint64_t tie_word = 0;
      for (const std::size_t cls : table.ties) tie_word |= planes.match(cls);
      tie_word &= valid;
      const std::uint64_t tie_values = rng.coin_flips(tie_word) & undecided;
      out.ties += static_cast<std::size_t>(std::popcount(tie_word));
      undecided &= ~tie_word;
      if (undecided == 0) {
        out.resolved.set_word(wi, tie_values);
        continue;
      }

      if (!zeta_span) {
        zeta_span = deviates(kSaltMajOffset, ctx.bank, ctx.subarray, columns);
        polarity_span =
            deviates(kSaltMajPolarity, ctx.bank, ctx.subarray, columns);
      }
      const std::span<const float> zetas(zeta_span.get() + base, limit);
      const std::span<const float> polarities(polarity_span.get() + base,
                                              limit);
      kernels::WordVerdict v = kernels::resolve_word(
          planes, undecided, table.zg, table.flags, zetas, polarities);
      if (v.pending != 0) {
        // First sight of these classes: compute their margins, then
        // resolve their columns.
        first_seen.clear();
        for (std::uint64_t rest = v.pending; rest != 0; rest &= rest - 1)
          first_seen.push_back(
              planes.index(static_cast<std::size_t>(std::countr_zero(rest))));
        table.compute(first_seen, mp);
        const kernels::WordVerdict late = kernels::resolve_word(
            planes, v.pending, table.zg, table.flags, zetas, polarities);
        v.resolved |= late.resolved;
        v.stable |= late.stable;
      }
      out.resolved.set_word(wi, tie_values | v.resolved);
      out.stable.set_word(wi, v.stable);
    }

    if (obs_margins) {
      // Count-weighted margin observations over every column, decided or
      // not, in ascending class order.
      std::vector<std::size_t> counted;
      for (std::size_t cls = 0; cls < class_count.size(); ++cls)
        if (class_count[cls] != 0) counted.push_back(cls);
      table.compute(counted, mp);
      for (const std::size_t cls : counted)
        if ((table.flags[cls] & kernels::kClassTie) == 0)
          margins.add(table.zg[cls], class_count[cls]);
      margins.flush();
    }
    return out;
  }

  // Scalar fallback (3+ weight classes or > 63 rows): the original
  // per-column accumulation and margin math.
  const auto zeta_span =
      deviates(kSaltMajOffset, ctx.bank, ctx.subarray, columns);
  const auto polarity_span =
      deviates(kSaltMajPolarity, ctx.bank, ctx.subarray, columns);
  const std::span<const float> zetas(zeta_span.get(), columns);
  const std::span<const float> polarities(polarity_span.get(), columns);
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
    const SumClass e = make_sum_class(sums[c], mp);
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
