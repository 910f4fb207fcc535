#include "dram/electrical.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/normal.hpp"
#include "common/rng.hpp"
#include "dram/calibration.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace simra::dram {
namespace {

// Salts of the model's persistent variation fields (electrical.cpp): the
// charge-share offset, group quality and polarity deviates, and the SA
// latch race.
constexpr std::uint64_t kSaltMajOffset = 0x10;
constexpr std::uint64_t kSaltMajGroup = 0x11;
constexpr std::uint64_t kSaltMajPolarity = 0x12;
constexpr std::uint64_t kSaltLatchRace = 0x40;

/// Bucket edges of the electrical/sense_margin histogram.
constexpr std::array<double, 11> kMarginBounds = {-3,    -2,   -1, -0.5,
                                                  -0.25, 0,    0.25, 0.5,
                                                  1,     2,    3};

struct ReferenceShare {
  BitVec resolved;
  BitVec stable;
  std::size_t ties = 0;
  std::array<std::uint64_t, kMarginBounds.size() + 1> margins{};
};

// Per-column reference of a charge-share resolve: every bitline resolves
// from its float sum accumulated row by row, and tie bitlines draw a coin
// flip in ascending column order. It resolves every bitline, decided or
// not, and observes every bitline's margin; callers blend the decided
// ones away.
ReferenceShare reference_charge_share(const VendorProfile& profile,
                                      const VariationField& variation,
                                      const BitlineContext& ctx,
                                      std::span<const ConnectedRow> rows,
                                      double pattern_noise,
                                      const EnvironmentState& env,
                                      const ApaDecision& apa, Rng& rng) {
  const auto& p = calib::kMajx;
  const std::size_t columns = ctx.columns;
  std::vector<float> zetas(columns);
  std::vector<float> polarities(columns);
  variation.normal_fill(kSaltMajOffset, ctx.bank, ctx.subarray, zetas);
  variation.normal_fill(kSaltMajPolarity, ctx.bank, ctx.subarray,
                        polarities);
  const double n_connected = static_cast<double>(rows.size());
  const double gain =
      p.gain * (1.0 + p.temp_gain_slope * (env.temperature.value - 50.0)) *
      (1.0 - p.vpp_gain_slope * (2.5 - env.vpp.value));
  const double g = std::exp(
      p.group_sigma *
      variation.normal(kSaltMajGroup, ctx.bank, ctx.subarray, ctx.group_key));
  const double noise_denominator = std::sqrt(1.0 + n_connected * p.cell_noise);
  const double threshold = p.threshold + p.coupling * pattern_noise;
  float total_weight = 0.0f;
  for (const ConnectedRow& row : rows)
    if (row.data != nullptr) total_weight += static_cast<float>(row.weight);

  ReferenceShare ref{BitVec(columns), BitVec(columns)};
  for (std::size_t c = 0; c < columns; ++c) {
    float fsum = -total_weight;
    for (const ConnectedRow& row : rows)
      if (row.data != nullptr && row.data->get(c))
        fsum += 2.0f * static_cast<float>(row.weight);
    const double sum = fsum;
    if (std::abs(sum) < 1e-9) {
      ref.resolved.set(c, rng.chance(0.5));
      ++ref.ties;
      continue;
    }
    const double x =
        gain * std::pow(std::abs(sum) / (p.cap_ratio + n_connected),
                        p.margin_exponent);
    const double zg = ((x - threshold) / noise_denominator -
                       apa.majx_z_penalty + profile.maj_margin_shift) /
                      g;
    std::size_t bucket = 0;
    while (bucket < kMarginBounds.size() && zg > kMarginBounds[bucket])
      ++bucket;
    ++ref.margins[bucket];
    if (zg > zetas[c]) {
      ref.resolved.set(c, sum > 0.0);
      ref.stable.set(c, true);
    } else {
      ref.resolved.set(c, polarities[c] > 0.0f);
    }
  }
  return ref;
}

/// Enables obs for one scope and restores the environment's choice.
struct ScopedObs {
  ScopedObs() { obs::set_enabled_for_test(true); }
  ~ScopedObs() { obs::set_enabled_for_test(std::nullopt); }
};

class ElectricalTest : public ::testing::Test {
 protected:
  VendorProfile profile_ = VendorProfile::hynix_m();
  VariationField variation_{42};
  ElectricalModel model_{&profile_, &variation_};
  Rng rng_{7};

  BitlineContext ctx(std::uint64_t group_key = 1) const {
    BitlineContext c;
    c.bank = 0;
    c.subarray = 1;
    c.group_key = group_key;
    c.columns = profile_.geometry.columns;
    return c;
  }
};

TEST_F(ElectricalTest, ClassifyBestMajTiming) {
  const ApaDecision d =
      model_.classify_apa(Nanoseconds{1.5}, Nanoseconds{3.0});
  EXPECT_FALSE(d.sa_latched);
  EXPECT_DOUBLE_EQ(d.latch_fraction, 0.0);
  EXPECT_DOUBLE_EQ(d.first_row_extra_weight, 0.0);  // t1+t2 == baseline.
  EXPECT_DOUBLE_EQ(d.second_group_weight, 1.0);
  EXPECT_DOUBLE_EQ(d.row_dropout_probability, 0.0);
}

TEST_F(ElectricalTest, ClassifyLongerT1AddsAsymmetry) {
  const ApaDecision d = model_.classify_apa(Nanoseconds{3.0}, Nanoseconds{3.0});
  EXPECT_FALSE(d.sa_latched);
  EXPECT_GT(d.first_row_extra_weight, 0.0);
}

TEST_F(ElectricalTest, ClassifyCopyTiming) {
  const ApaDecision d =
      model_.classify_apa(Nanoseconds{36.0}, Nanoseconds{3.0});
  EXPECT_TRUE(d.sa_latched);
  EXPECT_DOUBLE_EQ(d.latch_fraction, 1.0);
}

TEST_F(ElectricalTest, ClassifyWeakT2) {
  const ApaDecision d =
      model_.classify_apa(Nanoseconds{1.5}, Nanoseconds{1.5});
  EXPECT_LT(d.second_group_weight, 1.0);
  EXPECT_GT(d.row_dropout_probability, 0.0);
  EXPECT_GT(d.smra_z_penalty, calib::kSmra.penalty_t2_low);  // + sum + t1.
}

TEST_F(ElectricalTest, LatchFractionMonotoneInT1) {
  double prev = -1.0;
  for (double t1 : {1.5, 3.0, 4.0, 6.0, 12.0, 18.0, 36.0, 50.0}) {
    const double f = calib::mrc_latch_fraction(t1);
    EXPECT_GE(f, prev);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(calib::mrc_latch_fraction(1.5), 0.0);
  EXPECT_DOUBLE_EQ(calib::mrc_latch_fraction(36.0), 1.0);
}

TEST_F(ElectricalTest, UnanimousChargeShareIsStable) {
  // All 32 cells agree: the margin is enormous, every bitline resolves
  // correctly and stably.
  const std::size_t columns = profile_.geometry.columns;
  BitVec ones(columns, true);
  std::vector<ConnectedRow> rows(32);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].local_row = static_cast<RowAddr>(i);
    rows[i].data = &ones;
    rows[i].weight = 1.0;
  }
  const ApaDecision apa =
      model_.classify_apa(Nanoseconds{1.5}, Nanoseconds{3.0});
  const ChargeShareResult r = model_.resolve_charge_share(
      ctx(), rows, 0.0, EnvironmentState{}, apa, BitVec(columns), rng_);
  EXPECT_EQ(r.resolved.popcount(), columns);
  EXPECT_EQ(r.stable.popcount(), columns);
  EXPECT_EQ(r.ties, 0u);
}

TEST_F(ElectricalTest, TieResolvesMetastably) {
  const std::size_t columns = profile_.geometry.columns;
  BitVec ones(columns, true);
  BitVec zeros(columns, false);
  std::vector<ConnectedRow> rows(2);
  rows[0] = {0, &ones, 1.0};
  rows[1] = {1, &zeros, 1.0};
  const ApaDecision apa =
      model_.classify_apa(Nanoseconds{1.5}, Nanoseconds{3.0});
  const ChargeShareResult r = model_.resolve_charge_share(
      ctx(), rows, 0.0, EnvironmentState{}, apa, BitVec(columns), rng_);
  EXPECT_EQ(r.ties, columns);
  EXPECT_EQ(r.stable.popcount(), 0u);
  // Roughly half the metastable bitlines fall each way.
  EXPECT_NEAR(static_cast<double>(r.resolved.popcount()),
              columns / 2.0, columns * 0.05);
}

TEST_F(ElectricalTest, DecidedBitlinesKeepRngStreamAndMargins) {
  // Skipping the decided (SA-latched) bitlines must not change what the
  // bank sees: the source on decided bitlines and the per-column resolve
  // elsewhere, the same tie count, the same Rng stream afterwards, and
  // the same margin observations over every bitline.
  enum class Shape { kAllEqual, kOneOdd, kThreeClasses };
  constexpr std::size_t kColumns = 1000;  // boundary word of 40 columns.
  const ScopedObs scoped_obs;
  obs::Histogram& hist = obs::MetricsRegistry::instance().histogram(
      "electrical/sense_margin",
      std::vector<double>(kMarginBounds.begin(), kMarginBounds.end()));
  const auto bucket_counts = [&] {
    std::array<std::uint64_t, kMarginBounds.size() + 1> counts{};
    for (std::size_t b = 0; b < counts.size(); ++b)
      counts[b] = hist.bucket_count(b);
    return counts;
  };
  BitlineContext c = ctx();
  c.columns = kColumns;
  EnvironmentState env;
  env.temperature = Celsius{70.0};
  env.vpp = Volts{2.3};
  std::size_t case_index = 0;
  for (const double latch : {0.0, 0.3, 0.995, 1.0}) {
    for (const std::size_t k : {2u, 3u, 4u, 16u, 32u}) {
      for (const Shape shape :
           {Shape::kAllEqual, Shape::kOneOdd, Shape::kThreeClasses}) {
        if (shape == Shape::kThreeClasses && k < 3) continue;
        ++case_index;
        SCOPED_TRACE(::testing::Message()
                     << "latch=" << latch << " k=" << k
                     << " shape=" << static_cast<int>(shape));
        Rng data_rng(case_index);
        std::vector<BitVec> data(k, BitVec(kColumns));
        for (BitVec& row : data) row.randomize(data_rng);
        std::vector<ConnectedRow> rows;
        for (std::size_t i = 0; i < k; ++i) {
          // Odd weights that are whole multiples of the common one keep
          // exact ties in every shape.
          double weight = 1.0;
          if (shape == Shape::kOneOdd) weight = i == k / 3 ? 1.0 : 0.5;
          if (shape == Shape::kThreeClasses)
            weight = i == 0 ? 1.0 : (i == 1 ? 1.5 : 0.5);
          rows.push_back({static_cast<RowAddr>(i), &data[i], weight});
        }
        // Odd k also carries a Frac row: capacitance without data.
        if (k % 2 == 1) rows.push_back({static_cast<RowAddr>(k), nullptr, 1.0});

        ApaDecision apa =
            model_.classify_apa(Nanoseconds{1.5}, Nanoseconds{3.0});
        apa.latch_fraction = latch;
        apa.majx_z_penalty = 0.2;
        const BitVec decided = latch > 0.0 ? model_.latched_mask(c, apa)
                                           : BitVec(kColumns);
        if (latch > 0.0 && latch < 1.0) {
          ASSERT_GT(decided.popcount(), 0u);
          ASSERT_LT(decided.popcount(), kColumns);
        }
        const double noise = ElectricalModel::estimate_pattern_noise(rows);
        Rng got_rng(case_index + 100);
        Rng want_rng(case_index + 100);
        const auto before = bucket_counts();
        const ChargeShareResult got = model_.resolve_charge_share(
            c, rows, noise, env, apa, decided, got_rng);
        const auto after = bucket_counts();
        const ReferenceShare want = reference_charge_share(
            profile_, variation_, c, rows, noise, env, apa, want_rng);
        if (shape == Shape::kAllEqual && k % 2 == 0) {
          ASSERT_GT(want.ties, 0u);
        }

        BitVec got_blend = got.resolved;
        got_blend.assign_masked(data[0], decided);
        BitVec want_blend = want.resolved;
        want_blend.assign_masked(data[0], decided);
        EXPECT_EQ(got_blend, want_blend);
        EXPECT_EQ(got.stable & ~decided, want.stable & ~decided);
        EXPECT_EQ(got.ties, want.ties);
        for (int draw = 0; draw < 4; ++draw)
          EXPECT_EQ(got_rng(), want_rng()) << "draw " << draw;
        for (std::size_t b = 0; b < want.margins.size(); ++b)
          EXPECT_EQ(after[b] - before[b], want.margins[b]) << "bucket " << b;
      }
    }
  }
}

TEST_F(ElectricalTest, DecidedMaskMustCoverEveryColumn) {
  const std::size_t columns = profile_.geometry.columns;
  BitVec ones(columns, true);
  const std::vector<ConnectedRow> rows{{0, &ones, 1.0}, {1, &ones, 1.0}};
  const ApaDecision apa =
      model_.classify_apa(Nanoseconds{1.5}, Nanoseconds{3.0});
  EXPECT_THROW(model_.resolve_charge_share(ctx(), rows, 0.0,
                                           EnvironmentState{}, apa,
                                           BitVec(columns - 1), rng_),
               std::invalid_argument);
}

TEST_F(ElectricalTest, PatternNoiseDistinguishesFixedFromRandom) {
  const std::size_t columns = 4096;
  BitVec fixed(columns);
  fixed.fill_byte(0xAA);
  BitVec random(columns);
  random.randomize(rng_);
  std::vector<ConnectedRow> fixed_rows{{0, &fixed, 1.0}};
  std::vector<ConnectedRow> random_rows{{0, &random, 1.0}};
  EXPECT_DOUBLE_EQ(ElectricalModel::estimate_pattern_noise(fixed_rows), 0.0);
  EXPECT_NEAR(ElectricalModel::estimate_pattern_noise(random_rows), 0.5, 0.1);
}

TEST_F(ElectricalTest, FracRowsContributeOnlyCapacitance) {
  // 3 charged cells + 29 Frac cells: the majority must still be ones.
  const std::size_t columns = profile_.geometry.columns;
  BitVec ones(columns, true);
  std::vector<ConnectedRow> rows;
  for (int i = 0; i < 3; ++i) rows.push_back({static_cast<RowAddr>(i), &ones, 1.0});
  for (int i = 3; i < 32; ++i)
    rows.push_back({static_cast<RowAddr>(i), nullptr, 1.0});
  const ApaDecision apa =
      model_.classify_apa(Nanoseconds{1.5}, Nanoseconds{3.0});
  const ChargeShareResult r = model_.resolve_charge_share(
      ctx(), rows, 0.0, EnvironmentState{}, apa, BitVec(columns), rng_);
  EXPECT_EQ(r.ties, 0u);
  // m = 3 with N = 32: low margin -> partially stable, but stable bits
  // must all be the majority value (ones).
  EXPECT_EQ((r.stable & ~r.resolved).popcount(), 0u);
}

TEST_F(ElectricalTest, WriteMaskNearlyFullAtBestTiming) {
  const ApaDecision apa = model_.classify_apa(Nanoseconds{3.0}, Nanoseconds{3.0});
  const BitVec mask =
      model_.write_overdrive_mask(ctx(), 5, 3, EnvironmentState{}, apa);
  EXPECT_GT(mask.popcount(), profile_.geometry.columns * 999 / 1000);
}

TEST_F(ElectricalTest, WriteMaskDegradesAtWeakTiming) {
  const ApaDecision best = model_.classify_apa(Nanoseconds{3.0}, Nanoseconds{3.0});
  const ApaDecision weak = model_.classify_apa(Nanoseconds{1.5}, Nanoseconds{1.5});
  const BitVec best_mask =
      model_.write_overdrive_mask(ctx(), 5, 3, EnvironmentState{}, best);
  const BitVec weak_mask =
      model_.write_overdrive_mask(ctx(), 5, 3, EnvironmentState{}, weak);
  EXPECT_LT(weak_mask.popcount(), best_mask.popcount());
}

TEST_F(ElectricalTest, CopyStableMaskNearPerfect) {
  BitVec source(profile_.geometry.columns);
  source.randomize(rng_);
  const BitVec mask =
      model_.copy_stable_mask(ctx(), 3, 31, source, EnvironmentState{});
  EXPECT_GT(static_cast<double>(mask.popcount()),
            profile_.geometry.columns * 0.995);
}

TEST_F(ElectricalTest, AllOnesCopyTo31DestsWeaker) {
  BitVec random(profile_.geometry.columns);
  random.randomize(rng_);
  BitVec ones(profile_.geometry.columns, true);
  const BitVec random_mask =
      model_.copy_stable_mask(ctx(), 3, 31, random, EnvironmentState{});
  const BitVec ones_mask =
      model_.copy_stable_mask(ctx(), 3, 31, ones, EnvironmentState{});
  EXPECT_LT(ones_mask.popcount(), random_mask.popcount());
}

TEST_F(ElectricalTest, FracSenseBiasedForMicron) {
  VendorProfile micron = VendorProfile::micron_e();
  VariationField var(1);
  ElectricalModel model(&micron, &var);
  BitlineContext c;
  c.columns = micron.geometry.columns;
  Rng::CounterStream noise(1, 0xf7acULL);
  const BitVec sensed = model.sense_frac_row(c, noise);
  EXPECT_EQ(sensed.popcount(), micron.geometry.columns);  // biased to one.
}

TEST_F(ElectricalTest, FracSenseMixedForUnbiased) {
  Rng::CounterStream noise(1, 0xf7acULL);
  const BitVec sensed = model_.sense_frac_row(ctx(), noise);
  const double frac =
      static_cast<double>(sensed.popcount()) / profile_.geometry.columns;
  EXPECT_GT(frac, 0.3);
  EXPECT_LT(frac, 0.7);
}

TEST_F(ElectricalTest, GroupKeyOrderIndependentOfContent) {
  const std::vector<RowAddr> a{1, 2, 3};
  const std::vector<RowAddr> b{1, 2, 4};
  EXPECT_EQ(group_key_of(a), group_key_of(a));
  EXPECT_NE(group_key_of(a), group_key_of(b));
}

TEST_F(ElectricalTest, DeviateCacheSurvivesEviction) {
  // Deviate spans and masks are pure functions of the variation field:
  // whatever the caches do — hits, LRU eviction, regeneration — every
  // query must reproduce the same persistent mask. Each of 9000 points is
  // one write-overdrive mask (hashed straight to bits, no span) and one
  // latch-race mask over its own race-deviate span (one subarray per
  // point), so the points run past both the mask memo (4096 entries) and
  // the span cache (8192 entries); point 0's masks and span are all
  // recomputed. Narrow columns keep that churn cheap.
  BitlineContext c = ctx();
  c.columns = 64;
  const EnvironmentState env;
  const ApaDecision apa = model_.classify_apa(Nanoseconds{3.0},
                                              Nanoseconds{3.0});
  const ApaDecision partial = model_.classify_apa(Nanoseconds{5.0},
                                                  Nanoseconds{3.0});
  ASSERT_GT(partial.latch_fraction, 0.0);
  ASSERT_LT(partial.latch_fraction, 1.0);
  const auto point_masks = [&](std::size_t i) {
    BitlineContext latch_ctx = c;
    latch_ctx.subarray = static_cast<SubarrayId>(i);
    return std::make_pair(
        model_.write_overdrive_mask(c, static_cast<RowAddr>(i), 1, env, apa),
        model_.latched_mask(latch_ctx, partial));
  };
  const auto first = point_masks(0);
  EXPECT_EQ(point_masks(0), first);
  for (std::size_t i = 1; i < 9000; ++i) point_masks(i);
  EXPECT_EQ(point_masks(0), first);
}

TEST_F(ElectricalTest, SiblingModelsShareDeviateCacheAcrossEviction) {
  // Sibling models on several threads share one DeviateCache, as the slot
  // models of one chip do. Each point pulls one span, its latch-race
  // deviates (the write-overdrive mask hashes straight to bits), so 9000
  // points exceed the cache's 8192 entries and every thread's churn evicts
  // spans that other threads still hold: each thread keeps one span handle
  // across its whole run, and the span must keep its values after the
  // cache drops it. Every mask must equal the one a model with a private
  // cache computes.
  constexpr std::size_t kPoints = 9000;
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kHeldSalt = 0x7e57;
  BitlineContext c = ctx();
  c.columns = 64;
  const EnvironmentState env;
  const ApaDecision weak = model_.classify_apa(Nanoseconds{1.5},
                                               Nanoseconds{1.5});
  const ApaDecision partial = model_.classify_apa(Nanoseconds{5.0},
                                                  Nanoseconds{3.0});
  ASSERT_GT(partial.latch_fraction, 0.0);
  ASSERT_LT(partial.latch_fraction, 1.0);
  const auto point_masks = [&](const ElectricalModel& model, std::size_t i) {
    BitlineContext latch_ctx = c;
    latch_ctx.subarray = static_cast<SubarrayId>(i);
    return std::make_pair(
        model.write_overdrive_mask(c, static_cast<RowAddr>(i), 5, env, weak),
        model.latched_mask(latch_ctx, partial));
  };
  std::vector<std::pair<BitVec, BitVec>> expected;
  expected.reserve(kPoints);
  for (std::size_t i = 0; i < kPoints; ++i)
    expected.push_back(point_masks(model_, i));

  DeviateCache shared;
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<int> held_intact(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto held =
          shared.get_or_compute(kHeldSalt, t, 0, c.columns, variation_);
      ElectricalModel sibling(&profile_, &variation_);
      sibling.share_deviates(&shared);
      for (std::size_t n = 0; n < kPoints; ++n) {
        const std::size_t i = (n + t * kPoints / kThreads) % kPoints;
        if (point_masks(sibling, i) != expected[i]) ++mismatches[t];
      }
      std::vector<float> fresh(c.columns);
      variation_.normal_fill(kHeldSalt, t, 0, fresh);
      held_intact[t] =
          std::equal(fresh.begin(), fresh.end(), held.get()) ? 1 : 0;
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
    EXPECT_EQ(held_intact[t], 1) << "thread " << t;
  }
}

TEST_F(ElectricalTest, DeviateCacheKeyedByFullTuple) {
  // Rows whose (subarray, row) key components swap roles must not alias:
  // the cache keys on the full (salt, k1, k2, count) tuple, not a folded
  // digest of it. Weak timings put the threshold mid-distribution so the
  // masks are mixed (an all-ones mask would compare equal vacuously).
  BitlineContext a = ctx();
  BitlineContext b = a;
  a.subarray = 0;
  b.subarray = 5;
  const EnvironmentState env;
  const ApaDecision apa = model_.classify_apa(Nanoseconds{1.5},
                                              Nanoseconds{1.5});
  const BitVec mask_a = model_.write_overdrive_mask(a, 5, 5, env, apa);
  const BitVec mask_b = model_.write_overdrive_mask(b, 0, 5, env, apa);
  ASSERT_GT(mask_a.popcount(), 0u);
  ASSERT_LT(mask_a.popcount(), mask_a.size());
  EXPECT_NE(mask_a, mask_b);
}

TEST_F(ElectricalTest, LatchedMaskMatchesScalarBitlineLatched) {
  // The second input requests threshold masks of the same (bank,
  // subarray) between the latch-race queries. Both families live in one
  // mask memo, so an aliased entry would hand one family's mask to the
  // other.
  const EnvironmentState env;
  const BitVec source(profile_.geometry.columns, true);
  const ApaDecision weak = model_.classify_apa(Nanoseconds{1.5},
                                               Nanoseconds{1.5});
  for (const bool interleave : {false, true}) {
    SCOPED_TRACE(interleave ? "interleaved with threshold masks" : "alone");
    ElectricalModel model(&profile_, &variation_);
    const auto touch_threshold_masks = [&] {
      if (!interleave) return;
      for (RowAddr row = 0; row < 4; ++row) {
        model.write_overdrive_mask(ctx(), row, 5, env, weak);
        model.copy_stable_mask(ctx(), row, 31, source, env);
      }
    };
    const ApaDecision apa = model.classify_apa(Nanoseconds{12.0},
                                               Nanoseconds{3.0});
    ASSERT_GT(apa.latch_fraction, 0.0);
    ASSERT_LT(apa.latch_fraction, 1.0);
    touch_threshold_masks();
    const BitVec mask = model.latched_mask(ctx(), apa);
    ASSERT_EQ(mask.size(), profile_.geometry.columns);
    std::vector<float> race(profile_.geometry.columns);
    variation_.normal_fill(kSaltLatchRace, ctx().bank, ctx().subarray, race);
    for (std::size_t c = 0; c < race.size(); ++c)
      ASSERT_EQ(mask.get(c), normal_cdf(race[c]) < apa.latch_fraction) << c;
    // Memoized: the repeat query returns the identical mask.
    touch_threshold_masks();
    EXPECT_EQ(model.latched_mask(ctx(), apa), mask);
    if (!interleave) continue;
    ElectricalModel fresh(&profile_, &variation_);
    for (RowAddr row = 0; row < 4; ++row) {
      EXPECT_EQ(model.write_overdrive_mask(ctx(), row, 5, env, weak),
                fresh.write_overdrive_mask(ctx(), row, 5, env, weak));
      EXPECT_EQ(model.copy_stable_mask(ctx(), row, 31, source, env),
                fresh.copy_stable_mask(ctx(), row, 31, source, env));
    }
  }
}

}  // namespace
}  // namespace simra::dram
