// Property tests on the electrical model: the qualitative laws the paper
// derives (§7.2) must hold over swept parameters, not just at the
// calibrated anchor points.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dram/calibration.hpp"
#include "dram/electrical.hpp"

namespace simra::dram {
namespace {

class PropertyFixture {
 public:
  PropertyFixture()
      : profile_(VendorProfile::hynix_m()),
        variation_(2024),
        model_(&profile_, &variation_) {}

  /// Fraction of stable bitlines for a synthetic population with a given
  /// per-bitline imbalance out of `n` connected rows.
  double stable_fraction(unsigned imbalance, unsigned n,
                         double pattern_noise = 0.5,
                         EnvironmentState env = {},
                         std::uint64_t group_key = 1) {
    const std::size_t columns = profile_.geometry.columns;
    // (n + imbalance) / 2 rows of ones, rest zeros -> per-bit sum =
    // imbalance everywhere.
    if ((n + imbalance) % 2 != 0 || imbalance > n)
      throw std::invalid_argument("parity mismatch");
    BitVec ones(columns, true);
    BitVec zeros(columns, false);
    std::vector<ConnectedRow> rows;
    const unsigned ones_count = (n + imbalance) / 2;
    for (unsigned i = 0; i < n; ++i)
      rows.push_back({i, i < ones_count ? &ones : &zeros, 1.0});
    BitlineContext ctx;
    ctx.bank = 0;
    ctx.subarray = 3;
    ctx.group_key = group_key;
    ctx.columns = columns;
    Rng rng(7);
    const ApaDecision apa =
        model_.classify_apa(Nanoseconds{1.5}, Nanoseconds{3.0});
    const ChargeShareResult r = model_.resolve_charge_share(
        ctx, rows, pattern_noise, env, apa, BitVec(columns), rng);
    return static_cast<double>(r.stable.popcount()) /
           static_cast<double>(columns);
  }

 private:
  VendorProfile profile_;
  VariationField variation_;
  ElectricalModel model_;
};

TEST(ElectricalProperty, StabilityMonotoneInImbalance) {
  PropertyFixture f;
  double prev = -1.0;
  for (unsigned m : {2u, 4u, 6u, 8u, 10u, 12u}) {
    const double s = f.stable_fraction(m, 32);
    EXPECT_GE(s, prev - 0.005) << "imbalance " << m;  // allow tiny noise.
    prev = s;
  }
  EXPECT_GT(f.stable_fraction(12, 32), f.stable_fraction(2, 32) + 0.2);
}

TEST(ElectricalProperty, CouplingNoiseAlwaysHurts) {
  PropertyFixture f;
  for (unsigned m : {4u, 6u, 8u}) {
    EXPECT_GE(f.stable_fraction(m, 32, /*pattern_noise=*/0.0),
              f.stable_fraction(m, 32, /*pattern_noise=*/0.5))
        << "imbalance " << m;
  }
}

TEST(ElectricalProperty, WarmerChipsShareChargeBetter) {
  PropertyFixture f;
  EnvironmentState hot;
  hot.temperature = Celsius{90.0};
  for (unsigned m : {4u, 6u}) {
    EXPECT_GE(f.stable_fraction(m, 32, 0.5, hot),
              f.stable_fraction(m, 32, 0.5, EnvironmentState{}))
        << "imbalance " << m;
  }
}

TEST(ElectricalProperty, LowerWordlineVoltageWeakensSharing) {
  PropertyFixture f;
  EnvironmentState low;
  low.vpp = Volts{2.1};
  for (unsigned m : {4u, 6u}) {
    EXPECT_LE(f.stable_fraction(m, 32, 0.5, low),
              f.stable_fraction(m, 32, 0.5, EnvironmentState{}) + 1e-9)
        << "imbalance " << m;
  }
}

TEST(ElectricalProperty, GroupQualityVariesAcrossGroups) {
  PropertyFixture f;
  // The same mid-margin population measured under different group keys
  // spreads widely — the box-plot spread of the paper's figures.
  double lo = 1.0;
  double hi = 0.0;
  for (std::uint64_t key = 1; key <= 30; ++key) {
    const double s = f.stable_fraction(6, 32, 0.5, {}, key);
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  EXPECT_GT(hi - lo, 0.10);
}

TEST(ElectricalProperty, SparserGroupsHaveStrongerPerCellMargins) {
  PropertyFixture f;
  // Same imbalance with fewer connected cells -> larger deviation
  // (smaller Cb + N*Cs denominator) -> more stable bitlines.
  EXPECT_GT(f.stable_fraction(2, 4), f.stable_fraction(2, 32));
}

}  // namespace
}  // namespace simra::dram
