// The shard's PUD-reliability cross-check: with SIMRA_OPT=lint or on,
// every many-row activation of a fused batch is checked against the
// groups the shard profiled. A warmed shard only ever activates steered
// groups, so each APA is checked and none is flagged.

#include "serve/shard.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "charz/runner.hpp"
#include "obs/metrics.hpp"
#include "serve/workload.hpp"
#include "verify/dataflow.hpp"
#include "verify/optimizer.hpp"

namespace simra::serve {
namespace {

constexpr unsigned kBanks = 2;

class ShardReliability : public ::testing::TestWithParam<verify::OptMode> {
 protected:
  void SetUp() override { verify::set_global_opt_mode(GetParam()); }
  void TearDown() override { verify::set_global_opt_mode(std::nullopt); }
};

TEST_P(ShardReliability, WarmedShardChecksEveryApaOfTheBatch) {
  Shard::Config config;
  config.profile = dram::VendorProfile::hynix_m();
  config.seed = 0x2e11;
  Shard shard(config, 0);
  for (unsigned bank = 0; bank < kBanks; ++bank)
    shard.warm(static_cast<dram::BankId>(bank), 0);
  // Each profiled group is approved as soon as it is picked.
  EXPECT_EQ(shard.reliability_policy().size(), kBanks);

  WorkloadSpec spec;
  spec.columns = config.profile.geometry.columns;
  spec.banks = kBanks;
  spec.rows = 32;
  spec.seed_sources = true;
  spec.weight_rowclone = 2;
  spec.weight_init = 1;
  spec.weight_copy = 2;
  spec.weight_majx = 3;
  spec.seed = 0x7e57;
  std::vector<BatchItem> batch(12);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].request = make_request(spec, i);
    batch[i].request.id = i + 1;
  }

  // The fused program the shard is about to run, compiled the same way,
  // gives the number of APAs the cross-check must see.
  static const pud::RowGroup kNoGroup{};
  std::vector<CompiledRequest> compiled;
  for (const BatchItem& item : batch) {
    const Request& r = item.request;
    const pud::RowGroup& group =
        r.op == OpKind::kRowClone ? kNoGroup : shard.group_for(r.bank, r.sa);
    ASSERT_TRUE(shard.compiler().validate(r, group).empty());
    compiled.push_back(shard.compiler().compile(r, group));
  }
  const bender::Program fused = shard.compiler().fuse("probe", compiled);
  const std::size_t apas =
      verify::dataflow(fused, shard.engine().executor().program_context())
          .apas.size();
  ASSERT_GT(apas, 0u);

  auto& registry = obs::MetricsRegistry::instance();
  prof::Counter& checks = registry.counter("serve.batch.reliability_checks");
  prof::Counter& findings =
      registry.counter("serve.batch.reliability_findings");
  const std::uint64_t checks_before = checks.calls();
  const std::uint64_t findings_before = findings.calls();

  const BatchOutcome outcome =
      shard.execute(batch, 0, charz::detail::Resilience{});
  ASSERT_TRUE(outcome.succeeded) << outcome.error;
  EXPECT_EQ(checks.calls() - checks_before, apas);
  EXPECT_EQ(findings.calls() - findings_before, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    OptModes, ShardReliability,
    ::testing::Values(verify::OptMode::kLint, verify::OptMode::kOn),
    [](const ::testing::TestParamInfo<verify::OptMode>& mode) {
      return mode.param == verify::OptMode::kLint ? "Lint" : "On";
    });

}  // namespace
}  // namespace simra::serve
