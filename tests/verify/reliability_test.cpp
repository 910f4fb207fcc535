#include <gtest/gtest.h>

#include <optional>

#include "bender/executor.hpp"
#include "dram/chip.hpp"
#include "dram/vendor.hpp"
#include "obs/metrics.hpp"
#include "pud/engine.hpp"
#include "pud/program_builders.hpp"
#include "pud/reliability_map.hpp"
#include "pud/row_group.hpp"
#include "verify/dataflow.hpp"
#include "verify/lint.hpp"
#include "verify/optimizer.hpp"
#include "verify/reliability.hpp"

namespace simra::verify {
namespace {

using bender::Program;

struct ReliabilityLintTest : ::testing::Test {
  dram::Chip chip{dram::VendorProfile::hynix_m(), 13};
  pud::Engine engine{&chip};
  ProgramContext ctx = engine.executor().program_context();
  const dram::VendorProfile& profile = chip.profile();
  const std::size_t rows = chip.layout().rows();
  static constexpr dram::BankId kBank = 0;
  static constexpr dram::SubarrayId kSa = 1;

  Program apa_program(const pud::RowGroup& group) const {
    const auto global = [&](dram::RowAddr local) {
      return pud::programs::global_row(kSa, rows, local);
    };
    return pud::programs::apa(profile, kBank, global(group.row_first),
                              global(group.row_second),
                              pud::ApaTimings::best_for_majx(),
                              /*read_buffer=*/false);
  }
};

TEST_F(ReliabilityLintTest, PolicyMatchesApprovedGroupsOnly) {
  ReliabilityPolicy policy;
  EXPECT_TRUE(policy.empty());
  policy.approve(3, 1, {9, 2, 5});  // unsorted on purpose.
  EXPECT_EQ(policy.size(), 1u);
  EXPECT_TRUE(policy.allows(3, 1, {2, 5, 9}));
  EXPECT_FALSE(policy.allows(3, 1, {2, 5}));
  EXPECT_FALSE(policy.allows(3, 2, {2, 5, 9}));  // other subarray.
  EXPECT_FALSE(policy.allows(4, 1, {2, 5, 9}));  // other bank.
}

TEST_F(ReliabilityLintTest, UnprofiledGroupIsFlagged) {
  const pud::RowGroup group = pud::make_group(chip.layout(), 0, 3);
  const Program p = apa_program(group);
  const DataflowResult df = dataflow(p, ctx);
  ASSERT_FALSE(df.apas.empty());
  const ReliabilityPolicy empty_policy;
  const std::vector<Finding> findings =
      lint_reliability(df.apas, empty_policy, p.intents());
  ASSERT_EQ(findings.size(), df.apas.size());
  EXPECT_EQ(findings.front().check, CheckId::kUnreliableGroup);
  EXPECT_EQ(findings.front().severity, Severity::kWarning);
  EXPECT_EQ(findings.front().classification, Classification::kUnexpected);
}

TEST_F(ReliabilityLintTest, ProfiledGroupIsClean) {
  const pud::RowGroup group = pud::make_group(chip.layout(), 0, 3);
  const Program p = apa_program(group);
  const DataflowResult df = dataflow(p, ctx);
  ASSERT_FALSE(df.apas.empty());
  ReliabilityPolicy policy;
  // The production adapter: records the internal driven set, exactly as
  // the dataflow pass reports ApaEvents.
  pud::ReliabilityMap::approve_group(policy, chip.layout(),
                                     profile.scrambler, kBank, kSa, group);
  const std::vector<Finding> findings =
      lint_reliability(df.apas, policy, p.intents());
  EXPECT_TRUE(findings.empty());
}

TEST_F(ReliabilityLintTest, DeclaredExcursionIsClassifiedIntended) {
  const pud::RowGroup group = pud::make_group(chip.layout(), 0, 3);
  Program p = apa_program(group);
  p.expect(Intent::allow(CheckId::kUnreliableGroup, static_cast<int>(kBank),
                         "characterization sweep"));
  const DataflowResult df = dataflow(p, ctx);
  const ReliabilityPolicy empty_policy;
  const std::vector<Finding> findings =
      lint_reliability(df.apas, empty_policy, p.intents());
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings.front().classification, Classification::kIntended);
  EXPECT_EQ(findings.front().intent_label, "characterization sweep");
}

TEST_F(ReliabilityLintTest, SingleRowActivationsAreNeverFlagged) {
  // A nominal single-row program produces no APA events at all.
  const std::size_t columns = profile.geometry.columns;
  Program p = pud::programs::write_row(
      profile, kBank, pud::programs::global_row(kSa, rows, 4),
      BitVec(columns, true));
  const DataflowResult df = dataflow(p, ctx);
  EXPECT_TRUE(df.apas.empty());
  const ReliabilityPolicy empty_policy;
  EXPECT_TRUE(lint_reliability(df.apas, empty_policy, p.intents()).empty());
}

TEST_F(ReliabilityLintTest, LintReportsUnapprovedGroupsThroughItsPolicy) {
  const pud::RowGroup group = pud::make_group(chip.layout(), 0, 3);
  const Program p = apa_program(group);
  prof::Counter& reported =
      obs::MetricsRegistry::instance().counter("verify.lint.findings");
  const auto findings_of = [&](const ReliabilityPolicy* policy) {
    const std::uint64_t before = reported.calls();
    lint(p, ctx, policy);
    return reported.calls() - before;
  };
  const std::uint64_t baseline = findings_of(nullptr);

  const ReliabilityPolicy empty_policy;
  EXPECT_EQ(findings_of(&empty_policy), baseline + 1);

  ReliabilityPolicy approved;
  pud::ReliabilityMap::approve_group(approved, chip.layout(),
                                     profile.scrambler, kBank, kSa, group);
  EXPECT_EQ(findings_of(&approved), baseline);
}

TEST_F(ReliabilityLintTest, ExecutorRunReturnsThePolicyFindings) {
  const pud::RowGroup group = pud::make_group(chip.layout(), 0, 3);
  const Program p = apa_program(group);
  const std::size_t apas = dataflow(p, ctx).apas.size();
  ASSERT_GT(apas, 0u);
  set_global_opt_mode(OptMode::kLint);
  bender::Executor& executor = engine.executor();

  const ReliabilityPolicy empty_policy;
  (void)executor.run(p, &empty_policy);
  EXPECT_EQ(executor.last_lint().apas, apas);
  ASSERT_EQ(executor.last_lint().unreliable.size(), 1u);
  EXPECT_EQ(executor.last_lint().unreliable.front().check,
            CheckId::kUnreliableGroup);

  ReliabilityPolicy approved;
  pud::ReliabilityMap::approve_group(approved, chip.layout(),
                                     profile.scrambler, kBank, kSa, group);
  (void)executor.run(p, &approved);
  EXPECT_EQ(executor.last_lint().apas, apas);
  EXPECT_TRUE(executor.last_lint().unreliable.empty());

  // Without a policy nothing is cross-checked.
  (void)executor.run(p);
  EXPECT_EQ(executor.last_lint().apas, 0u);
  EXPECT_TRUE(executor.last_lint().unreliable.empty());
  set_global_opt_mode(std::nullopt);
}

}  // namespace
}  // namespace simra::verify
