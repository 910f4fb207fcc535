#include "fault/spec.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "support/scoped_env.hpp"

namespace simra::fault {
namespace {

using simra::testing::ScopedEnv;
using simra::testing::ScopedFaultSpec;

TEST(FaultSpec, EmptyStringParsesToDefaults) {
  const FaultSpec s = FaultSpec::parse("");
  EXPECT_FALSE(s.injects());
  EXPECT_FALSE(s.any_transport());
  EXPECT_FALSE(s.any_chip());
  EXPECT_FALSE(s.any_task());
  EXPECT_EQ(s.retry_max, 2u);
  EXPECT_EQ(s.retry_backoff_ms, 0.0);
  EXPECT_FALSE(s.trace);
  // Clean runs quarantine nothing: any real failure must abort.
  EXPECT_EQ(s.effective_quarantine_budget(), 0u);
}

TEST(FaultSpec, ParsesEveryKey) {
  const FaultSpec s = FaultSpec::parse(
      "transport.bitflip=0.001,transport.drop=0.002,transport.dup=0.003,"
      "transport.jitter=0.004,chip.stuck=0.005,chip.retention=0.006,"
      "chip.disturb=0.007,task.fail=0.25,task.delay_ms=1.5,"
      "task.crash_tasks=2:7,retry.max=4,retry.backoff_ms=8,"
      "quarantine.budget=3,trace=1");
  EXPECT_DOUBLE_EQ(s.transport_bitflip, 0.001);
  EXPECT_DOUBLE_EQ(s.transport_drop, 0.002);
  EXPECT_DOUBLE_EQ(s.transport_dup, 0.003);
  EXPECT_DOUBLE_EQ(s.transport_jitter, 0.004);
  EXPECT_DOUBLE_EQ(s.chip_stuck, 0.005);
  EXPECT_DOUBLE_EQ(s.chip_retention, 0.006);
  EXPECT_DOUBLE_EQ(s.chip_disturb, 0.007);
  EXPECT_DOUBLE_EQ(s.task_fail, 0.25);
  EXPECT_DOUBLE_EQ(s.task_delay_ms, 1.5);
  ASSERT_EQ(s.task_crash_tasks.size(), 2u);
  EXPECT_EQ(s.retry_max, 4u);
  EXPECT_DOUBLE_EQ(s.retry_backoff_ms, 8.0);
  EXPECT_TRUE(s.quarantine_budget_set);
  EXPECT_EQ(s.quarantine_budget, 3u);
  EXPECT_TRUE(s.trace);
  EXPECT_TRUE(s.injects());
}

TEST(FaultSpec, ToleratesWhitespace) {
  const FaultSpec s =
      FaultSpec::parse("  transport.drop = 0.5 ,  retry.max = 3  ");
  EXPECT_DOUBLE_EQ(s.transport_drop, 0.5);
  EXPECT_EQ(s.retry_max, 3u);
}

TEST(FaultSpec, CrashListAnswersMembership) {
  const FaultSpec s = FaultSpec::parse("task.crash_tasks=5:1:3");
  EXPECT_TRUE(s.crashes_task(1));
  EXPECT_TRUE(s.crashes_task(3));
  EXPECT_TRUE(s.crashes_task(5));
  EXPECT_FALSE(s.crashes_task(0));
  EXPECT_FALSE(s.crashes_task(2));
  EXPECT_FALSE(s.crashes_task(4));
  EXPECT_TRUE(s.any_task());
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultSpec::parse("nonsense.key=1"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("transport.bitflip"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("transport.bitflip=abc"),
               std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("transport.bitflip=1.5"),
               std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("transport.bitflip=-0.1"),
               std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("task.crash_tasks=1:x"),
               std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("retry.max=-1"), std::invalid_argument);
}

TEST(FaultSpec, ErrorNamesTheOffendingKey) {
  try {
    FaultSpec::parse("chip.stuck=2.0");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("chip.stuck"), std::string::npos)
        << e.what();
  }
}

TEST(FaultSpec, RetryMaxIsCappedAt31) {
  EXPECT_EQ(FaultSpec::parse("retry.max=31").retry_max, 31u);
  // 32 would double the backoff past a 32-bit shift; 4294967295 would wrap
  // the attempt budget to 0; 4294967296 would truncate to 0 retries.
  for (const char* spec :
       {"retry.max=32", "retry.max=4294967295", "retry.max=4294967296"}) {
    try {
      FaultSpec::parse(spec);
      ADD_FAILURE() << "expected std::invalid_argument for " << spec;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("retry.max"), std::string::npos)
          << e.what();
    }
  }
}

TEST(FaultSpec, EffectiveQuarantineBudget) {
  // Injecting spec without an explicit budget: injected failures are
  // expected, so the budget is unlimited.
  EXPECT_EQ(FaultSpec::parse("task.fail=0.5").effective_quarantine_budget(),
            std::numeric_limits<std::size_t>::max());
  // Explicit budget wins in both directions.
  EXPECT_EQ(FaultSpec::parse("task.fail=0.5,quarantine.budget=1")
                .effective_quarantine_budget(),
            1u);
  EXPECT_EQ(FaultSpec::parse("quarantine.budget=4")
                .effective_quarantine_budget(),
            4u);
}

TEST(FaultSpec, ZeroRatesDoNotCountAsInjecting) {
  const FaultSpec s = FaultSpec::parse(
      "transport.bitflip=0,chip.stuck=0,task.fail=0,retry.max=5");
  EXPECT_FALSE(s.injects());
  EXPECT_EQ(s.retry_max, 5u);
}

TEST(FaultSpec, FromEnvReadsSpecAndSeed) {
  {
    ScopedFaultSpec scoped("transport.drop=0.25,retry.max=1", "123");
    const FaultSpec s = FaultSpec::from_env();
    EXPECT_DOUBLE_EQ(s.transport_drop, 0.25);
    EXPECT_EQ(s.retry_max, 1u);
    EXPECT_EQ(fault_seed_from_env(), 123u);
  }
  {
    ScopedFaultSpec scoped(nullptr, nullptr);
    EXPECT_FALSE(FaultSpec::from_env().injects());
    EXPECT_EQ(fault_seed_from_env(), 0x5EED7u);
  }
}

}  // namespace
}  // namespace simra::fault
