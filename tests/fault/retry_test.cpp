#include "fault/retry.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/spec.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace simra::fault {
namespace {

constexpr std::uint64_t kSeed = 0xFA11;
constexpr AttemptKey kKey{3, 4, 7};

std::string crash_message(unsigned attempt) {
  return "test crash (attempt " + std::to_string(attempt) + ")";
}

/// Runs the attempt runner with obs on, recording into a private task
/// buffer so the emitted events can be inspected.
class RunAttempts : public ::testing::Test {
 protected:
  void SetUp() override { obs::set_enabled_for_test(true); }
  void TearDown() override { obs::set_enabled_for_test(std::nullopt); }

  std::vector<const obs::Event*> events(const std::string& type) const {
    std::vector<const obs::Event*> out;
    for (const obs::Event& event : buffer_.events())
      if (event.type == type) out.push_back(&event);
    return out;
  }

  obs::TaskBuffer buffer_{0, "retry_test", 64};
  obs::TaskScope scope_{&buffer_};
};

TEST_F(RunAttempts, AlwaysCrashingOrdinalExhaustsTheBudget) {
  obs::Histogram& attempts_hist = obs::MetricsRegistry::instance().histogram(
      "fault/attempts", {1, 2, 3, 4, 5, 6});
  const std::uint64_t count_before = attempts_hist.count();
  const double sum_before = attempts_hist.sum();

  const FaultSpec spec = FaultSpec::parse("task.crash_tasks=7,retry.max=2");
  AttemptRecord record;
  unsigned body_calls = 0;
  run_attempts(spec, kSeed, kKey, record, crash_message,
               [&](unsigned, ChipInjector*) { ++body_calls; });

  EXPECT_EQ(record.attempts, 3u);
  EXPECT_FALSE(record.succeeded);
  EXPECT_EQ(body_calls, 0u);
  EXPECT_EQ(record.faults.task_crashes, 3u);
  EXPECT_EQ(record.error, "test crash (attempt 2)");
  EXPECT_EQ(events("task.attempt_failed").size(), 3u);
  EXPECT_EQ(events("task.retry").size(), 2u);
  // One observation per unit of work, of its attempt count.
  EXPECT_EQ(attempts_hist.count(), count_before + 1);
  EXPECT_DOUBLE_EQ(attempts_hist.sum(), sum_before + 3.0);
}

TEST_F(RunAttempts, BodyFailingOnceSucceedsOnTheRetry) {
  AttemptRecord record;
  std::vector<unsigned> failed;
  run_attempts(
      FaultSpec{}, kSeed, kKey, record, crash_message,
      [](unsigned attempt, ChipInjector*) {
        if (attempt == 0) throw std::runtime_error("first attempt broke");
      },
      [&](unsigned attempt, const std::string& error) {
        failed.push_back(attempt);
        EXPECT_EQ(error, "first attempt broke");
      });

  EXPECT_EQ(record.attempts, 2u);
  EXPECT_TRUE(record.succeeded);
  // As both callers report it: the delivered outcome keeps the error of
  // the attempt that failed before it.
  EXPECT_EQ(record.error, "first attempt broke");
  EXPECT_EQ(failed, std::vector<unsigned>{0});
  ASSERT_EQ(events("task.attempt_failed").size(), 1u);
  EXPECT_EQ(events("task.retry").size(), 1u);
}

TEST_F(RunAttempts, CleanSpecRunsOnceWithoutAnInjector) {
  AttemptRecord record;
  unsigned body_calls = 0;
  run_attempts(FaultSpec{}, kSeed, kKey, record, crash_message,
               [&](unsigned attempt, ChipInjector* injector) {
                 ++body_calls;
                 EXPECT_EQ(attempt, 0u);
                 EXPECT_EQ(injector, nullptr);
               });

  EXPECT_EQ(body_calls, 1u);
  EXPECT_EQ(record.attempts, 1u);
  EXPECT_TRUE(record.succeeded);
  EXPECT_TRUE(record.error.empty());
  EXPECT_EQ(record.faults.total(), 0u);
  EXPECT_TRUE(buffer_.events().empty());
}

TEST_F(RunAttempts, BackoffDoublesAndIsRecorded) {
  obs::Histogram& backoff_hist = obs::MetricsRegistry::instance().histogram(
      "fault/backoff_ms", {0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
  const std::uint64_t count_before = backoff_hist.count();
  const double sum_before = backoff_hist.sum();

  const FaultSpec spec = FaultSpec::parse("retry.max=2,retry.backoff_ms=0.01");
  AttemptRecord record;
  run_attempts(spec, kSeed, kKey, record, crash_message,
               [](unsigned attempt, ChipInjector*) {
                 if (attempt < 2) throw std::runtime_error("again");
               });

  EXPECT_EQ(record.attempts, 3u);
  EXPECT_TRUE(record.succeeded);
  EXPECT_EQ(backoff_hist.count(), count_before + 2);
  EXPECT_NEAR(backoff_hist.sum(), sum_before + 0.01 + 0.02, 1e-12);
  const std::vector<const obs::Event*> retries = events("task.retry");
  ASSERT_EQ(retries.size(), 2u);
  const obs::Fields first{{"attempt", "1"}, {"backoff_ms", "0.010000"}};
  const obs::Fields second{{"attempt", "2"}, {"backoff_ms", "0.020000"}};
  EXPECT_EQ(retries[0]->fields, first);
  EXPECT_EQ(retries[1]->fields, second);
}

}  // namespace
}  // namespace simra::fault
