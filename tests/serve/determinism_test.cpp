// Thread-count invariance of the serving layer: for a fixed seeded
// workload submitted in a fixed order, the response surface and every
// rendered obs artifact — events.jsonl, trace.json, and the metrics
// exposition — must be byte-identical at SIMRA_THREADS=1 and 4. Worker
// count may only change which thread executes a shard's batches, never
// what they produce: batches are composed on the scheduler thread, obs
// buffers are sealed in (shard, batch) order, and histograms are observed
// from the scheduler only.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "support/scoped_env.hpp"
#include "verify/optimizer.hpp"

namespace simra::serve {
namespace {

using simra::testing::ScopedFaultSpec;
using simra::testing::ScopedThreads;

struct RunResult {
  std::string responses;  ///< canonical rendering of every response.
  std::string events;
  std::string trace;
  std::string metrics;
  std::string verify_metrics;  ///< the verify.* metrics of the executor lint.
  std::string snapshot;  ///< the SLO snapshot.json rendering.
};

/// Canonical rendering of the metrics named `prefix`* (calls, gauge
/// values, full bucket vectors and float-accumulated sums). The full
/// Prometheus render also carries wall-clock seconds of profiling
/// counters, which are real time and so never thread-count-invariant;
/// the call counts and the serve surface are all virtual-time and must be.
std::string render_metrics(const std::string& prefix) {
  auto& registry = obs::MetricsRegistry::instance();
  std::ostringstream os;
  for (const auto& counter : registry.counters_snapshot())
    if (counter.name.rfind(prefix, 0) == 0)
      os << counter.name << " calls=" << counter.calls << '\n';
  for (const auto& gauge : registry.gauges_snapshot())
    if (gauge.name.rfind(prefix, 0) == 0)
      os << gauge.name << " value=" << gauge.value << '\n';
  for (const auto& histogram : registry.histograms_snapshot())
    if (histogram.name.rfind(prefix, 0) == 0) {
      os << histogram.name << " count=" << histogram.count
         << " sum=" << histogram.sum << " buckets=";
      for (const std::uint64_t bucket : histogram.counts) os << bucket << ',';
      os << '\n';
    }
  return os.str();
}

ServiceConfig determinism_config() {
  ServiceConfig config;
  config.shards = 3;
  config.max_batch = 8;
  config.queue_capacity = 256;
  config.max_in_flight = 256;
  config.tenant_quota = 256;
  config.seed = 0xd07;
  return config;
}

/// Runs the fixed workload and renders everything comparable. The Service
/// is constructed inside the SIMRA_THREADS scope, since the worker pool
/// is sized at construction.
RunResult run_fixed_workload(const char* threads) {
  ScopedThreads scoped(threads);
  obs::reset_log();
  obs::MetricsRegistry::instance().reset();

  WorkloadSpec spec;
  spec.rows = 32;
  spec.seed_sources = true;
  spec.read_back = true;
  spec.deadline_fraction = 0.25;
  spec.deadline_slack_ns = 5e5;
  spec.seed = 0xfeed;

  RunResult result;
  {
    Service service(determinism_config());
    spec.columns = service.config().profiles.front().geometry.columns;
    constexpr std::size_t kRequests = 48;
    std::vector<std::unique_ptr<Ticket>> tickets;
    for (std::size_t i = 0; i < kRequests; ++i) {
      tickets.push_back(std::make_unique<Ticket>());
      EXPECT_TRUE(service.submit(make_request(spec, i), tickets.back().get()));
    }
    service.drain();

    std::ostringstream os;
    for (auto& ticket : tickets) {
      EXPECT_TRUE(ticket->ready());
      const Response r = ticket->wait();
      os << r.id << ' ' << to_string(r.status) << " shard=" << r.shard
         << " batch=" << r.batch << " attempts=" << r.attempts
         << " t=" << r.virtual_ns << " bits=" << r.result.popcount() << " "
         << r.error << '\n';
    }
    os << service.stats().summary(service.shard_count()) << '\n';
    result.responses = os.str();
  }
  result.events = obs::Log::instance().render_events_jsonl();
  result.trace = obs::Log::instance().render_trace_json();
  result.metrics = render_metrics("serve/");
  result.verify_metrics = render_metrics("verify.");
  result.snapshot = obs::SloRegistry::instance().render_snapshot_json();
  return result;
}

class ServeDeterminism : public ::testing::Test {
 protected:
  void SetUp() override { obs::set_enabled_for_test(true); }
  void TearDown() override {
    obs::reset_log();
    obs::MetricsRegistry::instance().reset();
    obs::set_enabled_for_test(std::nullopt);
  }
};

TEST_F(ServeDeterminism, CleanServeArtifactsAreByteIdenticalAcrossThreads) {
  const RunResult serial = run_fixed_workload("1");
  const RunResult parallel = run_fixed_workload("4");
  EXPECT_EQ(serial.responses, parallel.responses);
  EXPECT_EQ(serial.events, parallel.events);
  EXPECT_EQ(serial.trace, parallel.trace);
  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.snapshot, parallel.snapshot);

  // Sanity: the artifacts actually carry serving content.
  EXPECT_NE(serial.trace.find("serve.s0.b0"), std::string::npos);
  EXPECT_NE(serial.trace.find("\"cat\":\"serve.request\""), std::string::npos);
  EXPECT_NE(serial.metrics.find("serve/batches"), std::string::npos);
  EXPECT_NE(serial.responses.find("ok"), std::string::npos);

  // The per-request span tree is complete: parent req span plus its
  // queue-wait / batch-wait / execute children, all on virtual clocks.
  EXPECT_NE(serial.trace.find("\"name\":\"req "), std::string::npos);
  EXPECT_NE(serial.trace.find("\"name\":\"queue_wait\""), std::string::npos);
  EXPECT_NE(serial.trace.find("\"name\":\"batch_wait\""), std::string::npos);
  EXPECT_NE(serial.trace.find("\"name\":\"execute\""), std::string::npos);
  EXPECT_NE(serial.trace.find("\"name\":\"compile\""), std::string::npos);
  EXPECT_NE(serial.trace.find("\"wait_rounds\""), std::string::npos);

  // The slot->request attribution table rides in each fused batch.
  EXPECT_NE(serial.events.find("serve.batch.slots"), std::string::npos);

  // Per-tenant SLO surface: latency histograms with exemplars in the
  // metrics registry, tenants + burn rate in the snapshot.
  EXPECT_NE(serial.metrics.find("/latency_virtual_us"), std::string::npos);
  EXPECT_NE(serial.snapshot.find("\"tenants\""), std::string::npos);
  EXPECT_NE(serial.snapshot.find("\"burn_rate\""), std::string::npos);
  EXPECT_NE(serial.snapshot.find("\"request_id\""), std::string::npos);
  EXPECT_NE(serial.snapshot.find("\"bus_commands\""), std::string::npos);
}

TEST_F(ServeDeterminism, FaultInjectedServeArtifactsAreByteIdentical) {
  ScopedFaultSpec spec("task.crash_tasks=0,retry.max=1,transport.bitflip=1e-3",
                       "42");
  const RunResult serial = run_fixed_workload("1");
  const RunResult parallel = run_fixed_workload("4");
  EXPECT_EQ(serial.responses, parallel.responses);
  EXPECT_EQ(serial.events, parallel.events);
  EXPECT_EQ(serial.trace, parallel.trace);
  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.snapshot, parallel.snapshot);

  // The injected degradation is visible, deterministically.
  EXPECT_NE(serial.events.find("serve.shard.quarantined"), std::string::npos);
  EXPECT_NE(serial.events.find("\"type\":\"task.attempt_failed\""),
            std::string::npos);
  EXPECT_NE(serial.events.find("\"type\":\"task.retry\""),
            std::string::npos);

  // So is the request-scoped view of it: rerouted requests announce
  // themselves, and the failed attempt appears as a retry span on the
  // shard track.
  EXPECT_NE(serial.events.find("serve.request.rerouted"), std::string::npos);
  EXPECT_NE(serial.trace.find("\"name\":\"retry "), std::string::npos);
  // Rerouted requests carry their journey in the parent span args.
  EXPECT_NE(serial.trace.find("\"reroutes\":\"1\""), std::string::npos);
}

// With SIMRA_OPT=lint every fused batch is linted on the shard worker
// that runs it; its verify.* metrics must not depend on which worker
// finishes last.
TEST_F(ServeDeterminism, LintMetricsAreIdenticalAcrossThreads) {
  verify::set_global_opt_mode(verify::OptMode::kLint);
  const RunResult serial = run_fixed_workload("1");
  const RunResult parallel = run_fixed_workload("4");
  verify::set_global_opt_mode(std::nullopt);
  EXPECT_NE(serial.verify_metrics.find("verify.occupancy.programs"),
            std::string::npos);
  EXPECT_EQ(serial.verify_metrics, parallel.verify_metrics);
  EXPECT_EQ(serial.responses, parallel.responses);
}

TEST_F(ServeDeterminism, RepeatedIdenticalRunsAreByteIdentical) {
  const RunResult first = run_fixed_workload("2");
  const RunResult second = run_fixed_workload("2");
  EXPECT_EQ(first.responses, second.responses);
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.metrics, second.metrics);
  EXPECT_EQ(first.snapshot, second.snapshot);
}

}  // namespace
}  // namespace simra::serve
