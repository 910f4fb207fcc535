#pragma once

// Shared plumbing of the repository benchmark: the run options, the raw
// result record each workload fills in, wall/CPU clocks, the span timer
// of traced runs, and the FNV-1a digest the output checks compare.

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "common/prof.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 0;  ///< 0 = the workload's default.
  /// Test hook: adds one ticket that is never submitted to the
  /// exactly-once check, which must then fail the run.
  bool drop_ticket = false;
};

/// One named check of a run's outputs.
struct Check {
  std::string name;
  bool passed = false;
  std::string detail;
};

/// What a workload reports back to main(): digests, checks, the operation
/// tally behind `attempted` / `failed`, end-to-end or per-layer metrics,
/// and the human-readable ledger lines printed above the result.
struct Result {
  std::map<std::string, std::string> digests;
  std::vector<Check> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;
  /// CLOCK_MONOTONIC nanoseconds when the sweep's first timed operation
  /// started (0 on serve, which times set-up per round itself).
  std::uint64_t ready_ns = 0;

  void check(std::string name, bool passed, std::string detail = {}) {
    checks.push_back({std::move(name), passed, std::move(detail)});
  }
};

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CLOCK_MONOTONIC in nanoseconds, the clock Python's time.monotonic_ns()
/// reads, so perfbench/run.py can time from the process launch.
std::uint64_t monotonic_ns();

/// User plus system CPU seconds consumed by the whole process so far.
double process_cpu_s();

/// CPU seconds consumed by the calling thread so far.
double thread_cpu_s();

/// Peak resident set size of the process, in MB.
double peak_rss_mb();

/// Median of a sample (copied); 0 for an empty sample.
double median(std::vector<double> values);

/// The q-quantile (0..1) by nearest rank on a sorted copy; 0 when empty.
double quantile(std::vector<double> values, double q);

/// 64-bit FNV-1a, fed field by field.
class Digest {
 public:
  void bytes(const void* data, std::size_t size);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// The program's own prof counter `perfbench/<name>`, where traced runs
/// total the benchmark's layer calls (calls and seconds, lock-free). Look
/// it up once per call site: the lookup takes the registry lock.
simra::prof::Counter& span_counter(const char* name);

/// Times the enclosing scope into `counter` when `enabled`; a disabled
/// span reads no clock, so untraced runs pay nothing.
class Span {
 public:
  Span(bool enabled, simra::prof::Counter& counter)
      : counter_(enabled ? &counter : nullptr),
        start_(enabled ? Clock::now() : Clock::time_point{}) {}
  ~Span() {
    if (counter_)
      counter_->add(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start_)
              .count()));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  simra::prof::Counter* counter_;
  Clock::time_point start_;
};

/// Sums of the program's own `simra::prof` counters (calls, seconds)
/// between two snapshots, keyed by counter name.
struct CounterDelta {
  std::map<std::string, std::uint64_t> calls;
  std::map<std::string, double> seconds;
};
std::map<std::string, std::pair<std::uint64_t, double>> counter_snapshot();
CounterDelta counter_delta(
    const std::map<std::string, std::pair<std::uint64_t, double>>& before,
    const std::map<std::string, std::pair<std::uint64_t, double>>& after);

/// Adds the `dram.*` per-layer metrics from a counter delta: calls and
/// seconds of every `electrical/*` scope, the span-pool hit ratio, and
/// `dram.deviates_miss_per_measure` against `ops` operations per unit.
/// Seconds and calls are divided by `units` (sweeps or rounds).
void add_dram_metrics(Result& result, const CounterDelta& delta, double units,
                      double ops);

/// Sets to 0 every per-layer metric whose name starts with one of
/// `layers` (such as "serve."): the layers the workload bypasses. A metric
/// the workload did measure keeps its value.
void set_bypassed(Result& result, std::initializer_list<const char*> layers);

/// Seconds of the electrical scopes that are not nested in another one,
/// from the `dram.*_s` metrics add_dram_metrics filled in.
double outer_electrical_s(const Result& result);

void run_sweep(const Options& options, Result& result);
void run_serve_batch(const Options& options, Result& result);
void run_serve_open(const Options& options, Result& result);

}  // namespace perfbench
