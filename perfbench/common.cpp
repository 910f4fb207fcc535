#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <ctime>

namespace perfbench {

std::uint64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

void Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ull;
  }
}

std::string Digest::hex() const {
  char out[17];
  std::snprintf(out, sizeof out, "%016llx",
                static_cast<unsigned long long>(h_));
  return out;
}

simra::prof::Counter& span_counter(const char* name) {
  return simra::prof::Counter::get(std::string("perfbench/") + name);
}

std::map<std::string, std::pair<std::uint64_t, double>> counter_snapshot() {
  std::map<std::string, std::pair<std::uint64_t, double>> out;
  for (const simra::prof::KernelStats& k : simra::prof::snapshot())
    out[k.name] = {k.calls, k.seconds};
  return out;
}

CounterDelta counter_delta(
    const std::map<std::string, std::pair<std::uint64_t, double>>& before,
    const std::map<std::string, std::pair<std::uint64_t, double>>& after) {
  CounterDelta delta;
  for (const auto& [name, value] : after) {
    std::uint64_t calls = value.first;
    double seconds = value.second;
    if (auto it = before.find(name); it != before.end()) {
      calls -= it->second.first;
      seconds -= it->second.second;
    }
    delta.calls[name] = calls;
    delta.seconds[name] = seconds;
  }
  return delta;
}

namespace {

// The nine SIMRA_PROF_SCOPE sites of src/dram/electrical.cpp, by counter
// name (deviates_miss has two sites: the chip-shared and the private
// deviate cache).
const std::vector<std::string>& electrical_scopes() {
  static const std::vector<std::string> scopes = {
      "deviates_miss",        "threshold_mask_compute",
      "estimate_pattern_noise", "resolve_charge_share",
      "write_overdrive_mask", "copy_stable_mask",
      "latched_mask",         "sense_frac_row"};
  return scopes;
}

/// The electrical scopes that run inside another electrical scope, so the
/// ledger reports them but never adds them a second time. deviates_miss
/// fills variation spans for resolve_charge_share, latched_mask,
/// sense_frac_row and the threshold masks; threshold_mask_compute runs
/// inside write_overdrive_mask and copy_stable_mask.
bool nested_electrical_scope(const std::string& scope) {
  return scope == "deviates_miss" || scope == "threshold_mask_compute";
}

}  // namespace

void add_dram_metrics(Result& result, const CounterDelta& delta, double units,
                      double ops) {
  const auto calls = [&](const std::string& name) {
    auto it = delta.calls.find(name);
    return it == delta.calls.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto secs = [&](const std::string& name) {
    auto it = delta.seconds.find(name);
    return it == delta.seconds.end() ? 0.0 : it->second;
  };
  const double per = units > 0.0 ? 1.0 / units : 0.0;
  for (const std::string& scope : electrical_scopes()) {
    const std::string counter = "electrical/" + scope;
    result.metrics["dram." + scope + "_calls"] = calls(counter) * per;
    result.metrics["dram." + scope + "_s"] = secs(counter) * per;
  }
  const double hits = calls("dram/span_pool_hit");
  const double misses = calls("dram/span_pool_miss");
  result.metrics["dram.span_pool_hit_ratio"] =
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  result.metrics["dram.deviates_miss_per_measure"] =
      ops > 0.0 ? calls("electrical/deviates_miss") * per / ops : 0.0;
}

double outer_electrical_s(const Result& result) {
  double total = 0.0;
  for (const std::string& scope : electrical_scopes())
    if (!nested_electrical_scope(scope))
      total += result.metrics.at("dram." + scope + "_s");
  return total;
}

namespace {

/// Every per-layer metric name of BENCHMARK.json.
const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n = {
        "charz.chip_tasks",     "charz.tasks_spawned",
        "charz.steals",         "charz.merge_s",
        "charz.busy_pct",       "pud.measure_calls",
        "pud.measure_s",        "pud.sample_group_s"};
    for (const std::string& scope : electrical_scopes()) {
      n.push_back("dram." + scope + "_calls");
      n.push_back("dram." + scope + "_s");
    }
    for (const char* name :
         {"dram.span_pool_hit_ratio", "dram.deviates_miss_per_measure",
          "bender.run_calls", "bender.run_s", "bender.commands",
          "bender.us_per_command", "verify.gate_s", "verify.lint_s",
          "verify.optimize_s", "verify.findings", "verify.slots_saved_pct",
          "serve.submit_us_p50", "serve.submit_us_p99", "serve.pump_s",
          "serve.group_s", "serve.compile_s", "serve.fuse_s",
          "serve.execute_s", "serve.batches", "serve.mean_batch",
          "serve.batch_retry_ratio", "serve.queue_age_rounds_p99",
          "gen.late_p99_us", "gen.late_max_us", "gen.invalid_rounds",
          "model.paper_err_pp", "e2e.latency_p99_us", "e2e.cpu_s",
          "bench.trace_overhead_pct", "unattributed_pct"})
      n.push_back(name);
    return n;
  }();
  return names;
}

}  // namespace

void set_bypassed(Result& result, std::initializer_list<const char*> layers) {
  for (const std::string& name : per_layer_names())
    for (const char* layer : layers)
      if (name.rfind(layer, 0) == 0) result.metrics.emplace(name, 0.0);
}

}  // namespace perfbench
