// Workload sweep_smra_fleet: the Fig 3 (t1, t2, N) sweep on the
// paper-fleet plan (18 modules, 126 chip tasks). The timed run calls
// charz::fig3_smra_timing; the traced run rebuilds Fig 3's loop body from
// public functions with spans around each layer call, and must produce
// the same table digest.

#include <cmath>
#include <iterator>
#include <sstream>

#include "charz/figures.hpp"
#include "charz/plan.hpp"
#include "charz/runner.hpp"
#include "charz/series.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "pud/engine.hpp"
#include "pud/row_group.hpp"
#include "pud/success.hpp"

namespace perfbench {
namespace {

using namespace simra;

constexpr const char* kFig3Title = "Fig 3: SiMRA success rate vs APA timing";
/// A reproduction further than this from the paper's Obs. 1/2 anchors
/// (mean absolute gap, percentage points) fails the run.
constexpr double kPaperErrLimitPp = 2.0;

charz::Plan fleet_plan(std::uint64_t seed) {
  charz::Plan plan = charz::Plan::paper_fleet();
  plan.seed += seed;  // seed 0 is the plan's own default seed.
  return plan;
}

/// The figure dump of tests/charz/golden_test.cpp: the rendered table plus
/// every statistic as a hexfloat.
std::string dump(const charz::FigureData& figure) {
  std::ostringstream os;
  os << figure.title << "\n";
  for (const auto& k : figure.key_columns) os << k << "|";
  os << "\n" << figure.to_table().to_text() << "---\n";
  os << std::hexfloat;
  for (const auto& row : figure.rows) {
    for (const auto& k : row.keys) os << k << "|";
    os << " " << row.stats.min << " " << row.stats.q1 << " "
       << row.stats.median << " " << row.stats.q3 << " " << row.stats.max
       << " " << row.stats.mean << " " << row.stats.count << "\n";
  }
  return os.str();
}

std::string table_digest(const charz::FigureData& figure) {
  Digest d;
  d.str(dump(figure));
  return d.hex();
}

/// Mean absolute gap, in percentage points, between the sweep and the
/// paper at the Obs. 1/2 anchor points fig3_smra_timing prints.
double paper_err_pp(const charz::FigureData& f) {
  const double gaps[] = {
      std::abs(99.99 - 100.0 * f.mean_at({"3", "3", "2"})),
      std::abs(99.99 - 100.0 * f.mean_at({"3", "3", "16"})),
      std::abs(99.85 - 100.0 * f.mean_at({"3", "3", "32"})),
      std::abs(-21.74 - 100.0 * (f.mean_at({"1.5", "1.5", "8"}) -
                                 f.mean_at({"1.5", "3", "8"})))};
  double sum = 0.0;
  for (double g : gaps) sum += g;
  return sum / static_cast<double>(std::size(gaps));
}

/// Fig 3's loop body (src/charz/figures_smra.cpp) with a span around the
/// per-instance callback and each pud call; run_instances and
/// finish_sweep get spans of their own.
charz::FigureData traced_fig3(const charz::Plan& plan) {
  static simra::prof::Counter& run_c = span_counter("run_instances");
  static simra::prof::Counter& instance_c = span_counter("instance");
  static simra::prof::Counter& sample_c = span_counter("sample_group");
  static simra::prof::Counter& measure_c = span_counter("measure_smra");
  static simra::prof::Counter& merge_c = span_counter("finish_sweep");
  charz::Sweep<charz::SeriesAccumulator> sweep;
  {
    Span run(true, run_c);
    sweep = charz::run_instances<charz::SeriesAccumulator>(
        plan, [&](charz::Instance& inst, charz::SeriesAccumulator& out) {
          Span callback(true, instance_c);
          for (double t1 : {1.5, 3.0, 6.0, 36.0}) {
            for (double t2 : {1.5, 3.0, 6.0}) {
              for (std::size_t n : charz::activation_sizes()) {
                pud::MeasureConfig cfg;
                cfg.pattern = dram::DataPattern::kRandom;
                cfg.trials = plan.trials;
                cfg.timings = {Nanoseconds{t1}, Nanoseconds{t2}};
                for (std::size_t gi = 0; gi < plan.groups_per_size; ++gi) {
                  pud::RowGroup group;
                  {
                    Span s(true, sample_c);
                    group =
                        pud::sample_group(inst.engine.layout(), n, inst.rng);
                  }
                  double value = 0.0;
                  {
                    Span s(true, measure_c);
                    value = pud::measure_smra(inst.engine, inst.bank,
                                              inst.subarray, group, cfg,
                                              inst.rng);
                  }
                  out.add({charz::format_ns(t1), charz::format_ns(t2),
                           std::to_string(n)},
                          value);
                }
              }
            }
          }
        });
  }
  Span merge(true, merge_c);
  return charz::finish_sweep(sweep, kFig3Title, {"t1", "t2", "N"});
}

void check_figure(Result& result, const charz::FigureData& figure,
                  const std::string& label) {
  result.attempted += figure.coverage.chips_attempted;
  result.failed += figure.coverage.chips_quarantined;
  result.check(label + ".coverage_complete", figure.coverage.complete(),
               figure.coverage.summary());
}

}  // namespace

void run_sweep(const Options& options, Result& result) {
  const charz::Plan plan = fleet_plan(options.seed);
  const unsigned workers = charz::harness_threads();

  // The sweep's set-up is process start plus the plan: perfbench/run.py
  // times it from the launch of this process to here.
  result.ready_ns = monotonic_ns();

  if (!options.trace) {
    // One sweep per process, as a user runs the figure. perfbench/run.py
    // repeats sweep processes until --seconds have passed and combines
    // them, so every sweep, and its peak memory, starts from a fresh
    // process.
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    const charz::FigureData figure = charz::fig3_smra_timing(plan);
    const double wall_s = seconds_between(t0, Clock::now());
    result.metrics["e2e.cpu_s"] = process_cpu_s() - cpu0;
    result.metrics["peak_rss_mb"] = peak_rss_mb();
    check_figure(result, figure, "sweep");
    const double err = paper_err_pp(figure);
    result.check("paper_err_pp_within_limit", err <= kPaperErrLimitPp,
                 std::to_string(err));
    result.digests["table"] = table_digest(figure);

    // Fig 3's grid: 4 t1 values x 3 t2 values x activation sizes x groups.
    const double points = static_cast<double>(plan.instance_count()) * 4 * 3 *
                          charz::activation_sizes().size() *
                          plan.groups_per_size;
    result.metrics["ops_per_s"] = points / wall_s;
    result.metrics["latency_p50_us"] = wall_s * 1e6;
    result.metrics["e2e.latency_p99_us"] = wall_s * 1e6;
    result.notes.push_back(
        "sweep points " + std::to_string(static_cast<std::uint64_t>(points)) +
        ", workers " + std::to_string(workers) + ", paper_err_pp " +
        std::to_string(err));
    return;
  }

  // Traced run: one untraced sweep for the reference digest and the
  // overhead baseline, then the traced replica.
  const double ucpu0 = process_cpu_s();
  const auto u0 = Clock::now();
  const charz::FigureData reference = charz::fig3_smra_timing(plan);
  const double untraced_s = seconds_between(u0, Clock::now());
  result.metrics["e2e.cpu_s"] = process_cpu_s() - ucpu0;
  check_figure(result, reference, "untraced");

  const auto before = counter_snapshot();
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  const charz::FigureData traced = traced_fig3(plan);
  const double traced_s = seconds_between(t0, Clock::now());
  const double cpu_s = process_cpu_s() - cpu0;
  const CounterDelta delta = counter_delta(before, counter_snapshot());
  check_figure(result, traced, "traced");

  result.digests["table"] = table_digest(reference);
  result.digests["traced_table"] = table_digest(traced);
  result.check("traced_table_matches_untraced",
               result.digests["table"] == result.digests["traced_table"]);

  auto& m = result.metrics;
  const double busy = delta.seconds.at("perfbench/instance");
  const double merge = delta.seconds.at("perfbench/finish_sweep");
  const double measure = delta.seconds.at("perfbench/measure_smra");
  const double sample = delta.seconds.at("perfbench/sample_group");
  const double measures =
      static_cast<double>(delta.calls.at("perfbench/measure_smra"));
  m["charz.chip_tasks"] =
      static_cast<double>(charz::detail::chip_tasks(plan).size());
  m["charz.tasks_spawned"] =
      static_cast<double>(delta.calls.at("charz/tasks_spawned"));
  m["charz.steals"] = static_cast<double>(delta.calls.at("charz/steals"));
  m["charz.merge_s"] = merge;
  m["charz.busy_pct"] = 100.0 * busy / (traced_s * workers);
  m["pud.measure_calls"] = measures;
  m["pud.measure_s"] = measure;
  m["pud.sample_group_s"] = sample;
  add_dram_metrics(result, delta, 1.0, measures);
  m["model.paper_err_pp"] = paper_err_pp(traced);
  result.check("paper_err_pp_within_limit",
               m["model.paper_err_pp"] <= kPaperErrLimitPp,
               std::to_string(m["model.paper_err_pp"]));
  m["e2e.latency_p99_us"] = untraced_s * 1e6;
  m["bench.trace_overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0);
  m["unattributed_pct"] = 100.0 * (cpu_s - busy - merge) / cpu_s;

  const double dram_outer = outer_electrical_s(result);
  const auto row = [&](const std::string& layer, double s, const char* how) {
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(3);
    os << "ledger " << layer << " " << s << " s " << 100.0 * s / cpu_s
       << " % " << how;
    result.notes.push_back(os.str());
  };
  row("cpu_total", cpu_s, "(base: process CPU of the traced sweep)");
  row("charz.callbacks", busy, "(instance spans; holds the pud rows)");
  row("  pud.measure_smra", measure, "(nested in charz.callbacks)");
  row("    dram.outer_scopes", dram_outer,
      "(nested in pud.measure_smra; deviates_miss and "
      "threshold_mask_compute nest inside these and are not added)");
  row("  pud.sample_group", sample, "(nested in charz.callbacks)");
  row("  callback_self", busy - measure - sample,
      "(accumulator adds, loop)");
  row("charz.finish_sweep", merge, "");
  row("unattributed", cpu_s - busy - merge,
      "(chip construction, scheduling, steals, idle spin)");
  result.notes.push_back("instances " +
                         std::to_string(delta.calls.at("perfbench/instance")) +
                         ", untraced " + std::to_string(untraced_s) +
                         " s, traced " + std::to_string(traced_s) + " s");
  set_bypassed(result, {"bender.", "verify.", "serve.", "gen."});
}

}  // namespace perfbench
