#include "verify/lint.hpp"

#include <cstdio>
#include <mutex>
#include <sstream>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "verify/occupancy.hpp"
#include "verify/optimizer.hpp"

namespace simra::verify {

namespace {

void report_findings(const std::string& program_name,
                     const std::vector<Finding>& findings) {
  std::size_t unexpected = 0;
  std::string body;
  for (const Finding& f : findings) {
    if (f.classification != Classification::kUnexpected) continue;
    ++unexpected;
    std::string message = f.message();
    body += "\n  " + message;
    obs::emit_event("lint.finding", {{"program", program_name},
                                     {"message", std::move(message)}});
  }
  if (unexpected == 0) return;
  obs::MetricsRegistry::instance()
      .counter("verify.lint.findings")
      .add_count(unexpected);
  // Characterization sweeps run thousands of structurally identical
  // programs; print each distinct report once (same policy as the gate).
  std::ostringstream out;
  out << "lint: program '"
      << (program_name.empty() ? "<unnamed>" : program_name) << "': "
      << unexpected << " finding" << (unexpected == 1 ? "" : "s") << body;
  static std::mutex mutex;
  static std::unordered_set<std::string> seen;
  const std::string rendered = out.str();
  std::lock_guard<std::mutex> lock(mutex);
  if (seen.insert(rendered).second) {
    std::fprintf(stderr, "%s\n", rendered.c_str());
  }
}

}  // namespace

LintResult lint(const bender::Program& program, const ProgramContext& ctx,
                const DataflowResult& df, const ReliabilityPolicy* policy) {
  obs::MetricsRegistry::instance()
      .counter("verify.lint.programs")
      .add_count(1);
  LintResult result;
  if (policy != nullptr) {
    result.apas = df.apas.size();
    result.unreliable =
        lint_reliability(df.apas, *policy, program.intents());
  }
  if (result.unreliable.empty()) {
    report_findings(program.name(), df.findings);
  } else {
    std::vector<Finding> findings = df.findings;
    findings.insert(findings.end(), result.unreliable.begin(),
                    result.unreliable.end());
    detail::rank_findings(findings);
    report_findings(program.name(), findings);
  }

  OccupancyStats occ = occupancy(program, *ctx.table);
  occ.critical_path_slots = compacted_extent_slots(program, *ctx.table);
  export_occupancy_metrics(occ, program.name());
  return result;
}

LintResult lint(const bender::Program& program, const ProgramContext& ctx,
                const ReliabilityPolicy* policy) {
  return lint(program, ctx, dataflow(program, ctx), policy);
}

}  // namespace simra::verify
