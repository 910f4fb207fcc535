#pragma once

#include "bender/program.hpp"
#include "verify/dataflow.hpp"
#include "verify/reliability.hpp"

namespace simra::verify {

/// What lint() hands back beyond its report: the reliability
/// cross-check's input size and verdicts. Both stay empty without a
/// policy.
struct LintResult {
  std::size_t apas = 0;  ///< APA events checked against the policy.
  std::vector<Finding> unreliable;  ///< lint_reliability's findings.
};

/// The executor-side whole-program lint (SIMRA_OPT=lint|on) over one
/// program and its dataflow result: publishes bus occupancy into
/// simra::obs and reports unexpected findings — one `lint.finding` event
/// each, plus each distinct rendered report once per process on stderr.
/// Unlike the SIMRA_VERIFY gate this never throws — program-check
/// findings are advisory; strictness stays the timing gate's job.
///
/// When `policy` is non-null, every simultaneous-activation event is also
/// cross-checked against it (lint_reliability); its findings join the
/// same report and are returned to the caller.
LintResult lint(const bender::Program& program, const ProgramContext& ctx,
                const DataflowResult& df,
                const ReliabilityPolicy* policy = nullptr);

/// As above, running the dataflow pass itself.
LintResult lint(const bender::Program& program, const ProgramContext& ctx,
                const ReliabilityPolicy* policy = nullptr);

}  // namespace simra::verify
