#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bender/program.hpp"
#include "common/bitvec.hpp"
#include "dram/chip.hpp"
#include "dram/power_model.hpp"
#include "verify/dataflow.hpp"
#include "verify/lint.hpp"
#include "verify/optimizer.hpp"

namespace simra::fault {
class ChipInjector;
}

namespace simra::bender {

/// Width of the encoded DDR4 command word: 5 control pins (CS_n, ACT_n,
/// RAS_n, CAS_n, WE_n) + A[17:0] + BG[1:0] + BA[1:0]. Transport bit-flip
/// faults pick one of these pins.
inline constexpr std::size_t kCommandWordBits = 27;

/// Result of one program execution against one chip: the RD payloads in
/// command order, plus energy bookkeeping from the power model.
struct ExecutionResult {
  std::vector<BitVec> reads;
  double duration_ns = 0.0;
  double energy_pj = 0.0;

  double average_power_mw() const {
    return duration_ns > 0.0 ? energy_pj / duration_ns : 0.0;
  }
};

/// The FPGA-side program executor (the substitute for DRAM Bender's
/// hardware engine): replays a command program against a chip with
/// absolute nanosecond timestamps. The executor owns a monotonically
/// advancing clock, so successive programs see strictly increasing time —
/// matching a real testbed session.
class Executor {
 public:
  explicit Executor(dram::Chip* chip);

  /// Gates the program (SIMRA_VERIFY); unless SIMRA_OPT is off, runs the
  /// dataflow pass once for lint() and, under `on` on a fault-free chip,
  /// the optimizer. A non-null `policy` joins lint's reliability
  /// cross-check (see last_lint()). Then replays the program on the chip.
  ExecutionResult run(const Program& program,
                      const verify::ReliabilityPolicy* policy = nullptr);

  /// Inserts an idle gap (e.g. "wait out tRP before the next test").
  void idle(Nanoseconds gap);

  double clock_ns() const noexcept { return clock_ns_; }
  dram::Chip& chip() noexcept { return *chip_; }

  /// Attaches the transport fault injector (non-owning; nullptr detaches).
  /// With no injector — or one whose transport rates are all zero — the
  /// command path takes zero extra Rng draws and is byte-identical to the
  /// fault-free executor.
  void install_faults(fault::ChipInjector* faults) noexcept {
    faults_ = faults;
  }
  fault::ChipInjector* faults() const noexcept { return faults_; }

  /// The whole-program-analysis context for this executor's chip (rule
  /// table built lazily from the chip's timings). Valid while the
  /// executor lives.
  verify::ProgramContext program_context();

  /// Optimizer stats of the most recent run(): zeroed when SIMRA_OPT
  /// left the program untouched.
  const verify::OptStats& last_opt_stats() const noexcept {
    return last_opt_;
  }

  /// The reliability cross-check of the most recent run(): empty when it
  /// ran without a policy or SIMRA_OPT was off.
  const verify::LintResult& last_lint() const noexcept { return last_lint_; }

 private:
  void execute_one(const TimedCommand& cmd, double t,
                   ExecutionResult& result);
  void run_faulty(const TimedCommand& cmd, ExecutionResult& result);

  dram::Chip* chip_;
  double clock_ns_ = 0.0;
  double last_issue_ns_ = 0.0;  ///< monotonicity clamp for jittered issues.
  fault::ChipInjector* faults_ = nullptr;
  std::optional<verify::RuleTable> rule_table_;  ///< lazy, per-chip.
  verify::OptStats last_opt_;
  verify::LintResult last_lint_;
};

}  // namespace simra::bender
