#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "bender/program.hpp"
#include "verify/dataflow.hpp"
#include "verify/rules.hpp"

namespace simra::verify {

/// SIMRA_OPT modes: off (default) — no whole-program passes; lint — run
/// the dataflow/reliability/occupancy passes and report, never transform;
/// on — lint plus the slot-compaction / dead-command-elimination
/// optimizer wherever the caller deems it safe.
enum class OptMode : std::uint8_t {
  kOff,
  kLint,
  kOn,
};

/// Parses a SIMRA_OPT value; unknown non-empty values map to kLint (fail
/// towards visibility, never towards transforming programs).
OptMode parse_opt_mode(std::string_view text);

/// The process-wide mode, read once from SIMRA_OPT and cached.
OptMode global_opt_mode();

/// Test hook: overrides (or with nullopt, restores) the global opt mode.
void set_global_opt_mode(std::optional<OptMode> mode);

struct OptStats {
  std::size_t removed_commands = 0;  ///< dead-command elimination.
  std::uint64_t extent_before = 0;
  std::uint64_t extent_after = 0;
  /// False when a rigid-constraint conflict made the compactor bail out
  /// and return the input schedule unchanged.
  bool compacted = false;
};

struct Optimized {
  bender::Program program;
  OptStats stats;
};

/// Slot compaction: re-packs the command sequence into the minimal slot
/// extent that the rule table allows, ASAP with per-command lower bounds.
/// Command *order* (hence the chip's RNG draw order) is preserved — only
/// slack shrinks — so compaction composes with fault injection.
///
/// Correctness envelope:
///  - gaps that originally satisfied a rule minimum keep satisfying it;
///  - gaps that originally violated one (the paper's intended-violation
///    regimes, where the sub-tRP / sub-4ns interval *is* the computation)
///    are preserved exactly (rigid constraints; conflicts bail out);
///  - head/tail margins keep every cross-program gap no worse than
///    min(original, rule minimum), and preserve sub-threshold
///    cross-program gaps exactly, so back-to-back programs on one chip
///    behave identically.
Optimized compact(const bender::Program& program, const RuleTable& table);

/// The minimal extent compact() would produce, without rebuilding — the
/// occupancy pass's critical-path figure. Returns the original extent
/// when the compactor bails out.
std::uint64_t compacted_extent_slots(const bender::Program& program,
                                     const RuleTable& table);

/// Dead-command elimination (the dead stores and redundant PRE/ACT
/// reopen pairs `df` — dataflow(program, ctx) — proved) followed by
/// compaction. Removal changes the chip's per-command RNG/fault draw
/// sequence, so callers must only use this on fault-free chips (see
/// DataflowResult); compaction alone is always safe.
Optimized optimize(const bender::Program& program, const ProgramContext& ctx,
                   const DataflowResult& df);

/// As above, running the dataflow pass itself.
Optimized optimize(const bender::Program& program, const ProgramContext& ctx);

}  // namespace simra::verify
