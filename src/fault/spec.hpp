#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace simra::fault {

/// Parsed `SIMRA_FAULT_SPEC`: every injector rate, plus the resilience
/// policy (retry / quarantine) the harness applies on top. The spec is a
/// comma-separated `key=value` list; list-valued keys separate elements
/// with ':'. Example:
///
///   SIMRA_FAULT_SPEC="transport.bitflip=0.002,task.crash_tasks=1:5,retry.max=2"
///
/// All rates are probabilities in [0, 1]; a rate of exactly 0 draws
/// nothing from the fault streams, so a zero-rate spec is byte-identical
/// to running with no spec at all.
struct FaultSpec {
  // --- bender transport faults (per command) ---
  double transport_bitflip = 0.0;  ///< one command-word bit flip.
  double transport_drop = 0.0;     ///< command never reaches the chip.
  double transport_dup = 0.0;      ///< command delivered twice.
  double transport_jitter = 0.0;   ///< command lands one slot early/late.

  // --- chip-model faults ---
  double chip_stuck = 0.0;      ///< per-cell stuck-at probability (persistent map).
  double chip_retention = 0.0;  ///< per-cell decay flip probability per activation.
  double chip_disturb = 0.0;    ///< per-neighbour-cell APA disturbance scale (x row count).

  // --- harness (chip-task) faults ---
  double task_fail = 0.0;      ///< per-attempt injected chip-task crash probability.
  double task_delay_ms = 0.0;  ///< artificial latency added to every task attempt.
  /// Chip-task ordinals (position in the (module, chip) walk) that crash
  /// on *every* attempt — the deterministic way to take down specific
  /// chips until the retry budget quarantines them.
  std::vector<std::uint64_t> task_crash_tasks;

  // --- resilience policy (fault::run_attempts) ---
  /// Largest accepted `retry.max`: the backoff before retry k doubles
  /// k - 1 times, and 31 keeps that doubling in range of a 32-bit shift.
  static constexpr unsigned kMaxRetries = 31;
  /// Retries per chip task or serve batch after the first attempt, at most
  /// kMaxRetries.
  unsigned retry_max = 2;
  double retry_backoff_ms = 0.0;   ///< base of the exponential backoff between attempts.
  bool quarantine_budget_set = false;
  std::size_t quarantine_budget = 0;  ///< max chips quarantined before the run aborts.
  bool trace = false;  ///< record the per-chip fault event trace in Coverage.

  bool any_transport() const noexcept {
    return transport_bitflip > 0.0 || transport_drop > 0.0 ||
           transport_dup > 0.0 || transport_jitter > 0.0;
  }
  bool any_chip() const noexcept {
    return chip_stuck > 0.0 || chip_retention > 0.0 || chip_disturb > 0.0;
  }
  bool any_task() const noexcept {
    return task_fail > 0.0 || task_delay_ms > 0.0 || !task_crash_tasks.empty();
  }
  /// Whether any injector is configured at a non-zero rate.
  bool injects() const noexcept {
    return any_transport() || any_chip() || any_task();
  }

  /// Quarantine cap the harness enforces: the explicit value when set;
  /// otherwise unlimited while faults are being injected (an injected
  /// failure is expected, not a bug) and zero for clean runs (a real
  /// failure must abort loudly).
  std::size_t effective_quarantine_budget() const noexcept;

  bool crashes_task(std::uint64_t task_ordinal) const noexcept;

  /// Parses a spec string; throws std::invalid_argument naming the
  /// offending key on unknown keys, malformed values, out-of-range rates,
  /// or `retry.max` above kMaxRetries. The empty string parses to the
  /// all-defaults spec.
  static FaultSpec parse(const std::string& spec);

  /// parse(SIMRA_FAULT_SPEC), or the all-defaults spec when unset.
  static FaultSpec from_env();
};

/// `SIMRA_FAULT_SEED` (decimal), or a fixed default. All fault streams of
/// a run derive from this seed plus (domain, module, chip, attempt) keys,
/// never from scheduling, so a given seed + plan reproduces the identical
/// fault trace at any thread count.
std::uint64_t fault_seed_from_env();

}  // namespace simra::fault
