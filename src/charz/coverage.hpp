#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/retry.hpp"
#include "obs/trace.hpp"

namespace simra::charz {

/// Outcome of one chip task across its retry attempts.
struct ChipReport : fault::AttemptRecord {
  std::uint64_t module_index = 0;
  std::size_t chip_index = 0;
  /// Spans/events recorded while the task ran (SIMRA_TRACE runs only);
  /// sealed into the global log in task order by collect_coverage.
  std::shared_ptr<obs::TaskBuffer> obs;

  /// "m<module>c<chip>" — the chip coordinate as printed in summaries.
  std::string label() const;
};

/// Per-figure resilience accounting: which chips contributed to a sweep's
/// result and what it took to get them there. Attached to every
/// `run_instances` return value; figure tables print `summary()` so a
/// degraded run is visibly degraded.
struct Coverage {
  std::size_t chips_attempted = 0;
  std::size_t chips_succeeded = 0;
  std::size_t chips_quarantined = 0;
  std::uint64_t retries = 0;  ///< extra attempts beyond the first, summed.
  std::vector<ChipReport> chips;  ///< per-chip detail, task order.

  bool complete() const noexcept {
    return chips_quarantined == 0 && chips_succeeded == chips_attempted;
  }

  /// Sum of injected-fault tallies across all chips.
  fault::FaultCounters fault_totals() const;

  /// One-line, grep-stable summary. Always starts with "coverage: ".
  /// Complete: "coverage: 8/8 chips". Degraded:
  /// "coverage: 6/8 chips, 2 quarantined (m1c1: <err>; ...), 4 retries".
  std::string summary() const;

  /// Publishes the tallies into the `resilience/...` prof counters
  /// (surfaced in BENCH_harness.json's "resilience" section).
  void publish_counters() const;
};

/// Thrown when more chips fail than the quarantine budget allows. Carries
/// the full Coverage so callers can still report what happened.
class HarnessError : public std::runtime_error {
 public:
  HarnessError(const std::string& what, Coverage coverage)
      : std::runtime_error(what), coverage_(std::move(coverage)) {}

  const Coverage& coverage() const noexcept { return coverage_; }

 private:
  Coverage coverage_;
};

}  // namespace simra::charz
