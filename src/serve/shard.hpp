#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "charz/runner.hpp"
#include "common/rng.hpp"
#include "dram/chip.hpp"
#include "fault/retry.hpp"
#include "obs/trace.hpp"
#include "pud/engine.hpp"
#include "pud/reliability_map.hpp"
#include "serve/batch.hpp"
#include "serve/request.hpp"

namespace simra::serve {

/// Request-scoped trace state threaded from admission through routing,
/// batching, execution, and delivery. Timestamps are virtual shard-clock
/// nanoseconds — pure functions of the submission order — so the span
/// trees built from them are byte-identical at any SIMRA_THREADS.
struct TraceContext {
  unsigned wait_rounds = 0;      ///< pump rounds spent queued or backlogged.
  double routed_clock_ns = 0.0;  ///< executing shard's clock at routing.
};

/// One queued request bound to its completion ticket, with the reroute
/// count the service uses to bound cross-shard retries and the trace
/// context its span tree is anchored on.
struct BatchItem {
  Request request;
  Ticket* ticket = nullptr;
  unsigned reroutes = 0;
  TraceContext trace;
};

/// What one fused batch execution produced: its attempts as
/// `fault::run_attempts` recorded them, plus the responses. `responses`
/// is parallel to the batch (one entry per item, in order); on a failed
/// batch only the compile-rejected entries are meaningful — the rest are
/// rerouted or failed by the service.
struct BatchOutcome : fault::AttemptRecord {
  double start_clock_ns = 0.0;  ///< shard virtual clock at batch start.
  double end_clock_ns = 0.0;
  std::shared_ptr<obs::TaskBuffer> buffer;  ///< sealed by the scheduler.
  std::vector<Response> responses;
  std::vector<bool> rejected;  ///< compile-rejected items (never rerouted).
};

/// One chip instance serving fused batches: Chip + Engine + compiler plus
/// the reliability-steered activation-group cache. A shard is confined to
/// one scheduler task at a time, so its internals take no locks. Each
/// fused batch runs under `fault::run_attempts`, the policy chip tasks use
/// too: bounded retries with exponential backoff, injector streams keyed
/// by (shard, batch, attempt) plan coordinates — never scheduling — and a
/// shard that exhausts its retries is quarantined by the service.
class Shard {
 public:
  struct Config {
    dram::VendorProfile profile;
    std::uint64_t seed = 1;
    std::size_t group_size = 4;      ///< activation-group rows for APA ops.
    std::size_t candidate_groups = 4;///< groups scored per (bank, subarray).
    unsigned steer_trials = 1;       ///< reliability trials per candidate.
    bool steer = true;               ///< pick groups via pud::ReliabilityMap.
  };

  Shard(Config config, std::uint32_t index);

  std::uint32_t index() const noexcept { return index_; }
  const dram::VendorProfile& profile() const noexcept {
    return chip_.profile();
  }
  pud::Engine& engine() noexcept { return engine_; }
  const BatchCompiler& compiler() const noexcept { return compiler_; }
  double clock_ns() noexcept { return engine_.executor().clock_ns(); }

  bool quarantined() const noexcept { return quarantined_; }
  const std::string& quarantine_reason() const noexcept { return reason_; }
  void quarantine(std::string reason) {
    quarantined_ = true;
    reason_ = std::move(reason);
  }

  /// The shard's activation group for (bank, subarray): on first use,
  /// `candidate_groups` deterministic candidates are scored with
  /// `pud::ReliabilityMap::best_group` (§8.1's highest-throughput-group
  /// selection) and the winner is cached. Profiling runs real trials on
  /// the chip, so warm all slots *before* comparing execution paths.
  const pud::RowGroup& group_for(dram::BankId bank, dram::SubarrayId sa);

  /// Eagerly profiles one (bank, subarray) slot.
  void warm(dram::BankId bank, dram::SubarrayId sa) { group_for(bank, sa); }

  /// Every activation group this shard has profiled so far, recorded as
  /// the internal driven row sets the dataflow pass reports (see
  /// pud::ReliabilityMap::approve_group). execute() hands this policy to
  /// the executor, whose lint (SIMRA_OPT=lint/on) cross-checks each fused
  /// batch against it, so any many-row activation outside a steered
  /// group surfaces as kUnreliableGroup.
  const verify::ReliabilityPolicy& reliability_policy() const noexcept {
    return policy_;
  }

  /// Executes one fused batch under the resilience policy. Never throws:
  /// injected crashes and exhausted retries surface as a failed outcome.
  /// The delivered attempt's reliability check feeds the
  /// `serve.batch.reliability_*` counters and, when traced, one
  /// `serve.lint.request` event per finding.
  BatchOutcome execute(std::span<const BatchItem> batch,
                       std::uint64_t batch_seq,
                       const charz::detail::Resilience& res);

  /// Reference path for the batching-equivalence property test: the same
  /// requests compiled identically but executed one program at a time,
  /// unfused, as the serial engine would. Same response surface.
  BatchOutcome execute_unbatched(std::span<const BatchItem> batch,
                                 std::uint64_t batch_seq);

 private:
  std::vector<CompiledRequest> compile_batch(std::span<const BatchItem> batch,
                                             BatchOutcome& outcome);
  void finalize_responses(std::span<const BatchItem> batch,
                          std::span<const CompiledRequest> compiled,
                          std::span<const FusedExtent> extents,
                          std::vector<BitVec>& reads, unsigned attempts,
                          std::uint64_t batch_seq, BatchOutcome& outcome);

  Config config_;
  std::uint32_t index_;
  dram::Chip chip_;
  pud::Engine engine_;
  BatchCompiler compiler_;
  Rng steer_rng_;
  pud::ReliabilityMap reliability_;
  std::map<std::pair<dram::BankId, dram::SubarrayId>, pud::RowGroup> groups_;
  verify::ReliabilityPolicy policy_;  ///< groups_, as approved row sets.
  bool quarantined_ = false;
  std::string reason_;
};

}  // namespace simra::serve
