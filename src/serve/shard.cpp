#include "serve/shard.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "verify/lint.hpp"
#include "verify/occupancy.hpp"
#include "verify/optimizer.hpp"

namespace simra::serve {

namespace {

std::uint64_t shard_chip_seed(std::uint64_t service_seed,
                              std::uint32_t index) {
  return hash_combine(service_seed, index);
}

/// Counts the fused batch's reliability cross-check (run by the
/// executor's lint) and attributes each finding to the request, and
/// tenant, whose command range covers it.
void account_reliability(const verify::LintResult& lint,
                         const std::vector<verify::RequestSlice>& slices,
                         obs::TaskBuffer* buffer) {
  if (lint.apas == 0) return;
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("serve.batch.reliability_checks").add_count(lint.apas);
  if (lint.unreliable.empty()) return;
  registry.counter("serve.batch.reliability_findings")
      .add_count(lint.unreliable.size());
  if (buffer == nullptr) return;
  for (const verify::Finding& finding : lint.unreliable) {
    const verify::RequestSlice* slice =
        verify::slice_for_command(slices, finding.command_index);
    if (slice == nullptr) continue;
    buffer->add_event(
        "serve.lint.request",
        {{"request", std::to_string(slice->request_id)},
         {"tenant", std::to_string(slice->tenant)},
         {"command_index", std::to_string(finding.command_index)},
         {"slot", std::to_string(finding.slot)},
         {"message", finding.message()}});
  }
}

}  // namespace

Shard::Shard(Config config, std::uint32_t index)
    : config_(std::move(config)),
      index_(index),
      chip_(config_.profile, shard_chip_seed(config_.seed, index)),
      engine_(&chip_),
      compiler_(&chip_.profile(), &chip_.layout()),
      steer_rng_(hash_combine(hash_combine(config_.seed, 0x57eeull), index)),
      reliability_(&engine_, &steer_rng_) {}

const pud::RowGroup& Shard::group_for(dram::BankId bank, dram::SubarrayId sa) {
  const auto key = std::make_pair(bank, sa);
  if (auto it = groups_.find(key); it != groups_.end()) return it->second;

  // Candidate groups derive from (service seed, bank, subarray) alone, so
  // the same slot always sees the same candidates regardless of when (or
  // on which worker) it is first profiled.
  Rng rng(hash_combine(hash_combine(hash_combine(config_.seed, 0x9f0full),
                                    bank),
                       sa));
  std::vector<pud::RowGroup> candidates;
  candidates.reserve(config_.candidate_groups);
  for (std::size_t i = 0; i < std::max<std::size_t>(config_.candidate_groups, 1);
       ++i)
    candidates.push_back(
        pud::sample_group(chip_.layout(), config_.group_size, rng));
  std::size_t pick = 0;
  if (config_.steer && candidates.size() > 1 && config_.group_size >= 3)
    pick = reliability_.best_group(bank, sa, candidates, 3,
                                   config_.steer_trials);
  const pud::RowGroup& group =
      groups_.emplace(key, candidates[pick]).first->second;
  pud::ReliabilityMap::approve_group(policy_, chip_.layout(),
                                     chip_.profile().scrambler, bank, sa,
                                     group);
  return group;
}

std::vector<CompiledRequest> Shard::compile_batch(
    std::span<const BatchItem> batch, BatchOutcome& outcome) {
  static const pud::RowGroup kNoGroup{};
  outcome.responses.resize(batch.size());
  outcome.rejected.assign(batch.size(), false);
  std::vector<CompiledRequest> compiled;
  compiled.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& request = batch[i].request;
    const pud::RowGroup* group = &kNoGroup;
    if (request.op != OpKind::kRowClone)
      group = &group_for(request.bank, request.sa);
    Response& response = outcome.responses[i];
    response.id = request.id;
    response.shard = index_;
    if (std::string why = compiler_.validate(request, *group); !why.empty()) {
      response.status = Status::kRejected;
      response.error = std::move(why);
      outcome.rejected[i] = true;
      continue;
    }
    compiled.push_back(compiler_.compile(request, *group));
  }
  return compiled;
}

void Shard::finalize_responses(std::span<const BatchItem> batch,
                               std::span<const CompiledRequest> compiled,
                               std::span<const FusedExtent> extents,
                               std::vector<BitVec>& reads, unsigned attempts,
                               std::uint64_t batch_seq,
                               BatchOutcome& outcome) {
  std::size_t next_read = 0;
  std::size_t live = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (outcome.rejected[i]) continue;
    const CompiledRequest& cr = compiled[live];
    const FusedExtent& extent = extents[live];
    Response& response = outcome.responses[i];
    response.status = Status::kOk;
    response.batch = batch_seq;
    response.attempts = attempts;
    response.virtual_ns = extent.end_ns;
    if (cr.reads > 0) {
      response.result = std::move(reads.at(next_read));
      next_read += cr.reads;
    }
    if (outcome.buffer) {
      // The per-request span tree, all on the shard's virtual clock:
      //   req <id>                [routed ............... extent.end)
      //     queue_wait            [routed ........ batch start)
      //     batch_wait            [batch start ... extent.start)
      //     execute               [extent.start .. extent.end)
      // queue_wait covers rounds spent behind earlier batches of this
      // shard; batch_wait covers compile, group profiling, failed
      // attempts, and earlier requests inside the fused program. Perfetto
      // nests the children by timestamp containment on the shard track.
      // One fixed-size record per request (expanded to spans at flush):
      // this runs once per served request, so recording must neither
      // allocate nor fault in more retained pages than it has to.
      const TraceContext& tc = batch[i].trace;
      obs::RequestTrace rt;
      rt.id = response.id;
      rt.batch = batch_seq;
      rt.routed_ns = std::min(tc.routed_clock_ns, extent.start_ns);
      rt.batch_start_ns = outcome.start_clock_ns;
      rt.exec_start_ns = extent.start_ns;
      rt.exec_end_ns = extent.end_ns;
      rt.op = to_string(batch[i].request.op);
      rt.status = "ok";
      rt.tenant = batch[i].request.tenant;
      rt.attempts = attempts;
      rt.reroutes = batch[i].reroutes;
      rt.wait_rounds = tc.wait_rounds;
      rt.commands = static_cast<std::uint32_t>(extent.command_count);
      outcome.buffer->add_request(rt);
    }
    ++live;
  }
}

BatchOutcome Shard::execute(std::span<const BatchItem> batch,
                            std::uint64_t batch_seq,
                            const charz::detail::Resilience& res) {
  BatchOutcome outcome;
  outcome.start_clock_ns = clock_ns();
  const std::string label =
      "serve.s" + std::to_string(index_) + ".b" + std::to_string(batch_seq);
  if (obs::enabled())
    outcome.buffer = std::make_shared<obs::TaskBuffer>(index_ + 1, label,
                                                       obs::ring_capacity());
  // The scope covers compilation too: first-touch group profiling runs
  // real programs on the chip, and their command spans must land in this
  // batch's buffer (sealed in deterministic (shard, batch) order), not in
  // the racy shared harness chunk.
  obs::TaskScope scope(outcome.buffer.get());

  std::vector<CompiledRequest> compiled = compile_batch(batch, outcome);
  if (compiled.empty()) {
    outcome.succeeded = true;
    outcome.end_clock_ns = clock_ns();
    return outcome;
  }

  std::vector<FusedExtent> extents;
  const bender::Program fused = compiler_.fuse(label, compiled, &extents);
  const double compile_end_ns = clock_ns();

  // Slot->request attribution: which command range of the fused program
  // each live request owns. Drives the per-tenant bus accounting, the
  // per-batch attribution event, and finding->request mapping below.
  std::vector<verify::RequestSlice> slices;
  slices.reserve(compiled.size());
  {
    std::size_t live = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (outcome.rejected[i]) continue;
      verify::RequestSlice slice;
      slice.request_id = batch[i].request.id;
      slice.tenant = batch[i].request.tenant;
      slice.first_command = extents[live].first_command;
      slice.command_count = extents[live].command_count;
      slices.push_back(slice);
      ++live;
    }
  }
  for (const verify::RequestOccupancy& ro :
       verify::occupancy_by_request(fused, slices))
    obs::SloRegistry::instance().add_bus_usage(
        ro.slice.tenant, ro.slice.command_count, ro.span_slots);
  if (outcome.buffer) {
    // Compile covers validation, group profiling (which runs real trials
    // on the chip, advancing its clock), and fusion.
    obs::CompactSpan compile_span;
    compile_span.name = "compile";
    compile_span.cat = "serve.batch";
    compile_span.ts_ns = outcome.start_clock_ns;
    compile_span.dur_ns = std::max(compile_end_ns - outcome.start_clock_ns,
                                   0.0);
    compile_span.args[0] = {"batch", batch_seq, nullptr};
    compile_span.args[1] = {"requests", compiled.size(), nullptr};
    outcome.buffer->add_compact(compile_span);
    std::string table;
    table.reserve(slices.size() * 16);
    char entry[96];
    for (const verify::RequestSlice& slice : slices) {
      if (!table.empty()) table += ';';
      std::snprintf(entry, sizeof entry, "%llu:%zu:%zu:%u",
                    static_cast<unsigned long long>(slice.request_id),
                    slice.first_command, slice.command_count, slice.tenant);
      table += entry;
    }
    outcome.buffer->add_event(
        "serve.batch.slots",
        {{"shard", std::to_string(index_)},
         {"batch", std::to_string(batch_seq)},
         {"commands", std::to_string(fused.commands().size())},
         {"table", std::move(table)}});
  }

  const unsigned max_attempts = res.spec.retry_max + 1;
  const bool use_faults = res.spec.injects();
  for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
    outcome.attempts = attempt + 1;
    if (attempt > 0 && res.spec.retry_backoff_ms > 0.0) {
      const double backoff_ms = res.spec.retry_backoff_ms *
                                static_cast<double>(1u << (attempt - 1));
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
    }
    std::optional<fault::ChipInjector> injector;
    bool ok = true;
    std::string attempt_error;
    const double attempt_start = clock_ns();
    try {
      if (use_faults) {
        injector.emplace(res.spec, res.fault_seed, index_,
                         static_cast<std::uint32_t>(batch_seq), attempt);
        if (injector->task_crash(index_))
          throw fault::InjectedFault(
              "injected shard crash (shard " + std::to_string(index_) +
              ", batch " + std::to_string(batch_seq) + ", attempt " +
              std::to_string(attempt) + ")");
        if (injector->task_delay_ms() > 0.0)
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
              injector->task_delay_ms()));
        chip_.install_faults(&*injector);
        engine_.executor().install_faults(&*injector);
      }
      // Lint checks the batch's APAs against the profiled groups (§8.1).
      // Only the fused run carries the policy: profiling trials and the
      // unbatched reference path stay unchecked.
      auto result = engine_.executor().run(fused, &policy_);
      std::vector<BitVec> reads = std::move(result.reads);
      // Extents are batch-relative; shift to the shard's virtual clock.
      std::vector<FusedExtent> absolute(extents);
      for (FusedExtent& e : absolute) {
        e.start_ns += attempt_start;
        e.end_ns += attempt_start;
      }
      finalize_responses(batch, compiled, absolute, reads, outcome.attempts,
                         batch_seq, outcome);
    } catch (const std::exception& e) {
      ok = false;
      attempt_error = e.what();
    }
    if (injector) outcome.faults += injector->counters();
    if (use_faults) {
      chip_.install_faults(nullptr);
      engine_.executor().install_faults(nullptr);
    }
    if (ok) {
      // Every attempt that reaches the executor lints; the shard counts
      // and attributes the check of the attempt it delivers.
      account_reliability(engine_.executor().last_lint(), slices,
                          outcome.buffer.get());
      outcome.succeeded = true;
      break;
    }
    outcome.error = attempt_error;
    if (outcome.buffer) {
      outcome.buffer->add_event(
          "serve.batch.attempt_failed",
          {{"shard", std::to_string(index_)},
           {"batch", std::to_string(batch_seq)},
           {"attempt", std::to_string(attempt)},
           {"error", attempt_error}});
      // The failed attempt as a span, so a request's retries are visible
      // on the shard track right before its successful execute window.
      obs::RichSpan retry;
      retry.name = "retry " + std::to_string(attempt);
      retry.cat = "serve.batch";
      retry.ts_ns = attempt_start;
      retry.dur_ns = std::max(clock_ns() - attempt_start, 0.0);
      retry.args = {{"batch", std::to_string(batch_seq)},
                    {"error", attempt_error}};
      outcome.buffer->add_span(std::move(retry));
    }
  }
  outcome.end_clock_ns = clock_ns();
  if (outcome.buffer) {
    outcome.buffer->attempts = outcome.attempts;
    outcome.buffer->succeeded = outcome.succeeded;
    outcome.buffer->error = outcome.error;
  }
  return outcome;
}

BatchOutcome Shard::execute_unbatched(std::span<const BatchItem> batch,
                                      std::uint64_t batch_seq) {
  BatchOutcome outcome;
  outcome.start_clock_ns = clock_ns();
  if (obs::enabled())
    outcome.buffer = std::make_shared<obs::TaskBuffer>(
        index_ + 1,
        "serve.s" + std::to_string(index_) + ".u" + std::to_string(batch_seq),
        obs::ring_capacity());
  // As in execute(): the scope covers compile-time group profiling too.
  obs::TaskScope scope(outcome.buffer.get());
  std::vector<CompiledRequest> compiled = compile_batch(batch, outcome);
  if (compiled.empty()) {
    outcome.succeeded = true;
    outcome.end_clock_ns = clock_ns();
    return outcome;
  }
  // No resilience loop here: the reference path exists to pin what the
  // serial engine produces, so injected faults simply propagate.
  std::vector<BitVec> reads;
  std::vector<FusedExtent> extents(compiled.size());
  for (std::size_t k = 0; k < compiled.size(); ++k) {
    extents[k].start_ns = clock_ns();
    for (const bender::Program& segment : compiled[k].segments) {
      auto result = engine_.executor().run(segment);
      for (BitVec& rd : result.reads) reads.push_back(std::move(rd));
    }
    extents[k].end_ns = clock_ns();
  }
  outcome.attempts = 1;
  finalize_responses(batch, compiled, extents, reads, 1, batch_seq, outcome);
  outcome.succeeded = true;
  outcome.end_clock_ns = clock_ns();
  if (outcome.buffer) {
    outcome.buffer->attempts = 1;
    outcome.buffer->succeeded = true;
  }
  return outcome;
}

}  // namespace simra::serve
