// Workloads serve_batch and serve_open: the PUD service driven from one
// submitting thread. serve_batch submits 256-request chunks, each followed
// by Service::drain() (batches fill to 32); serve_open sends requests on a
// fixed open-loop schedule to the service's background scheduler and polls
// the tickets itself. Every round builds a fresh Service, so set-up is
// measured once per round and a round's responses are a pure function of
// the request stream (serve_batch's digest repeats across rounds).

#include <sys/prctl.h>

#include <algorithm>
#include <numeric>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "charz/runner.hpp"
#include "common.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "serve/shard.hpp"
#include "serve/workload.hpp"
#include "verify/analyzer.hpp"
#include "verify/lint.hpp"
#include "verify/optimizer.hpp"

namespace perfbench {
namespace {

using namespace simra;
using namespace simra::serve;

constexpr std::size_t kWarmup = 64;      // bench_serve's warm-up drain.
constexpr std::size_t kChunk = 256;      // bench_serve --deterministic.
constexpr std::size_t kBatchRound = 8192;  // requests per serve_batch round.
constexpr double kOpenRate = 10000.0;      // serve_open requests per second.
constexpr double kOpenRoundS = 1.0;        // serve_open schedule per round.
/// A serve_open round whose generator sent any request later than this
/// after its due time is invalid: it is recorded, kept out of the
/// latency medians, and not re-run.
constexpr double kLateBoundUs = 5000.0;
constexpr std::size_t kMinRounds = 3;

WorkloadSpec workload_spec(const Options& options, const Service& service,
                           bool batch) {
  WorkloadSpec spec;
  spec.seed += options.seed;  // seed 0 is the stream's own default seed.
  if (batch) apply_mix(spec, "rowclone:25,init:25,copy:25,majx:25");
  spec.columns = service.config().profiles.front().geometry.columns;
  return spec;
}

/// The serving configuration both workloads use: ServiceConfig defaults,
/// independent of any SIMRA_SERVE_* setting of the caller.
ServiceConfig service_config() { return ServiceConfig{}; }

struct Round {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> latencies_us;
  std::vector<double> late_us;  ///< serve_open: generator lateness.
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::string digest;
  // ServeStats of the measured phase (warm-up subtracted).
  std::uint64_t batches = 0;
  std::uint64_t batch_attempts = 0;
  std::uint64_t fused_requests = 0;
  bool traced = false;
  bool valid = true;
};

struct Warm {
  std::unique_ptr<Ticket[]> tickets;
  std::uint64_t batches = 0, attempts = 0, fused = 0;
};

Warm warm_up(Service& service, const WorkloadSpec& spec) {
  Warm warm;
  warm.tickets = std::make_unique<Ticket[]>(kWarmup);
  for (std::size_t i = 0; i < kWarmup; ++i)
    (void)service.submit(make_request(spec, i), &warm.tickets[i]);
  service.drain();
  const ServeStats& stats = service.stats();
  warm.batches = stats.batches;
  warm.attempts = stats.batch_attempts;
  warm.fused = stats.fused_requests;
  return warm;
}

/// Exactly-once accounting over every ticket the round handed out
/// (warm-up included): each is delivered, each admitted request has one
/// distinct response id, and ok + expired + failed + rejected_invalid ==
/// admitted. Also folds the responses into the round digest (id, status,
/// shard, batch, result bits) and counts ok responses.
void check_round(Result& result, const std::string& label,
                 const Service& service, Warm& warm, Ticket* tickets,
                 std::size_t n, bool drop_ticket, Round& round) {
  const ServeStats& s = service.stats();
  std::vector<Ticket*> all;
  for (std::size_t i = 0; i < kWarmup; ++i) all.push_back(&warm.tickets[i]);
  for (std::size_t i = 0; i < n; ++i) all.push_back(&tickets[i]);
  Ticket never_submitted;
  if (drop_ticket) all.push_back(&never_submitted);

  std::size_t undelivered = 0;
  std::unordered_set<std::uint64_t> ids;
  std::size_t with_id = 0;
  Digest digest;
  for (std::size_t t = 0; t < all.size(); ++t) {
    if (!all[t]->ready()) {
      ++undelivered;
      continue;
    }
    const Response r = all[t]->wait();
    if (r.id != 0) {
      ++with_id;
      ids.insert(r.id);
    }
    if (t < kWarmup) continue;
    if (r.status == Status::kOk) ++round.ok;
    digest.u64(r.id);
    digest.u64(static_cast<std::uint64_t>(r.status));
    digest.u64(r.shard);
    digest.u64(r.batch);
    digest.u64(r.result.size());
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < r.result.size(); ++b) {
      word |= static_cast<std::uint64_t>(r.result.get(b)) << (b % 64);
      if (b % 64 == 63 || b + 1 == r.result.size()) {
        digest.u64(word);
        word = 0;
      }
    }
  }
  round.digest = digest.hex();
  const std::uint64_t admitted = s.admitted.load();
  const std::uint64_t submitted = s.submitted.load();
  const std::uint64_t rejected_at_submit =
      s.rejected_queue_full.load() + s.rejected_quota.load();
  std::ostringstream detail;
  detail << "admitted " << admitted << ", delivered " << s.delivered()
         << ", undelivered tickets " << undelivered << ", distinct ids "
         << ids.size() << "/" << with_id;
  const bool once = undelivered == 0 && s.delivered() == admitted &&
                    submitted == admitted + rejected_at_submit &&
                    with_id == admitted && ids.size() == with_id;
  result.check(label + ".exactly_once", once, detail.str());
  result.attempted += n;
  result.failed += n - round.ok;
}

/// Costs of the layers below Service, from replays of the workload's own
/// requests on a standalone Shard: seconds and counts summed over every
/// replayed batch.
struct Replay {
  double group = 0, compile = 0, fuse = 0, gate = 0, lint = 0, optimize = 0,
         run = 0, execute = 0, commands = 0, findings = 0;
  std::uint64_t slots_before = 0, slots_after = 0;
  std::size_t requests = 0, batches = 0;

  void add(const Replay& o) {
    group += o.group;
    compile += o.compile;
    fuse += o.fuse;
    gate += o.gate;
    lint += o.lint;
    optimize += o.optimize;
    run += o.run;
    execute += o.execute;
    commands += o.commands;
    findings += o.findings;
    slots_before += o.slots_before;
    slots_after += o.slots_after;
    requests += o.requests;
    batches += o.batches;
  }
  double per_request(double total) const {
    return requests > 0 ? total / static_cast<double>(requests) : 0.0;
  }
  double per_batch(double total) const {
    return batches > 0 ? total / static_cast<double>(batches) : 0.0;
  }
};

Replay replay_shard(const Service& service, const WorkloadSpec& spec,
                    std::size_t batch_size, std::size_t batches) {
  const ServiceConfig& cfg = service.config();
  Shard::Config sc;
  sc.profile = cfg.profiles.front();
  sc.seed = cfg.seed;
  sc.group_size = cfg.group_size;
  sc.steer = cfg.steer_groups;
  Shard shard(sc, 0);
  Shard exec_shard(sc, 0);
  const charz::detail::Resilience res = charz::detail::resilience_from_env();
  const verify::Mode gate_mode = verify::global_mode();
  const verify::OptMode opt_mode = verify::global_opt_mode();

  std::vector<BatchItem> items(batch_size * batches);
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i].request = make_request(spec, i);
    items[i].request.id = i + 1;
    if (items[i].request.op != OpKind::kRowClone) {
      // Group profiling is first-touch set-up in the service (paid by
      // the warm-up drain), so it stays out of the timed steps.
      shard.warm(items[i].request.bank, items[i].request.sa);
      exec_shard.warm(items[i].request.bank, items[i].request.sa);
    }
  }

  Replay r;
  r.requests = items.size();
  r.batches = batches;
  const auto timed = [](auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    return seconds_between(t0, Clock::now());
  };
  static const pud::RowGroup kNoGroup{};
  const dram::TimingParams& timings = shard.profile().timings;
  for (std::size_t b = 0; b < batches; ++b) {
    const std::span<const BatchItem> batch(items.data() + b * batch_size,
                                           batch_size);
    std::vector<const pud::RowGroup*> groups(batch_size, &kNoGroup);
    r.group += timed([&] {
      for (std::size_t i = 0; i < batch_size; ++i)
        if (batch[i].request.op != OpKind::kRowClone)
          groups[i] = &shard.group_for(batch[i].request.bank,
                                       batch[i].request.sa);
    });
    std::vector<CompiledRequest> compiled;
    r.compile += timed([&] {
      for (std::size_t i = 0; i < batch_size; ++i)
        if (shard.compiler().validate(batch[i].request, *groups[i]).empty())
          compiled.push_back(
              shard.compiler().compile(batch[i].request, *groups[i]));
    });
    bender::Program fused;
    r.fuse += timed([&] {
      std::vector<FusedExtent> extents;
      fused = shard.compiler().fuse("replay.b" + std::to_string(b), compiled,
                                    &extents);
    });
    r.findings +=
        static_cast<double>(verify::analyze(fused, timings).findings.size());
    if (gate_mode != verify::Mode::kOff)
      r.gate += timed([&] { verify::gate(fused, timings); });
    if (opt_mode != verify::OptMode::kOff) {
      const verify::ProgramContext ctx =
          shard.engine().executor().program_context();
      r.lint += timed([&] { verify::lint(fused, ctx); });
      if (opt_mode == verify::OptMode::kOn)
        r.optimize += timed([&] { (void)verify::optimize(fused, ctx); });
    }
    r.run += timed([&] { (void)shard.engine().executor().run(fused); });
    const verify::OptStats& os = shard.engine().executor().last_opt_stats();
    r.slots_before += os.extent_before;
    r.slots_after += os.extent_after;
    r.commands += static_cast<double>(fused.commands().size());
  }
  // Whole batches on the twin shard in a pass of their own, so the two
  // chips' model caches do not evict each other between timed calls.
  for (std::size_t b = 0; b < batches; ++b) {
    const std::span<const BatchItem> batch(items.data() + b * batch_size,
                                           batch_size);
    r.execute += timed([&] { (void)exec_shard.execute(batch, b, res); });
  }
  return r;
}

/// Submits one request. On a traced round (`submit_us` set) the time
/// inside Service::submit joins `submit_us`, in microseconds.
void submit(Service& service, Request request, Ticket* ticket,
            std::vector<double>* submit_us) {
  if (submit_us == nullptr) {
    (void)service.submit(std::move(request), ticket);
    return;
  }
  const auto t0 = Clock::now();
  (void)service.submit(std::move(request), ticket);
  submit_us->push_back(
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
}

/// Fills the serve-side per-layer metrics of a traced run, per round.
/// `bench_own_s` is the benchmark's own request generation on the
/// submitting thread; `submitter_in_base` says whether that thread's CPU
/// is part of the rounds' CPU (serve_open leaves its generator out).
void serve_layers(Result& result, const std::vector<double>& submit_us,
                  const std::vector<Round>& rounds, const Replay& replay,
                  const CounterDelta& delta, double traced_rounds,
                  double bench_own_s, double pump_s, bool submitter_in_base) {
  auto& m = result.metrics;
  double batches = 0, attempts = 0, fused = 0, requests = 0, cpu = 0;
  for (const Round& r : rounds) {
    if (!r.traced) continue;
    batches += static_cast<double>(r.batches);
    attempts += static_cast<double>(r.batch_attempts);
    fused += static_cast<double>(r.fused_requests);
    requests += static_cast<double>(r.submitted);
    cpu += r.cpu_s;
  }
  batches /= traced_rounds;
  attempts /= traced_rounds;
  fused /= traced_rounds;
  requests /= traced_rounds;
  cpu /= traced_rounds;

  const double submit_s =
      std::accumulate(submit_us.begin(), submit_us.end(), 0.0) * 1e-6 /
      traced_rounds;
  m["serve.submit_us_p50"] = quantile(submit_us, 0.50);
  m["serve.submit_us_p99"] = quantile(submit_us, 0.99);
  m["serve.pump_s"] = pump_s;
  m["serve.group_s"] = replay.per_request(replay.group) * fused;
  m["serve.compile_s"] = replay.per_request(replay.compile) * fused;
  m["serve.fuse_s"] = replay.per_batch(replay.fuse) * batches;
  m["serve.execute_s"] = replay.per_batch(replay.execute) * batches;
  m["serve.batches"] = batches;
  m["serve.mean_batch"] = batches > 0 ? fused / batches : 0.0;
  m["serve.batch_retry_ratio"] = batches > 0 ? attempts / batches : 0.0;
  m["verify.gate_s"] = replay.per_batch(replay.gate) * attempts;
  m["verify.lint_s"] = replay.per_batch(replay.lint) * attempts;
  m["verify.optimize_s"] = replay.per_batch(replay.optimize) * attempts;
  m["verify.findings"] = replay.per_batch(replay.findings) * batches;
  m["verify.slots_saved_pct"] =
      replay.slots_before > 0
          ? 100.0 *
                static_cast<double>(replay.slots_before - replay.slots_after) /
                static_cast<double>(replay.slots_before)
          : 0.0;
  m["bender.run_calls"] = attempts;
  m["bender.run_s"] = replay.per_batch(replay.run) * attempts;
  m["bender.commands"] = replay.per_batch(replay.commands) * attempts;
  m["bender.us_per_command"] =
      replay.commands > 0 ? 1e6 * replay.run / replay.commands : 0.0;
  add_dram_metrics(result, delta, traced_rounds, requests);

  const double execute = m["serve.execute_s"];
  const double on_submitter = submitter_in_base ? bench_own_s + submit_s : 0.0;
  const double unattributed = cpu - on_submitter - execute;
  m["unattributed_pct"] = cpu > 0 ? 100.0 * unattributed / cpu : 0.0;

  const auto row = [&](const std::string& layer, double s, const char* how) {
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(4);
    os << "ledger " << layer << " " << s << " s "
       << (cpu > 0 ? 100.0 * s / cpu : 0.0) << " % " << how;
    result.notes.push_back(os.str());
  };
  row("cpu_total", cpu,
      submitter_in_base ? "(base: process CPU per traced round)"
                        : "(base: process CPU per traced round, generator "
                          "thread excluded)");
  if (submitter_in_base) {
    row("bench.generate", bench_own_s, "(make_request, the benchmark's own)");
    row("serve.submit", submit_s, "(submit spans)");
  }
  row("serve.execute", execute,
      "(Shard::execute per batch x batches, replayed)");
  row("  serve.group_for", m["serve.group_s"], "(nested in execute)");
  row("  serve.compile", m["serve.compile_s"], "(nested in execute)");
  row("  serve.fuse", m["serve.fuse_s"], "(nested in execute)");
  row("  bender.run", m["bender.run_s"],
      "(nested in execute; holds the verify rows)");
  row("    verify.gate", m["verify.gate_s"], "(nested in bender.run)");
  row("    verify.lint", m["verify.lint_s"], "(nested in bender.run)");
  row("    verify.optimize", m["verify.optimize_s"], "(nested in bender.run)");
  row("    dram.outer_scopes", outer_electrical_s(result),
      "(nested in bender.run)");
  row("unattributed", unattributed,
      "(pump routing and delivery, pool and scheduler idle loops)");
  result.notes.push_back("serve.pump_s is wall time inside drain() on the "
                         "submitting thread; execute runs inside it");
}

/// The end-to-end metrics from the untraced rounds: medians over rounds
/// of set-up, throughput, per-round latency percentiles and CPU.
void set_round_metrics(Result& result, const std::vector<double>& setups,
                       const std::vector<double>& rates,
                       const std::vector<double>& p50,
                       const std::vector<double>& p99,
                       const std::vector<double>& cpus) {
  result.metrics["setup_s"] = median(setups);
  result.metrics["ops_per_s"] = median(rates);
  result.metrics["latency_p50_us"] = median(p50);
  result.metrics["e2e.latency_p99_us"] = median(p99);
  result.metrics["e2e.cpu_s"] = median(cpus);
}

/// Adds the program counters' change since `before` to `total`.
void accumulate_counters(
    CounterDelta& total,
    const std::map<std::string, std::pair<std::uint64_t, double>>& before) {
  const CounterDelta d = counter_delta(before, counter_snapshot());
  for (const auto& [k, v] : d.calls) total.calls[k] += v;
  for (const auto& [k, v] : d.seconds) total.seconds[k] += v;
}

/// Records the round's ServeStats (warm-up subtracted), runs the
/// exactly-once check, and notes the peak RSS after the first round.
void finish_round(Result& result, const Options& options,
                  const Service& service, Warm& warm, Ticket* tickets,
                  std::size_t n, std::size_t index, Round& round) {
  const ServeStats& st = service.stats();
  round.submitted = n;
  round.batches = st.batches - warm.batches;
  round.batch_attempts = st.batch_attempts - warm.attempts;
  round.fused_requests = st.fused_requests - warm.fused;
  check_round(result, "round" + std::to_string(index + 1), service, warm,
              tickets, n, options.drop_ticket, round);
  if (index == 0) result.metrics["peak_rss_mb"] = peak_rss_mb();
}

}  // namespace

void run_serve_batch(const Options& options, Result& result) {
  static simra::prof::Counter& generate_c = span_counter("generate");
  static simra::prof::Counter& drain_c = span_counter("drain");
  std::vector<Round> rounds;
  std::vector<double> submit_us;
  std::vector<double> queue_age;
  obs::Gauge& age_gauge =
      obs::MetricsRegistry::instance().gauge("serve/queue_age_rounds");
  Replay replay;
  std::string first_digest;
  std::map<std::string, std::pair<std::uint64_t, double>> before;
  CounterDelta delta;
  const auto begin = Clock::now();
  while (rounds.size() < kMinRounds ||
         seconds_between(begin, Clock::now()) < options.seconds) {
    Round round;
    round.traced = options.trace && rounds.size() % 2 == 1;
    const bool tr = round.traced;
    const auto s0 = Clock::now();
    Service service{service_config()};
    const WorkloadSpec spec = workload_spec(options, service, true);
    Warm warm = warm_up(service, spec);
    round.setup_s = seconds_between(s0, Clock::now());

    auto tickets = std::make_unique<Ticket[]>(kBatchRound);
    std::vector<Clock::time_point> sent(kBatchRound);
    round.latencies_us.reserve(kBatchRound);
    if (round.traced) before = counter_snapshot();
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < kBatchRound; c += kChunk) {
      const std::size_t end = std::min(c + kChunk, kBatchRound);
      for (std::size_t i = c; i < end; ++i) {
        Request request;
        {
          Span s(tr, generate_c);
          request = make_request(spec, i);
        }
        sent[i] = Clock::now();
        submit(service, std::move(request), &tickets[i],
               tr ? &submit_us : nullptr);
        if (tr) queue_age.push_back(age_gauge.value());
      }
      {
        Span s(tr, drain_c);
        service.drain();
      }
      const auto done = Clock::now();
      for (std::size_t i = c; i < end; ++i)
        round.latencies_us.push_back(
            std::chrono::duration<double, std::micro>(done - sent[i]).count());
    }
    round.wall_s = seconds_between(t0, Clock::now());
    round.cpu_s = process_cpu_s() - cpu0;
    if (round.traced) accumulate_counters(delta, before);
    finish_round(result, options, service, warm, tickets.get(), kBatchRound,
                 rounds.size(), round);
    if (first_digest.empty()) first_digest = round.digest;
    result.check("round" + std::to_string(rounds.size() + 1) +
                     ".digest_repeats",
                 round.digest == first_digest, round.digest);
    // One shard's share of the round (8192 / 32 / 4 = 64 full batches),
    // replayed right after it so that both run under the same host load.
    if (round.traced)
      replay.add(replay_shard(service, spec, service.config().max_batch,
                              kBatchRound / service.config().max_batch /
                                  service.shard_count()));
    rounds.push_back(std::move(round));
  }
  result.digests["responses"] = first_digest;

  std::vector<double> setups, cpus, p50, p99, rates;
  std::vector<double> traced_walls, untraced_walls;
  for (const Round& r : rounds) {
    setups.push_back(r.setup_s);
    (r.traced ? traced_walls : untraced_walls).push_back(r.wall_s);
    if (r.traced) continue;
    cpus.push_back(r.cpu_s);
    rates.push_back(static_cast<double>(r.ok) / r.wall_s);
    p50.push_back(quantile(r.latencies_us, 0.50));
    p99.push_back(quantile(r.latencies_us, 0.99));
  }
  result.notes.push_back("rounds " + std::to_string(rounds.size()) + " of " +
                         std::to_string(kBatchRound) +
                         " requests; latency samples per round " +
                         std::to_string(kBatchRound));
  set_round_metrics(result, setups, rates, p50, p99, cpus);
  if (!options.trace) return;

  const double traced_rounds = static_cast<double>(traced_walls.size());
  const double pump_traced =
      delta.seconds.at("perfbench/drain") / traced_rounds;
  const double gen_traced =
      delta.seconds.at("perfbench/generate") / traced_rounds;
  serve_layers(result, submit_us, rounds, replay, delta, traced_rounds,
               gen_traced, pump_traced, true);
  result.metrics["serve.queue_age_rounds_p99"] = quantile(queue_age, 0.99);
  result.metrics["bench.trace_overhead_pct"] =
      100.0 * (median(traced_walls) / median(untraced_walls) - 1.0);
  set_bypassed(result, {"charz.", "pud.", "model.", "gen."});
}

void run_serve_open(const Options& options, Result& result) {
  // Fine-grained sleeps: the generator wakes close to each due time.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  const auto period = std::chrono::nanoseconds(
      static_cast<std::int64_t>(1e9 / kOpenRate));
  const auto n = static_cast<std::size_t>(kOpenRate * kOpenRoundS);
  static simra::prof::Counter& generate_c = span_counter("generate");
  std::vector<Round> rounds;
  std::vector<double> submit_us;
  std::vector<double> queue_age;
  obs::Gauge& age_gauge =
      obs::MetricsRegistry::instance().gauge("serve/queue_age_rounds");
  Replay replay;
  CounterDelta delta;
  std::size_t invalid = 0;
  const auto begin = Clock::now();
  while (rounds.size() < kMinRounds ||
         seconds_between(begin, Clock::now()) < options.seconds) {
    Round round;
    round.traced = options.trace && rounds.size() % 2 == 1;
    const bool tr = round.traced;
    const auto s0 = Clock::now();
    Service service{service_config()};
    const WorkloadSpec spec = workload_spec(options, service, false);
    Warm warm = warm_up(service, spec);
    service.start();
    round.setup_s = seconds_between(s0, Clock::now());

    auto tickets = std::make_unique<Ticket[]>(n);
    std::vector<std::uint32_t> in_flight;
    round.latencies_us.reserve(n);
    round.late_us.reserve(n);
    std::map<std::string, std::pair<std::uint64_t, double>> before;
    if (round.traced) before = counter_snapshot();
    // The generator is the load, not the system: its thread's CPU (polling,
    // sleeps, and the ~1 % it spends inside submit) is left out.
    const double cpu0 = process_cpu_s() - thread_cpu_s();
    const auto t0 = Clock::now();
    const auto due_at = [&](std::size_t i) {
      return t0 + period * static_cast<std::int64_t>(i);
    };
    auto last_done = t0;
    std::size_t next = 0;
    while (next < n || !in_flight.empty()) {
      auto now = Clock::now();
      while (next < n && now >= due_at(next)) {
        const auto due = due_at(next);
        Request request;
        {
          Span s(tr, generate_c);
          request = make_request(spec, next);
        }
        round.late_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - due)
                .count());
        submit(service, std::move(request), &tickets[next],
               tr ? &submit_us : nullptr);
        if (tr) queue_age.push_back(age_gauge.value());
        in_flight.push_back(static_cast<std::uint32_t>(next));
        ++next;
        now = Clock::now();
      }
      for (std::size_t k = 0; k < in_flight.size();) {
        const std::uint32_t i = in_flight[k];
        if (tickets[i].ready()) {
          const auto due = due_at(i);
          round.latencies_us.push_back(
              std::chrono::duration<double, std::micro>(now - due).count());
          last_done = now;
          in_flight[k] = in_flight.back();
          in_flight.pop_back();
        } else {
          ++k;
        }
      }
      // While requests are in flight the generator polls without sleeping,
      // so a latency is observed within a poll pass of its delivery rather
      // than a timer wake-up later; otherwise it sleeps to the next send.
      if (in_flight.empty() && next < n)
        std::this_thread::sleep_until(due_at(next));
      else
        std::this_thread::yield();
    }
    round.wall_s = seconds_between(t0, last_done);
    round.cpu_s = process_cpu_s() - thread_cpu_s() - cpu0;
    if (round.traced) accumulate_counters(delta, before);
    service.stop();
    finish_round(result, options, service, warm, tickets.get(), n,
                 rounds.size(), round);
    const double late_max =
        *std::max_element(round.late_us.begin(), round.late_us.end());
    round.valid = late_max <= kLateBoundUs;
    // As many single-request batches as one shard executes in a round, so
    // the replay's chip caches warm as much as the service's do.
    if (round.traced)
      replay.add(replay_shard(service, spec, 1, n / service.shard_count()));
    if (!round.valid) {
      ++invalid;
      result.notes.push_back("round" + std::to_string(rounds.size() + 1) +
                             " invalid: generator ran " +
                             std::to_string(late_max) + " us late (bound " +
                             std::to_string(kLateBoundUs) + " us)");
    }
    rounds.push_back(std::move(round));
  }

  std::vector<double> setups, cpus, p50, p99, rates, late_p99, late_max;
  std::vector<double> traced_p50, untraced_p50;
  std::size_t valid_rounds = 0;
  for (const Round& r : rounds) {
    setups.push_back(r.setup_s);
    late_p99.push_back(quantile(r.late_us, 0.99));
    late_max.push_back(quantile(r.late_us, 1.0));
    (r.traced ? traced_p50 : untraced_p50)
        .push_back(quantile(r.latencies_us, 0.50));
    if (r.traced) continue;
    cpus.push_back(r.cpu_s);
    rates.push_back(static_cast<double>(r.ok) / r.wall_s);
    if (!r.valid) continue;
    ++valid_rounds;
    p50.push_back(quantile(r.latencies_us, 0.50));
    p99.push_back(quantile(r.latencies_us, 0.99));
  }
  if (valid_rounds == 0) {
    // Every measured round ran late: report them all, flagged as such.
    result.notes.push_back("no valid round: latencies include generator "
                           "stalls");
    for (const Round& r : rounds) {
      if (r.traced) continue;
      p50.push_back(quantile(r.latencies_us, 0.50));
      p99.push_back(quantile(r.latencies_us, 0.99));
    }
  }
  result.notes.push_back(
      "rounds " + std::to_string(rounds.size()) + " of " + std::to_string(n) +
      " requests at " + std::to_string(static_cast<int>(kOpenRate)) +
      "/s; valid " + std::to_string(valid_rounds) + ", invalid " +
      std::to_string(invalid) + "; latency samples per round " +
      std::to_string(n));
  result.metrics["gen.late_p99_us"] = median(late_p99);
  result.metrics["gen.late_max_us"] = median(late_max);
  result.metrics["gen.invalid_rounds"] = static_cast<double>(invalid);
  set_round_metrics(result, setups, rates, p50, p99, cpus);
  if (!options.trace) return;

  const double traced_rounds = static_cast<double>(traced_p50.size());
  const double gen = delta.seconds.at("perfbench/generate") / traced_rounds;
  serve_layers(result, submit_us, rounds, replay, delta, traced_rounds, gen,
               0.0, false);
  result.metrics["serve.queue_age_rounds_p99"] = quantile(queue_age, 0.99);
  result.metrics["bench.trace_overhead_pct"] =
      100.0 * (median(traced_p50) / median(untraced_p50) - 1.0);
  set_bypassed(result, {"charz.", "pud.", "model."});
}

}  // namespace perfbench
