#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/env.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace simra::serve {

namespace {

dram::VendorProfile profile_by_name(const std::string& name) {
  if (name == "hynix_m") return dram::VendorProfile::hynix_m();
  if (name == "hynix_m640") return dram::VendorProfile::hynix_m640();
  if (name == "hynix_a") return dram::VendorProfile::hynix_a();
  if (name == "micron_e") return dram::VendorProfile::micron_e();
  if (name == "micron_b") return dram::VendorProfile::micron_b();
  throw std::invalid_argument("SIMRA_SERVE_VENDORS: unknown profile '" +
                              name + "'");
}

std::vector<dram::VendorProfile> profiles_from_env() {
  const std::string list = env_string("SIMRA_SERVE_VENDORS", "");
  if (list.empty()) return {};
  std::vector<dram::VendorProfile> profiles;
  std::stringstream ss(list);
  std::string name;
  while (std::getline(ss, name, ','))
    if (!name.empty()) profiles.push_back(profile_by_name(name));
  return profiles;
}

struct ServeMetrics {
  obs::Gauge& queue_depth;
  obs::Gauge& queue_age_rounds;
  obs::Gauge& healthy_shards;
  obs::Histogram& batch_size;
  obs::Histogram& batch_virtual_us;
  obs::Histogram& request_virtual_us;
  prof::Counter& ok;
  prof::Counter& expired;
  prof::Counter& failed;
  prof::Counter& rejected;
  prof::Counter& rerouted;
  prof::Counter& deadline_miss;
  prof::Counter& batches;

  static ServeMetrics& instance() {
    auto& reg = obs::MetricsRegistry::instance();
    static ServeMetrics metrics{
        reg.gauge("serve/queue_depth"),
        reg.gauge("serve/queue_age_rounds"),
        reg.gauge("serve/healthy_shards"),
        reg.histogram("serve/batch_size",
                      {1, 2, 4, 8, 16, 32, 64, 128, 256}),
        reg.histogram("serve/batch_virtual_us",
                      {10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}),
        reg.histogram("serve/request_virtual_us",
                      {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}),
        reg.counter("serve/responses_ok"),
        reg.counter("serve/responses_expired"),
        reg.counter("serve/responses_failed"),
        reg.counter("serve/responses_rejected"),
        reg.counter("serve/reroutes"),
        reg.counter("serve/deadline_miss"),
        reg.counter("serve/batches"),
    };
    return metrics;
  }
};

}  // namespace

ServiceConfig ServiceConfig::from_env() {
  ServiceConfig config;
  const auto positive = [](const char* name, std::int64_t fallback) {
    const std::int64_t v = env_int(name, fallback);
    return static_cast<std::size_t>(v > 0 ? v : fallback);
  };
  config.shards = positive("SIMRA_SERVE_SHARDS", 4);
  config.max_batch = positive("SIMRA_SERVE_BATCH", 32);
  config.queue_capacity = positive("SIMRA_SERVE_QUEUE", 1024);
  config.max_in_flight = positive("SIMRA_SERVE_INFLIGHT", 2048);
  config.tenant_quota = positive("SIMRA_SERVE_QUOTA", 512);
  config.group_size = positive("SIMRA_SERVE_GROUP", 4);
  config.max_reroutes =
      static_cast<unsigned>(positive("SIMRA_SERVE_REROUTES", 2));
  config.seed = static_cast<std::uint64_t>(
      env_int("SIMRA_SERVE_SEED", 0x5e12));
  config.steer_groups = env_int("SIMRA_SERVE_STEER", 1) != 0;
  config.profiles = profiles_from_env();
  return config;
}

std::string ServeStats::summary(std::size_t total_shards) const {
  std::ostringstream os;
  os << "serve: " << (total_shards - quarantined_shards) << "/" << total_shards
     << " shards healthy, " << ok << " ok, " << expired << " expired, "
     << failed << " failed, " << rejected_invalid << " invalid, " << rerouted
     << " rerouted, " << batches << " batches (" << batch_attempts
     << " attempts), " << fault_events << " fault events";
  if (over_quarantine_budget) os << " [over quarantine budget]";
  return os.str();
}

Service::Service(ServiceConfig config)
    : config_(std::move(config)),
      res_(charz::detail::resilience_from_env()),
      queue_(config_.queue_capacity),
      admission_(config_.max_in_flight, config_.tenant_quota) {
  if (config_.shards == 0) throw std::invalid_argument("serve: zero shards");
  if (config_.max_batch == 0)
    throw std::invalid_argument("serve: zero batch size");
  if (config_.profiles.empty())
    config_.profiles = {dram::VendorProfile::hynix_m(),
                        dram::VendorProfile::hynix_a()};
  const std::size_t columns = config_.profiles.front().geometry.columns;
  for (const dram::VendorProfile& profile : config_.profiles)
    if (profile.geometry.columns != columns)
      throw std::invalid_argument(
          "serve: fleet profiles must share one row width (run "
          "geometry-heterogeneous fleets as separate pools)");
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    Shard::Config sc;
    sc.profile = config_.profiles[i % config_.profiles.size()];
    sc.seed = config_.seed;
    sc.group_size = config_.group_size;
    sc.steer = config_.steer_groups;
    shards_.push_back(
        std::make_unique<Shard>(std::move(sc), static_cast<std::uint32_t>(i)));
  }
  batch_seq_.assign(config_.shards, 0);
  pool_ = std::make_unique<charz::WorkStealingPool>(
      charz::detail::pool_workers(config_.shards));

  // Record the *resolved* serving configuration in the run manifest —
  // env-derived knobs appear in the manifest's env surface only when set,
  // so defaults would otherwise be invisible in serving artifacts.
  const auto field = [](const char* key, std::size_t value) {
    obs::set_manifest_field(key, std::to_string(value));
  };
  field("serve.shards", config_.shards);
  field("serve.max_batch", config_.max_batch);
  field("serve.queue_capacity", config_.queue_capacity);
  field("serve.max_in_flight", config_.max_in_flight);
  field("serve.tenant_quota", config_.tenant_quota);
  field("serve.group_size", config_.group_size);
  field("serve.max_reroutes", config_.max_reroutes);
  obs::set_manifest_field("serve.seed", std::to_string(config_.seed));
  obs::set_manifest_field("serve.steer", config_.steer_groups ? "1" : "0");
  std::string vendors;
  for (const dram::VendorProfile& profile : config_.profiles) {
    if (!vendors.empty()) vendors += ",";
    vendors += profile.short_name;
    vendors += ':';
    vendors += profile.die_revision;
  }
  obs::set_manifest_field("serve.vendors", vendors);
  const obs::SloConfig& slo = obs::SloRegistry::instance().config();
  std::ostringstream objective;
  objective << slo.objective;
  obs::set_manifest_field("slo.objective", objective.str());
  field("slo.window_batches", slo.window);
  field("snapshot.every", slo.snapshot ? slo.snapshot_every : 0);
}

Service::~Service() { stop(); }

bool Service::submit(Request request, Ticket* ticket) {
  stats_.submitted.fetch_add(1, std::memory_order_relaxed);
  const std::uint32_t tenant = request.tenant;
  const Admission verdict = admission_.try_admit(tenant);
  if (verdict != Admission::kAdmit) {
    if (verdict == Admission::kQueueFull)
      stats_.rejected_queue_full.fetch_add(1, std::memory_order_relaxed);
    else
      stats_.rejected_quota.fetch_add(1, std::memory_order_relaxed);
    if (ticket) {
      Response response;
      response.status = Status::kRejected;
      response.error = to_string(verdict);
      ticket->deliver(std::move(response));
    }
    return false;
  }
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  if (!queue_.try_push(Submission{std::move(request), ticket})) {
    admission_.release(tenant);
    stats_.rejected_queue_full.fetch_add(1, std::memory_order_relaxed);
    if (ticket) {
      Response response;
      response.status = Status::kRejected;
      response.error = "submission queue full";
      ticket->deliver(std::move(response));
    }
    return false;
  }
  stats_.admitted.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Service::deliver(const BatchItem& item, Response response) {
  admission_.release(item.request.tenant);
  if (item.ticket) item.ticket->deliver(std::move(response));
}

void Service::record_batch_metrics(const BatchOutcome& outcome,
                                   std::size_t size) {
  ServeMetrics& m = ServeMetrics::instance();
  m.batches.add_count(1);
  m.batch_size.observe(static_cast<double>(size));
  m.batch_virtual_us.observe(
      (outcome.end_clock_ns - outcome.start_clock_ns) / 1000.0);
  stats_.batches += 1;
  stats_.batch_attempts += outcome.attempts;
  stats_.fused_requests += size;
  stats_.fault_events += outcome.faults.total();
}

std::size_t Service::pump() {
  std::vector<BatchItem> pending = std::move(backlog_);
  backlog_.clear();
  // Carried-over items (reroutes) have waited one more scheduler round.
  unsigned max_wait_rounds = 0;
  for (BatchItem& item : pending) {
    item.trace.wait_rounds += 1;
    max_wait_rounds = std::max(max_wait_rounds, item.trace.wait_rounds);
  }
  Submission submission;
  while (queue_.try_pop(submission))
    pending.push_back(BatchItem{std::move(submission.request),
                                submission.ticket, 0, TraceContext{}});
  if (pending.empty()) return 0;

  ServeMetrics& m = ServeMetrics::instance();
  m.queue_depth.set(static_cast<double>(pending.size()));
  m.queue_age_rounds.set(static_cast<double>(max_wait_rounds));

  std::vector<std::size_t> healthy;
  healthy.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i)
    if (!shards_[i]->quarantined()) healthy.push_back(i);
  m.healthy_shards.set(static_cast<double>(healthy.size()));

  obs::SloRegistry& slo = obs::SloRegistry::instance();
  slo.set_queue_state(pending.size(), max_wait_rounds, healthy.size());

  std::size_t delivered = 0;

  // Route + deadline check. Routing keys on the request id, so a request
  // sticks to its shard across rounds while the healthy set is stable and
  // moves deterministically when it shrinks.
  std::vector<std::vector<BatchItem>> per_shard(shards_.size());
  for (BatchItem& item : pending) {
    if (healthy.empty()) {
      Response response;
      response.id = item.request.id;
      response.status = Status::kFailed;
      response.error = "no healthy shards";
      stats_.failed += 1;
      m.failed.add_count(1);
      slo.observe_delivery(item.request.tenant, item.request.id, 0.0,
                           obs::SloOutcome::kFailed, false);
      obs::emit_event("serve.request.failed",
                      {{"request", std::to_string(item.request.id)},
                       {"tenant", std::to_string(item.request.tenant)},
                       {"error", "no healthy shards"}});
      deliver(item, std::move(response));
      ++delivered;
      continue;
    }
    const std::size_t si = healthy[item.request.id % healthy.size()];
    if (item.request.deadline_ns > 0.0 &&
        shards_[si]->clock_ns() >= item.request.deadline_ns) {
      Response response;
      response.id = item.request.id;
      response.status = Status::kExpired;
      response.error = "virtual deadline passed before dispatch";
      response.shard = static_cast<std::uint32_t>(si);
      stats_.expired += 1;
      m.expired.add_count(1);
      slo.observe_delivery(item.request.tenant, item.request.id, 0.0,
                           obs::SloOutcome::kExpired, false);
      obs::emit_event("serve.request.expired",
                      {{"request", std::to_string(item.request.id)},
                       {"tenant", std::to_string(item.request.tenant)},
                       {"shard", std::to_string(si)},
                       {"wait_rounds",
                        std::to_string(item.trace.wait_rounds)}});
      deliver(item, std::move(response));
      ++delivered;
      continue;
    }
    item.trace.routed_clock_ns = shards_[si]->clock_ns();
    per_shard[si].push_back(std::move(item));
  }

  // Deadline-aware (EDF) order within each shard, stable on the id so
  // deadline-less requests keep arrival order.
  for (std::vector<BatchItem>& items : per_shard)
    std::stable_sort(items.begin(), items.end(),
                     [](const BatchItem& a, const BatchItem& b) {
                       const double da =
                           a.request.deadline_ns > 0.0
                               ? a.request.deadline_ns
                               : std::numeric_limits<double>::infinity();
                       const double db =
                           b.request.deadline_ns > 0.0
                               ? b.request.deadline_ns
                               : std::numeric_limits<double>::infinity();
                       return da < db;
                     });

  // Dispatch: one pool task per shard; a shard executes its batches
  // sequentially (its chip is stateful), shards run concurrently.
  std::vector<std::vector<BatchOutcome>> outcomes(shards_.size());
  {
    charz::WorkStealingPool::Group group(*pool_);
    for (std::size_t si = 0; si < shards_.size(); ++si) {
      if (per_shard[si].empty()) continue;
      group.spawn([this, si, &per_shard, &outcomes] {
        const std::vector<BatchItem>& items = per_shard[si];
        for (std::size_t begin = 0; begin < items.size();
             begin += config_.max_batch) {
          const std::size_t count =
              std::min(config_.max_batch, items.size() - begin);
          outcomes[si].push_back(shards_[si]->execute(
              std::span<const BatchItem>(items.data() + begin, count),
              batch_seq_[si]++, res_));
        }
      });
    }
    group.wait();
  }

  // Deliver in (shard, batch) order — the deterministic order obs chunks
  // are sealed in, and the order response counters accumulate in.
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    std::size_t offset = 0;
    for (const BatchOutcome& outcome : outcomes[si]) {
      const std::size_t size = outcome.responses.size();
      record_batch_metrics(outcome, size);
      if (outcome.buffer) obs::Log::instance().submit(outcome.buffer);
      for (std::size_t j = 0; j < size; ++j) {
        BatchItem& item = per_shard[si][offset + j];
        Response response = outcome.responses[j];
        if (outcome.rejected[j]) {
          stats_.rejected_invalid += 1;
          m.rejected.add_count(1);
          slo.observe_delivery(item.request.tenant, item.request.id, 0.0,
                               obs::SloOutcome::kRejected, false);
          deliver(item, std::move(response));
          ++delivered;
          continue;
        }
        if (outcome.succeeded) {
          m.request_virtual_us.observe(
              (response.virtual_ns - outcome.start_clock_ns) / 1000.0);
          // Residency on the executing shard: routed -> reply, virtual
          // clock. An ok reply past its deadline burns SLO budget as a
          // deadline miss without failing the request.
          const double latency_us =
              (response.virtual_ns - item.trace.routed_clock_ns) / 1000.0;
          const bool deadline_miss =
              item.request.deadline_ns > 0.0 &&
              response.virtual_ns > item.request.deadline_ns;
          if (deadline_miss) {
            stats_.deadline_miss += 1;
            m.deadline_miss.add_count(1);
          }
          slo.observe_delivery(item.request.tenant, item.request.id,
                               latency_us, obs::SloOutcome::kOk,
                               deadline_miss);
          stats_.ok += 1;
          m.ok.add_count(1);
          deliver(item, std::move(response));
          ++delivered;
          continue;
        }
        if (item.reroutes >= config_.max_reroutes) {
          response.status = Status::kFailed;
          response.error = outcome.error;
          response.attempts = outcome.attempts;
          stats_.failed += 1;
          m.failed.add_count(1);
          slo.observe_delivery(item.request.tenant, item.request.id, 0.0,
                               obs::SloOutcome::kFailed, false);
          obs::emit_event("serve.request.failed",
                          {{"request", std::to_string(item.request.id)},
                           {"tenant", std::to_string(item.request.tenant)},
                           {"shard", std::to_string(si)},
                           {"attempts", std::to_string(outcome.attempts)},
                           {"error", outcome.error}});
          deliver(item, std::move(response));
          ++delivered;
        } else {
          item.reroutes += 1;
          stats_.rerouted += 1;
          m.rerouted.add_count(1);
          obs::emit_event("serve.request.rerouted",
                          {{"request", std::to_string(item.request.id)},
                           {"tenant", std::to_string(item.request.tenant)},
                           {"from_shard", std::to_string(si)},
                           {"reroutes", std::to_string(item.reroutes)}});
          backlog_.push_back(std::move(item));
        }
      }
      offset += size;
      // Seal the SLO window at this (shard, batch) boundary — the same
      // deterministic order the obs chunks were just submitted in.
      slo.seal_batch();
      if (!outcome.succeeded && !shards_[si]->quarantined()) {
        shards_[si]->quarantine(outcome.error);
        stats_.quarantined_shards += 1;
        if (stats_.quarantined_shards >
            res_.spec.effective_quarantine_budget())
          stats_.over_quarantine_budget = true;
        obs::emit_event(
            "serve.shard.quarantined",
            {{"shard", std::to_string(si)},
             {"attempts", std::to_string(outcome.attempts)},
             {"error", outcome.error}});
      }
    }
  }
  return delivered;
}

void Service::drain() {
  for (;;) {
    const std::size_t delivered = pump();
    if (delivered == 0 && backlog_.empty() && queue_.approx_size() == 0)
      return;
  }
}

void Service::start() {
  if (scheduler_.joinable()) return;
  stop_.store(false, std::memory_order_relaxed);
  scheduler_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      if (pump() == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    drain();  // never strand an admitted request across stop().
  });
}

void Service::stop() {
  if (!scheduler_.joinable()) return;
  stop_.store(true, std::memory_order_relaxed);
  scheduler_.join();
}

std::size_t Service::healthy_shards() const {
  std::size_t healthy = 0;
  for (const auto& shard : shards_)
    if (!shard->quarantined()) ++healthy;
  return healthy;
}

}  // namespace simra::serve
