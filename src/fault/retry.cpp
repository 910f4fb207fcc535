#include "fault/retry.hpp"

#include <chrono>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace simra::fault {

void AttemptRecord::add(const ChipInjector& injector) {
  faults += injector.counters();
  trace.insert(trace.end(), injector.trace().begin(), injector.trace().end());
}

void AttemptRecord::annotate(obs::TaskBuffer* buffer) const {
  if (buffer == nullptr) return;
  buffer->attempts = attempts;
  buffer->succeeded = succeeded;
  buffer->error = error;
}

namespace detail {

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

void begin_retry(const FaultSpec& spec, unsigned attempt) {
  if (spec.retry_backoff_ms <= 0.0) {
    obs::emit_event("task.retry", {{"attempt", std::to_string(attempt)}});
    return;
  }
  // FaultSpec::parse caps retry.max at 31, so the shift stays defined.
  const double backoff_ms =
      spec.retry_backoff_ms * static_cast<double>(1u << (attempt - 1));
  static obs::Histogram& backoff_hist =
      obs::MetricsRegistry::instance().histogram(
          "fault/backoff_ms",
          {0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
  backoff_hist.observe(backoff_ms);
  obs::emit_event("task.retry", {{"attempt", std::to_string(attempt)},
                                 {"backoff_ms", std::to_string(backoff_ms)}});
  sleep_ms(backoff_ms);
}

void attempt_failed(unsigned attempt, const std::string& error) {
  obs::emit_event("task.attempt_failed",
                  {{"attempt", std::to_string(attempt)}, {"error", error}});
}

void observe_attempts(unsigned attempts) {
  static obs::Histogram& attempts_hist =
      obs::MetricsRegistry::instance().histogram("fault/attempts",
                                                 {1, 2, 3, 4, 5, 6});
  attempts_hist.observe(static_cast<double>(attempts));
}

}  // namespace detail
}  // namespace simra::fault
