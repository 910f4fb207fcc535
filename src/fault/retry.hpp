#pragma once

#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "fault/spec.hpp"

namespace simra::obs {
class TaskBuffer;
}

namespace simra::fault {

/// What a unit of work's attempts added up to. The charz harness's
/// ChipReport and the serve layer's BatchOutcome extend it, so both
/// report retries with the same fields.
struct AttemptRecord {
  unsigned attempts = 0;
  bool succeeded = false;
  std::string error;  ///< last failure message; empty for a clean first try.
  FaultCounters faults;  ///< injected-fault tallies over all attempts.
  std::vector<std::string> trace;  ///< fault events (spec.trace runs only).

  /// Appends one injector's counters and trace.
  void add(const ChipInjector& injector);
  /// Copies attempts / succeeded / error onto a task buffer's metadata
  /// (the enclosing span of the unit's trace); no-op for nullptr.
  void annotate(obs::TaskBuffer* buffer) const;
};

/// Plan coordinates of one unit of work: (module, chip) key every
/// attempt's ChipInjector streams; `crash_ordinal` is the position that
/// `task.crash_tasks` and `task.fail` are drawn against.
struct AttemptKey {
  std::uint32_t module = 0;
  std::uint32_t chip = 0;
  std::uint64_t crash_ordinal = 0;
};

namespace detail {

/// The wait before retry `attempt` (>= 1): sleeps
/// `retry.backoff_ms * 2^(attempt - 1)` when a backoff is configured,
/// observing it in `fault/backoff_ms`, and emits one `task.retry` event.
void begin_retry(const FaultSpec& spec, unsigned attempt);
void sleep_ms(double ms);
/// Emits the `task.attempt_failed` event.
void attempt_failed(unsigned attempt, const std::string& error);
/// One `fault/attempts` observation per finished unit of work.
void observe_attempts(unsigned attempts);

inline void ignore_failure(unsigned, const std::string&) {}

}  // namespace detail

/// The resilience policy, shared by chip tasks and serve batches: up to
/// `spec.retry_max + 1` attempts with exponential backoff between them.
/// When `spec.injects()`, each attempt builds a ChipInjector keyed by
/// (key.module, key.chip, attempt) — plan coordinates, never scheduling —
/// and first draws the injected crash (failing the attempt with
/// `crash_message(attempt)`, built only then) and delay. Otherwise
/// `body(attempt, injector)` runs, with a null injector on clean runs;
/// any exception it throws fails the attempt with its message. Each
/// attempt's injector counters and trace are appended to `record` after
/// whatever the body appended, and each failure emits
/// `task.attempt_failed` and then calls `on_failed(attempt, error)`.
/// Emitted events land in the calling thread's obs::TaskScope. A clean
/// spec costs one body call, one histogram observation and nothing else.
template <typename CrashMessage, typename Body,
          typename OnFailed = decltype(&detail::ignore_failure)>
void run_attempts(const FaultSpec& spec, std::uint64_t fault_seed,
                  const AttemptKey& key, AttemptRecord& record,
                  CrashMessage&& crash_message, Body&& body,
                  OnFailed&& on_failed = &detail::ignore_failure) {
  const unsigned max_attempts = spec.retry_max + 1;
  for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
    record.attempts = attempt + 1;
    if (attempt > 0) detail::begin_retry(spec, attempt);
    std::optional<ChipInjector> injector;
    if (spec.injects())
      injector.emplace(spec, fault_seed, key.module, key.chip, attempt);
    bool failed = true;
    std::string error;
    try {
      if (injector && injector->task_crash(key.crash_ordinal))
        throw InjectedFault(crash_message(attempt));
      if (injector && injector->task_delay_ms() > 0.0)
        detail::sleep_ms(injector->task_delay_ms());
      body(attempt, injector ? &*injector : nullptr);
      failed = false;
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown exception";
    }
    if (injector) record.add(*injector);
    if (!failed) {
      record.succeeded = true;
      break;
    }
    record.error = std::move(error);
    detail::attempt_failed(attempt, record.error);
    on_failed(attempt, record.error);
  }
  detail::observe_attempts(record.attempts);
}

}  // namespace simra::fault
