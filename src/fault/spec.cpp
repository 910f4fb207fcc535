#include "fault/spec.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "common/env.hpp"

namespace simra::fault {

namespace {

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t");
  return s.substr(first, last - first + 1);
}

double parse_double(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0')
    throw std::invalid_argument("fault spec: bad value for " + key + ": '" +
                                value + "'");
  return parsed;
}

double parse_rate(const std::string& key, const std::string& value) {
  const double rate = parse_double(key, value);
  if (rate < 0.0 || rate > 1.0)
    throw std::invalid_argument("fault spec: " + key +
                                " must be a probability in [0, 1], got '" +
                                value + "'");
  return rate;
}

double parse_nonnegative(const std::string& key, const std::string& value) {
  const double parsed = parse_double(key, value);
  if (parsed < 0.0)
    throw std::invalid_argument("fault spec: " + key + " must be >= 0, got '" +
                                value + "'");
  return parsed;
}

std::uint64_t parse_uint(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || value.find('-') != std::string::npos)
    throw std::invalid_argument("fault spec: bad integer for " + key + ": '" +
                                value + "'");
  return parsed;
}

std::vector<std::uint64_t> parse_uint_list(const std::string& key,
                                           const std::string& value) {
  std::vector<std::uint64_t> out;
  std::size_t start = 0;
  while (start <= value.size()) {
    const std::size_t colon = value.find(':', start);
    const std::string item = trim(
        colon == std::string::npos ? value.substr(start)
                                   : value.substr(start, colon - start));
    if (!item.empty()) out.push_back(parse_uint(key, item));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::size_t FaultSpec::effective_quarantine_budget() const noexcept {
  if (quarantine_budget_set) return quarantine_budget;
  return injects() ? std::numeric_limits<std::size_t>::max() : 0;
}

bool FaultSpec::crashes_task(std::uint64_t task_ordinal) const noexcept {
  return std::binary_search(task_crash_tasks.begin(), task_crash_tasks.end(),
                            task_ordinal);
}

FaultSpec FaultSpec::parse(const std::string& spec) {
  FaultSpec out;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string pair = trim(
        comma == std::string::npos ? spec.substr(start)
                                   : spec.substr(start, comma - start));
    if (comma == std::string::npos && pair.empty()) break;
    if (!pair.empty()) {
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos)
        throw std::invalid_argument("fault spec: expected key=value, got '" +
                                    pair + "'");
      const std::string key = trim(pair.substr(0, eq));
      const std::string value = trim(pair.substr(eq + 1));
      if (key == "transport.bitflip") {
        out.transport_bitflip = parse_rate(key, value);
      } else if (key == "transport.drop") {
        out.transport_drop = parse_rate(key, value);
      } else if (key == "transport.dup") {
        out.transport_dup = parse_rate(key, value);
      } else if (key == "transport.jitter") {
        out.transport_jitter = parse_rate(key, value);
      } else if (key == "chip.stuck") {
        out.chip_stuck = parse_rate(key, value);
      } else if (key == "chip.retention") {
        out.chip_retention = parse_rate(key, value);
      } else if (key == "chip.disturb") {
        out.chip_disturb = parse_rate(key, value);
      } else if (key == "task.fail") {
        out.task_fail = parse_rate(key, value);
      } else if (key == "task.delay_ms") {
        out.task_delay_ms = parse_nonnegative(key, value);
      } else if (key == "task.crash_tasks") {
        out.task_crash_tasks = parse_uint_list(key, value);
      } else if (key == "retry.max") {
        const std::uint64_t retries = parse_uint(key, value);
        if (retries > kMaxRetries)
          throw std::invalid_argument(
              "fault spec: " + key + " must be at most " +
              std::to_string(kMaxRetries) + ", got '" + value + "'");
        out.retry_max = static_cast<unsigned>(retries);
      } else if (key == "retry.backoff_ms") {
        out.retry_backoff_ms = parse_nonnegative(key, value);
      } else if (key == "quarantine.budget") {
        out.quarantine_budget = static_cast<std::size_t>(parse_uint(key, value));
        out.quarantine_budget_set = true;
      } else if (key == "trace") {
        out.trace = value == "1" || value == "true" || value == "on";
      } else {
        throw std::invalid_argument("fault spec: unknown key '" + key + "'");
      }
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

FaultSpec FaultSpec::from_env() {
  const char* raw = std::getenv("SIMRA_FAULT_SPEC");
  return raw == nullptr ? FaultSpec{} : parse(raw);
}

std::uint64_t fault_seed_from_env() {
  return static_cast<std::uint64_t>(env_int("SIMRA_FAULT_SEED", 0x5EED7));
}

}  // namespace simra::fault
