// simra_perfbench: runs one benchmark workload and prints, as its last
// line, one JSON object with the run's stamp, output digests, checks,
// operation tally and metrics. perfbench/run.py builds this binary,
// compares the digests with perfbench/pins.json and prints the final
// result.
//
//   simra_perfbench --workload sweep_smra_fleet|serve_batch|serve_open
//                   [--seed N] [--seconds S] [--trace 0|1] [--threads N]
//                   [--drop-ticket]
//
// An untraced sweep_smra_fleet run makes one sweep and ignores --seconds;
// run.py repeats it. `ready_ns` in the result is the CLOCK_MONOTONIC time
// at which the sweep's first timed operation started.

#include <cpuid.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>

#include "charz/runner.hpp"
#include "common.hpp"
#include "dram/kernels.hpp"

namespace {

using namespace perfbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                &regs[i * 4 + 2], &regs[i * 4 + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const auto first = model.find_first_not_of(' ');
  const auto last = model.find_last_not_of(' ');
  return first == std::string::npos ? "unknown"
                                    : model.substr(first, last - first + 1);
}

struct WorkloadEnv {
  const char* name;
  unsigned threads;
  const char* verify;
  const char* opt;
};

constexpr WorkloadEnv kWorkloads[] = {
    {"sweep_smra_fleet", 2, "off", "off"},
    {"serve_batch", 2, "strict", "on"},
    {"serve_open", 1, "off", "off"},
};

int usage(const char* why) {
  std::cerr << "simra_perfbench: " << why << "\n"
            << "usage: simra_perfbench --workload "
               "sweep_smra_fleet|serve_batch|serve_open [--seed N] "
               "[--seconds S] [--trace 0|1] [--threads N] [--drop-ticket]\n";
  return 2;
}

/// Pins every knob the library reads from the environment to the
/// workload's setting, so a caller's shell cannot change what is measured.
void configure_environment(const WorkloadEnv& w, unsigned threads) {
  for (const char* name :
       {"SIMRA_FAULT_SEED", "SIMRA_FAULT_SPEC", "SIMRA_FLEET", "SIMRA_FULL",
        "SIMRA_OBS_DIR", "SIMRA_SLO_TARGET", "SIMRA_SLO_WINDOW",
        "SIMRA_SNAPSHOT", "SIMRA_SNAPSHOT_EVERY", "SIMRA_SNAPSHOT_MIN_MS",
        "SIMRA_TRACE", "SIMRA_TRACE_BUF"})
    unsetenv(name);
  setenv("SIMRA_THREADS", std::to_string(threads ? threads : w.threads).c_str(),
         1);
  setenv("SIMRA_VERIFY", w.verify, 1);
  setenv("SIMRA_OPT", w.opt, 1);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) return {};
      return argv[++i];
    };
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      const std::string v = value();
      options.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return usage("bad --seed");
    } else if (arg == "--seconds") {
      const std::string v = value();
      options.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || options.seconds <= 0)
        return usage("bad --seconds");
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") return usage("bad --trace");
      options.trace = v == "1";
    } else if (arg == "--threads") {
      const std::string v = value();
      options.threads =
          static_cast<unsigned>(std::strtoul(v.c_str(), &end, 10));
      if (v.empty() || *end != '\0' || options.threads == 0)
        return usage("bad --threads");
    } else if (arg == "--drop-ticket") {
      options.drop_ticket = true;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const WorkloadEnv* workload = nullptr;
  for (const WorkloadEnv& w : kWorkloads)
    if (options.workload == w.name) workload = &w;
  if (workload == nullptr) return usage("unknown or missing --workload");
  configure_environment(*workload, options.threads);

  Result result;
  try {
    if (options.workload == "sweep_smra_fleet")
      run_sweep(options, result);
    else if (options.workload == "serve_batch")
      run_serve_batch(options, result);
    else
      run_serve_open(options, result);
  } catch (const std::exception& e) {
    std::cerr << "simra_perfbench: " << options.workload
              << " failed: " << e.what() << "\n";
    return 1;
  }
  // Workloads record the peak after their first unit of work; this is the
  // fallback for traced runs, where peak_rss_mb is not reported.
  result.metrics.emplace("peak_rss_mb", peak_rss_mb());

  for (const std::string& note : result.notes)
    std::cout << "# " << note << "\n";
  for (const Check& c : result.checks)
    if (!c.passed)
      std::cout << "# CHECK FAILED " << c.name << ": " << c.detail << "\n";

  std::ostringstream os;
  os << "{\"workload\": " << json_string(options.workload)
     << ", \"seed\": " << options.seed
     << ", \"trace\": " << (options.trace ? 1 : 0) << ", \"stamp\": {"
     << "\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"cpu_model\": " << json_string(cpu_model())
     << ", \"compiler\": " << json_string(SIMRA_PERFBENCH_COMPILER)
     << ", \"build_type\": " << json_string(SIMRA_PERFBENCH_BUILD_TYPE)
     << ", \"simd\": "
     << json_string(simra::dram::kernels::simd_name(
            simra::dram::kernels::active_simd()))
     << ", \"simra_threads\": " << simra::charz::harness_threads()
     << ", \"simra_verify\": " << json_string(workload->verify)
     << ", \"simra_opt\": " << json_string(workload->opt)
     << "}, \"digests\": {";
  bool first = true;
  for (const auto& [name, digest] : result.digests) {
    os << (first ? "" : ", ") << json_string(name) << ": "
       << json_string(digest);
    first = false;
  }
  os << "}, \"checks\": {";
  first = true;
  for (const Check& c : result.checks) {
    os << (first ? "" : ", ") << json_string(c.name) << ": "
       << (c.passed ? "true" : "false");
    first = false;
  }
  os << "}, \"ready_ns\": " << result.ready_ns
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  first = true;
  for (const auto& [name, value] : result.metrics) {
    os << (first ? "" : ", ") << json_string(name) << ": "
       << json_number(value);
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return 0;
}
