#include "verify/occupancy.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace simra::verify {

OccupancyStats occupancy(const bender::Program& program,
                         const RuleTable& table) {
  OccupancyStats stats;
  stats.extent_slots = program.extent_slots();
  stats.window_slots = table.trp_slots + 1;
  for (const WindowRuleSpec& w : table.windows)
    stats.window_slots = std::max(stats.window_slots, w.window_slots);

  const auto& commands = program.commands();
  stats.commands = commands.size();
  if (commands.empty()) return stats;
  stats.span_slots = commands.back().slot - commands.front().slot + 1;
  if (stats.extent_slots > 0)
    stats.utilization = static_cast<double>(stats.commands) /
                        static_cast<double>(stats.extent_slots);

  const std::uint64_t windows =
      (stats.extent_slots + stats.window_slots - 1) / stats.window_slots;
  std::vector<std::set<int>> banks_in_window(windows);
  for (const bender::TimedCommand& cmd : commands) {
    ++stats.per_kind[static_cast<std::size_t>(cmd.kind)];
    const bool rank_wide =
        cmd.kind == bender::CommandKind::kRef ||
        (cmd.kind == bender::CommandKind::kPre && cmd.a10);
    if (!rank_wide) {
      const int bank = static_cast<int>(cmd.bank);
      ++stats.per_bank[bank];
      banks_in_window[cmd.slot / stats.window_slots].insert(bank);
    }
  }
  std::size_t max_banks = 0;
  for (const auto& set : banks_in_window)
    max_banks = std::max(max_banks, set.size());
  stats.parallelism.assign(max_banks + 1, 0);
  for (const auto& set : banks_in_window) ++stats.parallelism[set.size()];
  return stats;
}

std::vector<RequestOccupancy> occupancy_by_request(
    const bender::Program& program, const std::vector<RequestSlice>& slices) {
  const auto& commands = program.commands();
  const double total =
      commands.empty() ? 0.0 : static_cast<double>(commands.size());
  std::vector<RequestOccupancy> out;
  out.reserve(slices.size());
  for (const RequestSlice& slice : slices) {
    RequestOccupancy ro;
    ro.slice = slice;
    const std::size_t first = slice.first_command;
    const std::size_t count = slice.command_count;
    if (count > 0 && first < commands.size() &&
        first + count <= commands.size()) {
      ro.span_slots =
          commands[first + count - 1].slot - commands[first].slot + 1;
      if (total > 0.0)
        ro.bus_share = static_cast<double>(count) / total;
    }
    out.push_back(ro);
  }
  return out;
}

const RequestSlice* slice_for_command(const std::vector<RequestSlice>& slices,
                                      std::size_t command_index) {
  for (const RequestSlice& slice : slices)
    if (command_index >= slice.first_command &&
        command_index < slice.first_command + slice.command_count)
      return &slice;
  return nullptr;
}

void export_occupancy_metrics(const OccupancyStats& stats,
                              const std::string& program_name) {
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("verify.occupancy.programs").add_count(1);
  registry.counter("verify.occupancy.commands").add_count(stats.commands);
  registry.counter("verify.occupancy.extent_slots")
      .add_count(stats.extent_slots);
  static const std::vector<double> kBankBounds = {0, 1, 2, 4, 8, 16};
  auto& parallelism =
      registry.histogram("verify.occupancy.bank_parallelism", kBankBounds);
  for (std::size_t k = 0; k < stats.parallelism.size(); ++k) {
    if (stats.parallelism[k] > 0)
      parallelism.observe(static_cast<double>(k), stats.parallelism[k]);
  }

  std::ostringstream utilization;
  utilization.precision(6);
  utilization << stats.utilization;
  obs::emit_event(
      "program_occupancy",
      {{"program", program_name},
       {"commands", std::to_string(stats.commands)},
       {"extent_slots", std::to_string(stats.extent_slots)},
       {"span_slots", std::to_string(stats.span_slots)},
       {"critical_path_slots", std::to_string(stats.critical_path_slots)},
       {"utilization", utilization.str()}});
}

}  // namespace simra::verify
