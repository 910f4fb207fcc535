#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bender/program.hpp"
#include "verify/rules.hpp"

namespace simra::verify {

/// Command-bus occupancy accounting for one program (paper §9
/// Limitation 2: the testbed issues at most one command per 1.5 ns slot,
/// so slot-level packing density bounds PUD throughput directly).
struct OccupancyStats {
  std::size_t commands = 0;        ///< issued commands.
  std::uint64_t extent_slots = 0;  ///< program extent incl. trailing pad.
  std::uint64_t span_slots = 0;    ///< first..last issued slot, inclusive.
  /// commands / extent_slots: the fraction of bus slots carrying a
  /// command over the program's scheduled lifetime (0 for empty).
  double utilization = 0.0;
  /// Minimum extent the same command sequence needs under the rule table
  /// (the optimizer's compacted extent). 0 until a caller that ran the
  /// optimizer fills it in; extent_slots - critical_path_slots is then
  /// the recoverable slack.
  std::uint64_t critical_path_slots = 0;
  /// Per-kind command counts, indexed by bender::CommandKind.
  std::array<std::size_t, 5> per_kind{};
  /// Per-bank issued commands (REF and PREA are rank-wide: excluded).
  std::map<int, std::size_t> per_bank;
  /// Bank-level parallelism histogram: the timeline is cut into fixed
  /// windows of `window_slots` (the table's tFAW window, or tRP+1 when no
  /// window rule exists) and entry k counts windows in which exactly k
  /// distinct banks issued a command. Entry 0 counts idle windows.
  std::vector<std::size_t> parallelism;
  std::uint64_t window_slots = 0;  ///< histogram window width.
};

/// Single pass over the slot timeline; pure accounting, no findings.
OccupancyStats occupancy(const bender::Program& program,
                         const RuleTable& table);

/// One request's command range on a fused batch program — the serving
/// layer's slot->request attribution table (see serve::FusedExtent).
struct RequestSlice {
  std::uint64_t request_id = 0;
  std::uint32_t tenant = 0;
  std::size_t first_command = 0;
  std::size_t command_count = 0;
};

/// Per-request share of one fused program's command bus: the request's
/// own command count, the slot span its commands occupy (first..last
/// issued slot, inclusive), and its fraction of the program's total
/// issued commands. Lets Limitation 2 accounting — and any finding with a
/// command_index — be broken down per request and tenant.
struct RequestOccupancy {
  RequestSlice slice;
  std::uint64_t span_slots = 0;
  double bus_share = 0.0;
};

/// Slices one program's timeline by the attribution table. Slices whose
/// range falls outside the program (e.g. an empty request) report zero.
std::vector<RequestOccupancy> occupancy_by_request(
    const bender::Program& program, const std::vector<RequestSlice>& slices);

/// Maps a finding's command index to the owning slice, or nullptr when no
/// slice covers it (e.g. a rank-wide REF appended outside any request).
const RequestSlice* slice_for_command(const std::vector<RequestSlice>& slices,
                                      std::size_t command_index);

/// Publishes one program's occupancy into the simra::obs registry
/// (counters `verify.occupancy.*`, histogram
/// `verify.occupancy.bank_parallelism`) and emits a `program_occupancy`
/// event tagged with the program name and its utilization. There is no
/// utilization gauge: programs lint concurrently on shard workers, so a
/// process-wide last value would depend on scheduling; the aggregate is
/// `verify.occupancy.commands / verify.occupancy.extent_slots`. No-ops
/// are the registry's business: cheap enough to call unconditionally.
void export_occupancy_metrics(const OccupancyStats& stats,
                              const std::string& program_name);

}  // namespace simra::verify
