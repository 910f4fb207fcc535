#pragma once

#include <cstdint>

namespace simra::verify {

/// The whole-program (semantic) checks layered on top of the per-command
/// timing rules: dataflow/lifetime facts about row *contents* across the
/// slot timeline, and the PUD-reliability cross-check. Like RuleId, the
/// identifiers double as the intent vocabulary — a program that
/// deliberately triggers one (e.g. content destruction clobbers rows on
/// purpose) declares the CheckId it expects to fire.
enum class CheckId : std::uint8_t {
  /// RD whose row-buffer contents derive from a row never initialized in
  /// this program (only meaningful when the program is self-contained).
  kReadUninitialized,
  /// Charge-share APA (MAJ regime) over a group where some rows were
  /// staged in-program and others still hold stale pre-program data —
  /// the PULSAR under-replication bug: stale rows vote in the MAJ.
  kUnderReplicatedApa,
  /// Simultaneous activation driving a row never initialized in this
  /// program (self-contained programs only, like kReadUninitialized).
  kApaUninitializedRow,
  /// Full-row WR completely overwritten by a later full-row WR with no
  /// intervening observation of the data: the first write is removable.
  kDeadStore,
  /// Nominal-timing PRE;ACT pair that re-opens the row the bank already
  /// had open, with no state change the chip model can distinguish: the
  /// pair is removable.
  kRedundantReopen,
  /// APA row group outside the chip's profiled reliable set
  /// (pud::reliability_map cross-check).
  kUnreliableGroup,
};

inline constexpr const char* check_name(CheckId id) {
  switch (id) {
    case CheckId::kReadUninitialized:
      return "read-uninitialized";
    case CheckId::kUnderReplicatedApa:
      return "under-replicated-apa";
    case CheckId::kApaUninitializedRow:
      return "apa-uninitialized-row";
    case CheckId::kDeadStore:
      return "dead-store";
    case CheckId::kRedundantReopen:
      return "redundant-reopen";
    case CheckId::kUnreliableGroup:
      return "unreliable-group";
  }
  return "?";
}

}  // namespace simra::verify
