#include "verify/optimizer.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "common/env.hpp"

namespace simra::verify {
namespace {

using bender::CommandKind;
using bender::TimedCommand;

constexpr int kRankKey = -1;  ///< rank-scope rules keep a single anchor.
constexpr int kAllKey = -2;   ///< rank-wide command under a same-bank rule.

/// One remembered `first`-of-a-rule command: its original slot (gaps are
/// judged against the input schedule) and its re-packed slot (bounds are
/// emitted against the output schedule).
struct Anchor {
  std::uint64_t orig = 0;
  std::uint64_t new_slot = 0;
};

bool is_prea(const TimedCommand& c) {
  return c.kind == CommandKind::kPre && c.a10;
}

bool rank_wide(const TimedCommand& c) {
  return c.kind == CommandKind::kRef || is_prea(c);
}

/// Kind matching with the analyzer's implicit-precharge aliasing: RDA/WRA
/// count as PRE *anchors* (the bank closes, later ACTs owe tRP) but are
/// never constrained as PRE `second`s (the device delays the internal
/// precharge to satisfy tRAS/tWR itself).
bool matches_kind(const TimedCommand& c, CommandKind kind, bool as_anchor) {
  if (c.kind == kind) return true;
  return as_anchor && kind == CommandKind::kPre && c.a10 &&
         (c.kind == CommandKind::kRd || c.kind == CommandKind::kWr);
}

/// ASAP re-packing with per-command lower bounds. Every constraint comes
/// in two flavors keyed on the *original* gap: gaps that satisfied the
/// rule minimum become lower bounds (slack may shrink to the minimum);
/// gaps below it — the intended-violation regimes where the short
/// interval is the computation — become rigid equalities. Any conflict
/// between a rigid target and other bounds sets `failed` and the caller
/// returns the input schedule unchanged.
struct Compactor {
  const RuleTable& table;
  std::vector<std::map<int, Anchor>> anchors;  ///< per pairwise rule.
  std::vector<std::deque<Anchor>> windows;     ///< per window rule.
  /// Last precharge-like command per bank (kAllKey for PREA): REF only
  /// finishes a precharge that has aged tRP, a semantic threshold with no
  /// rule-table entry, so it is enforced here with the same two flavors.
  std::map<int, Anchor> pre_anchors;
  bool failed = false;

  explicit Compactor(const RuleTable& t)
      : table(t), anchors(t.pairwise.size()), windows(t.windows.size()) {}

  static const Anchor* later_of(const std::map<int, Anchor>& m, int bank) {
    const Anchor* best = nullptr;
    for (int key : {bank, kAllKey}) {
      auto it = m.find(key);
      if (it != m.end() && (best == nullptr || it->second.orig > best->orig))
        best = &it->second;
    }
    return best;
  }

  void constrain(std::uint64_t orig_slot, std::uint64_t& lb,
                 std::optional<std::uint64_t>& rigid, const Anchor& a,
                 std::uint64_t min_slots) {
    const std::uint64_t gap = orig_slot - a.orig;
    if (gap >= min_slots) {
      lb = std::max(lb, a.new_slot + min_slots);
      return;
    }
    const std::uint64_t target = a.new_slot + gap;
    if (rigid && *rigid != target) failed = true;
    rigid = target;
  }

  /// No in-program anchor: the previous program run on the same chip may
  /// end with one right at the boundary. new_slot >= min(orig, min) keeps
  /// the cross-program gap no worse than the rule minimum, and — because
  /// ASAP never moves a command later — preserves a sub-threshold head
  /// gap exactly (lb == orig forces new == orig).
  static void head_margin(std::uint64_t orig_slot, std::uint64_t& lb,
                          std::uint64_t min_slots) {
    lb = std::max(lb, std::min(orig_slot, min_slots));
  }

  std::vector<std::uint64_t> schedule(
      const std::vector<TimedCommand>& cmds) {
    std::vector<std::uint64_t> out(cmds.size(), 0);
    for (std::size_t i = 0; i < cmds.size() && !failed; ++i) {
      const TimedCommand& c = cmds[i];
      std::uint64_t lb = i == 0 ? 0 : out[i - 1] + 1;
      std::optional<std::uint64_t> rigid;

      for (std::size_t r = 0; r < table.pairwise.size(); ++r) {
        const RuleSpec& rule = table.pairwise[r];
        if (!matches_kind(c, rule.second, /*as_anchor=*/false)) continue;
        if (rule.scope == Scope::kRank) {
          auto it = anchors[r].find(kRankKey);
          if (it != anchors[r].end()) {
            constrain(c.slot, lb, rigid, it->second, rule.min_slots);
          } else {
            head_margin(c.slot, lb, rule.min_slots);
          }
        } else if (rank_wide(c)) {
          // PREA closes every bank: it owes the rule to all of them.
          if (anchors[r].empty()) {
            head_margin(c.slot, lb, rule.min_slots);
          } else {
            for (const auto& [key, a] : anchors[r])
              constrain(c.slot, lb, rigid, a, rule.min_slots);
          }
        } else {
          const Anchor* a = later_of(anchors[r], static_cast<int>(c.bank));
          if (a != nullptr) {
            constrain(c.slot, lb, rigid, *a, rule.min_slots);
          } else {
            head_margin(c.slot, lb, rule.min_slots);
          }
        }
      }

      for (std::size_t w = 0; w < table.windows.size(); ++w) {
        const WindowRuleSpec& rule = table.windows[w];
        if (c.kind != rule.kind) continue;
        const auto& dq = windows[w];
        if (dq.size() >= rule.max_count) {
          constrain(c.slot, lb, rigid, dq[dq.size() - rule.max_count],
                    rule.window_slots);
        } else {
          head_margin(c.slot, lb, rule.window_slots);
        }
      }

      if (c.kind == CommandKind::kRef) {
        if (pre_anchors.empty()) {
          head_margin(c.slot, lb, table.trp_slots);
        } else {
          for (const auto& [key, a] : pre_anchors)
            constrain(c.slot, lb, rigid, a, table.trp_slots);
        }
      }

      if (rigid && *rigid < lb) failed = true;
      if (failed) break;
      const std::uint64_t slot = rigid ? *rigid : lb;
      out[i] = slot;

      for (std::size_t r = 0; r < table.pairwise.size(); ++r) {
        const RuleSpec& rule = table.pairwise[r];
        if (!matches_kind(c, rule.first, /*as_anchor=*/true)) continue;
        const int key = rule.scope == Scope::kRank
                            ? kRankKey
                            : (rank_wide(c) ? kAllKey
                                            : static_cast<int>(c.bank));
        anchors[r][key] = Anchor{c.slot, slot};
      }
      for (std::size_t w = 0; w < table.windows.size(); ++w) {
        if (c.kind != table.windows[w].kind) continue;
        auto& dq = windows[w];
        dq.push_back(Anchor{c.slot, slot});
        if (dq.size() > table.windows[w].max_count) dq.pop_front();
      }
      if (matches_kind(c, CommandKind::kPre, /*as_anchor=*/true)) {
        pre_anchors[is_prea(c) ? kAllKey : static_cast<int>(c.bank)] =
            Anchor{c.slot, slot};
      }
    }
    return out;
  }

  /// The compacted extent: last slot + 1, pushed out so that every anchor
  /// a future program could pair with keeps a tail gap of at least
  /// min(original tail gap, rule minimum) to the program boundary.
  /// Sub-threshold tail gaps must be preserved *exactly* (like rigid
  /// in-program gaps); if the extent lands elsewhere, the compactor bails.
  std::uint64_t tail_extent(std::uint64_t orig_extent,
                            std::uint64_t last_new_slot) {
    std::uint64_t ext = last_new_slot + 1;
    std::vector<std::uint64_t> exact;
    auto tail = [&](const Anchor& a, std::uint64_t min_slots) {
      const std::uint64_t end_gap = orig_extent - a.orig;
      if (end_gap >= min_slots) {
        ext = std::max(ext, a.new_slot + min_slots);
      } else {
        exact.push_back(a.new_slot + end_gap);
      }
    };
    for (std::size_t r = 0; r < table.pairwise.size(); ++r) {
      for (const auto& [key, a] : anchors[r])
        tail(a, table.pairwise[r].min_slots);
    }
    for (std::size_t w = 0; w < table.windows.size(); ++w) {
      for (const Anchor& a : windows[w]) tail(a, table.windows[w].window_slots);
    }
    for (const auto& [key, a] : pre_anchors) tail(a, table.trp_slots);
    for (std::uint64_t target : exact) ext = std::max(ext, target);
    for (std::uint64_t target : exact) {
      if (target != ext) {
        failed = true;
        return orig_extent;
      }
    }
    return ext;
  }
};

Optimized compact_commands(const bender::Program& original,
                           std::vector<TimedCommand> cmds,
                           std::uint64_t orig_extent,
                           const RuleTable& table) {
  Optimized out{bender::Program::rescheduled(original, cmds, orig_extent),
                {}};
  out.stats.extent_before = orig_extent;
  out.stats.extent_after = orig_extent;
  if (cmds.empty()) return out;
  Compactor compactor(table);
  const std::vector<std::uint64_t> slots = compactor.schedule(cmds);
  if (compactor.failed) return out;
  const std::uint64_t ext = compactor.tail_extent(orig_extent, slots.back());
  if (compactor.failed) return out;
  for (std::size_t i = 0; i < cmds.size(); ++i) cmds[i].slot = slots[i];
  out.program =
      bender::Program::rescheduled(original, std::move(cmds), ext);
  out.stats.extent_after = ext;
  out.stats.compacted = true;
  return out;
}

}  // namespace

Optimized compact(const bender::Program& program, const RuleTable& table) {
  return compact_commands(program, program.commands(),
                          program.extent_slots(), table);
}

std::uint64_t compacted_extent_slots(const bender::Program& program,
                                     const RuleTable& table) {
  return compact(program, table).stats.extent_after;
}

Optimized optimize(const bender::Program& program, const ProgramContext& ctx,
                   const DataflowResult& df) {
  std::set<std::size_t> removed(df.dead_stores.begin(),
                                df.dead_stores.end());
  for (const auto& [pre, act] : df.redundant_reopens) {
    removed.insert(pre);
    removed.insert(act);
  }
  std::vector<TimedCommand> kept;
  kept.reserve(program.commands().size() - removed.size());
  for (std::size_t i = 0; i < program.commands().size(); ++i) {
    if (removed.find(i) == removed.end())
      kept.push_back(program.commands()[i]);
  }
  Optimized out = compact_commands(program, std::move(kept),
                                   program.extent_slots(), *ctx.table);
  out.stats.removed_commands = removed.size();
  return out;
}

Optimized optimize(const bender::Program& program,
                   const ProgramContext& ctx) {
  return optimize(program, ctx, dataflow(program, ctx));
}

OptMode parse_opt_mode(std::string_view text) {
  if (text.empty() || text == "off" || text == "0" || text == "none") {
    return OptMode::kOff;
  }
  if (text == "lint" || text == "1" || text == "warn") return OptMode::kLint;
  if (text == "on" || text == "2" || text == "opt") return OptMode::kOn;
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    std::fprintf(stderr,
                 "simra: unknown SIMRA_OPT value '%.*s'; assuming 'lint'\n",
                 static_cast<int>(text.size()), text.data());
  }
  return OptMode::kLint;
}

namespace {

// -1 = not yet resolved from the environment; test overrides win.
std::atomic<int> g_opt_mode{-1};

}  // namespace

OptMode global_opt_mode() {
  int cached = g_opt_mode.load(std::memory_order_acquire);
  if (cached >= 0) return static_cast<OptMode>(cached);
  const OptMode mode = parse_opt_mode(env_string("SIMRA_OPT", ""));
  g_opt_mode.store(static_cast<int>(mode), std::memory_order_release);
  return mode;
}

void set_global_opt_mode(std::optional<OptMode> mode) {
  g_opt_mode.store(mode ? static_cast<int>(*mode) : -1,
                   std::memory_order_release);
}

}  // namespace simra::verify
