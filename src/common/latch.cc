#include "common/latch.h"

#include <cstdio>
#include <cstdlib>

namespace orion {

const char* LatchRankName(LatchRank rank) {
  switch (rank) {
    case LatchRank::kUnranked:
      return "kUnranked";
    case LatchRank::kClusterDdl:
      return "kClusterDdl";
    case LatchRank::kReclaim:
      return "kReclaim";
    case LatchRank::kSchemaFence:
      return "kSchemaFence";
    case LatchRank::kSchemaLattice:
      return "kSchemaLattice";
    case LatchRank::kVersionRegistry:
      return "kVersionRegistry";
    case LatchRank::kEpochRegistry:
      return "kEpochRegistry";
    case LatchRank::kRecordTrim:
      return "kRecordTrim";
    case LatchRank::kCommit:
      return "kCommit";
    case LatchRank::kWal:
      return "kWal";
    case LatchRank::kTableShard:
      return "kTableShard";
    case LatchRank::kRecordChainShard:
      return "kRecordChainShard";
    case LatchRank::kListenerList:
      return "kListenerList";
    case LatchRank::kIndexList:
      return "kIndexList";
    case LatchRank::kIndexPostings:
      return "kIndexPostings";
    case LatchRank::kNotifications:
      return "kNotifications";
    case LatchRank::kSegmentTable:
      return "kSegmentTable";
    case LatchRank::kPageTracker:
      return "kPageTracker";
    case LatchRank::kLockTable:
      return "kLockTable";
    case LatchRank::kTraceFlight:
      return "kTraceFlight";
    case LatchRank::kRpcServer:
      return "kRpcServer";
    case LatchRank::kRpcPool:
      return "kRpcPool";
    case LatchRank::kMetrics:
      return "kMetrics";
  }
  return "LatchRank(?)";
}

}  // namespace orion

#ifdef ORION_LATCH_CHECK

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace orion {
namespace latch_check {
namespace {

struct Held {
  const void* latch;
  const char* name;
  LatchRank rank;
  int count;  // recursive re-entry depth
  std::source_location loc;
};

std::vector<Held>& HeldStack() {
  thread_local std::vector<Held> stack;
  return stack;
}

struct Site {
  const char* file;
  unsigned line;
};

/// The global lock-order graph: an edge `from -> to` means some thread
/// acquired latch-class `to` while holding latch-class `from`.  Keyed by
/// latch NAME, not instance, so an inversion between two runs' shard
/// instances of the same table still closes a cycle.  Guarded by its own
/// plain mutex — the checker's internals are exempt from the latch rules
/// they enforce.
struct OrderGraph {
  std::mutex mu;
  // (from, to) -> first-observed acquisition sites (held latch, new latch).
  std::map<std::pair<std::string, std::string>, std::pair<Site, Site>> edges;
};

OrderGraph& Graph() {
  static OrderGraph* graph = new OrderGraph();  // leaked: alive at exit
  return *graph;
}

[[noreturn]] void Die() { std::abort(); }

void PrintHeldStack() {
  std::fprintf(stderr, "  held by this thread (oldest first):\n");
  for (const Held& h : HeldStack()) {
    std::fprintf(stderr, "    %-28s rank %-18s x%d  acquired at %s:%u\n",
                 h.name, LatchRankName(h.rank), h.count, h.loc.file_name(),
                 h.loc.line());
  }
}

/// True if `to` already reaches `from` through recorded edges, i.e. adding
/// `from -> to` would close a cycle; fills `path` with the offending chain.
/// Caller holds Graph().mu.
bool Reaches(const std::string& to, const std::string& from,
             std::set<std::string>& visited, std::vector<std::string>& path) {
  if (to == from) {
    path.push_back(to);
    return true;
  }
  if (!visited.insert(to).second) {
    return false;
  }
  for (const auto& [edge, sites] : Graph().edges) {
    if (edge.first != to) {
      continue;
    }
    if (Reaches(edge.second, from, visited, path)) {
      path.insert(path.begin(), to);
      return true;
    }
  }
  return false;
}

void RecordEdge(const Held& held, const char* name,
                const std::source_location& loc) {
  if (std::string_view(held.name) == name) {
    return;  // same class (e.g. recursive registry re-entry): not an edge
  }
  OrderGraph& g = Graph();
  std::lock_guard<std::mutex> guard(g.mu);
  auto key = std::make_pair(std::string(held.name), std::string(name));
  if (g.edges.count(key) > 0) {
    return;  // known edge: already proven acyclic when first inserted
  }
  std::set<std::string> visited;
  std::vector<std::string> path;
  if (Reaches(key.second, key.first, visited, path)) {
    std::fprintf(stderr,
                 "orion latch check: latch order cycle closed by acquiring "
                 "'%s' at %s:%u while holding '%s' (acquired at %s:%u).\n"
                 "  existing path %s -> ... -> %s:\n",
                 name, loc.file_name(), loc.line(), held.name,
                 held.loc.file_name(), held.loc.line(), name, held.name);
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      auto it = g.edges.find(std::make_pair(path[i], path[i + 1]));
      if (it != g.edges.end()) {
        std::fprintf(stderr,
                     "    '%s' (held, %s:%u) -> '%s' (acquired, %s:%u)\n",
                     path[i].c_str(), it->second.first.file,
                     it->second.first.line, path[i + 1].c_str(),
                     it->second.second.file, it->second.second.line);
      }
    }
    PrintHeldStack();
    Die();
  }
  g.edges.emplace(std::move(key),
                  std::make_pair(Site{held.loc.file_name(), held.loc.line()},
                                 Site{loc.file_name(), loc.line()}));
}

}  // namespace

void OnAcquire(const void* latch, const char* name, LatchRank rank,
               bool recursive_ok, const std::source_location& loc) {
  std::vector<Held>& stack = HeldStack();
  for (Held& h : stack) {
    if (h.latch == latch) {
      if (recursive_ok) {
        ++h.count;
        return;
      }
      std::fprintf(stderr,
                   "orion latch check: re-entrant acquisition of "
                   "non-recursive latch '%s' at %s:%u (first acquired at "
                   "%s:%u) — self-deadlock.\n",
                   name, loc.file_name(), loc.line(), h.loc.file_name(),
                   h.loc.line());
      PrintHeldStack();
      Die();
    }
  }
  if (!stack.empty()) {
    // Rank rule: strictly ascending.  Unranked latches skip the rank
    // check (tracked in ROADMAP as debt) but still feed the order graph.
    const Held* max_held = nullptr;
    for (const Held& h : stack) {
      if (h.rank != LatchRank::kUnranked &&
          (max_held == nullptr || h.rank > max_held->rank)) {
        max_held = &h;
      }
    }
    if (rank != LatchRank::kUnranked && max_held != nullptr &&
        rank <= max_held->rank) {
      std::fprintf(
          stderr,
          "orion latch check: latch-rank inversion — acquiring '%s' "
          "(rank %s) at %s:%u while holding '%s' (rank %s, acquired at "
          "%s:%u).  Ranks must strictly ascend (DESIGN.md \u00a79).\n",
          name, LatchRankName(rank), loc.file_name(), loc.line(),
          max_held->name, LatchRankName(max_held->rank),
          max_held->loc.file_name(), max_held->loc.line());
      PrintHeldStack();
      Die();
    }
    RecordEdge(stack.back(), name, loc);
  }
  stack.push_back(Held{latch, name, rank, 1, loc});
}

void OnCondVarWake(const void* latch, const char* name, LatchRank rank,
                   const std::source_location& loc) {
  std::vector<Held>& stack = HeldStack();
  for (const Held& h : stack) {
    if (h.latch == latch) {
      // OnRelease popped this latch before the block, so finding it held at
      // wake means the checker's view of the wait is corrupt (e.g. a second
      // guard on the same latch, or a wait without the release hook).
      std::fprintf(stderr,
                   "orion latch check: condvar wake on '%s' at %s:%u but the "
                   "latch is still marked held (acquired at %s:%u) — the "
                   "wait did not release it.\n",
                   name, loc.file_name(), loc.line(), h.loc.file_name(),
                   h.loc.line());
      PrintHeldStack();
      Die();
    }
  }
  if (!stack.empty()) {
    // Re-validate the rank rule from scratch: the wake re-acquisition is a
    // fresh acquisition, ordered against whatever the thread now holds —
    // which may differ from what it held before the wait.
    const Held* max_held = nullptr;
    for (const Held& h : stack) {
      if (h.rank != LatchRank::kUnranked &&
          (max_held == nullptr || h.rank > max_held->rank)) {
        max_held = &h;
      }
    }
    if (rank != LatchRank::kUnranked && max_held != nullptr &&
        rank <= max_held->rank) {
      std::fprintf(
          stderr,
          "orion latch check: latch-rank inversion on condvar wake — "
          "re-acquiring '%s' (rank %s) at wait site %s:%u while holding "
          "'%s' (rank %s, acquired at %s:%u).  A latch acquired after the "
          "wait began must rank above the waited-on latch (DESIGN.md "
          "§9).\n",
          name, LatchRankName(rank), loc.file_name(), loc.line(),
          max_held->name, LatchRankName(max_held->rank),
          max_held->loc.file_name(), max_held->loc.line());
      PrintHeldStack();
      Die();
    }
    RecordEdge(stack.back(), name, loc);
  }
  stack.push_back(Held{latch, name, rank, 1, loc});
}

void OnRelease(const void* latch) {
  std::vector<Held>& stack = HeldStack();
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (it->latch == latch) {
      if (--it->count == 0) {
        stack.erase(std::next(it).base());
      }
      return;
    }
  }
  std::fprintf(stderr,
               "orion latch check: release of a latch this thread does not "
               "hold.\n");
  PrintHeldStack();
  Die();
}

void AssertNoneHeld(const char* where) {
  if (HeldStack().empty()) {
    return;
  }
  std::fprintf(stderr,
               "orion latch check: latch held across %s — a latch may "
               "never be held across a lock-manager wait (DESIGN.md \u00a76 "
               "rule 3).\n",
               where);
  PrintHeldStack();
  Die();
}

size_t HeldCount() { return HeldStack().size(); }

}  // namespace latch_check
}  // namespace orion

#endif  // ORION_LATCH_CHECK
