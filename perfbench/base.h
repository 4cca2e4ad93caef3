#ifndef PERFBENCH_BASE_H_
#define PERFBENCH_BASE_H_

// The object base every workload runs on, after the generic generator of
// the OCB benchmark: composite hierarchies with a depth, a fan-out and a
// share ratio.  Each root (class Assembly) holds kFanout level-1
// Components, each Component holds kFanout Leaves, all through exclusive
// dependent attributes (`Parts`, `Leaves`).  `share_pct` percent of the
// Components are instead held through the shared dependent attribute
// `Shared`, by their own root and by a second root (the §2 extension) —
// Topology Rule 3 forbids mixing an exclusive and a shared parent, so a
// shared Component has no exclusive one.
//
// The file also holds the correctness gates that fail a run: the paper's
// invariants checked on the final state through the public API, the
// benchmark-side membership model, and the durability check.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "core/read_transaction.h"

namespace perfbench {

inline constexpr int kFanout = 4;
inline constexpr int kObjectsPerRoot = 1 + kFanout + kFanout * kFanout;

inline const char* const kRoot = "Assembly";
inline const char* const kMid = "Component";
inline const char* const kLeaf = "Leaf";
inline const char* const kWeight = "W";  // the attribute updates write

/// The schema: the three classes, each with the integer attribute `W`.
std::vector<orion::ClassSpec> Schema();

/// The seeded shape of a base: which Components are shared, and with
/// which second root.  Second roots have the same index parity as the
/// first, so that on a 2-cell cluster (round-robin root placement) both
/// holders live in one cell — composite edges never cross cells.
struct Plan {
  int roots = 0;
  std::vector<int> second;  // per Component (root*kFanout + k): root or -1
  Plan(int roots, uint32_t share_pct, uint64_t seed);
};

/// The generated objects, by position in the hierarchy.
struct Base {
  std::vector<orion::Uid> roots;
  std::vector<orion::Uid> mids;    // mids[root*kFanout + k]
  std::vector<orion::Uid> leaves;  // leaves[mid*kFanout + j]
  /// Indices of the Components under each root (own and shared-in).
  std::vector<std::vector<int>> mids_of_root;
  /// Object `i` in [0, kObjectsPerRoot) of root `r`'s own hierarchy: the
  /// root, then its Components, then their Leaves.
  orion::Uid Member(int r, int i) const {
    if (i == 0) {
      return roots[r];
    }
    if (i <= kFanout) {
      return mids[r * kFanout + i - 1];
    }
    return leaves[r * kFanout * kFanout + i - 1 - kFanout];
  }
  size_t objects() const { return roots.size() + mids.size() + leaves.size(); }
};

/// Builds `plan` through the engine's session layer.  `run(fn)` executes
/// `fn` as one transaction (`Session::Run` or `ClusterSession::Run`); `Txn`
/// is the transaction type it passes.  Roots come first, kRootBatch to a
/// transaction and in index order (so a cluster places them round-robin),
/// then one transaction per root makes its Components and Leaves.
template <class Txn, class RunFn>
orion::Status Populate(const Plan& plan, RunFn&& run, Base* out) {
  constexpr int kRootBatch = 64;
  out->roots.assign(plan.roots, orion::Uid{});
  out->mids.assign(plan.roots * kFanout, orion::Uid{});
  out->leaves.assign(plan.roots * kFanout * kFanout, orion::Uid{});
  out->mids_of_root.assign(plan.roots, {});
  for (int first = 0; first < plan.roots; first += kRootBatch) {
    const int last = std::min(plan.roots, first + kRootBatch);
    ORION_RETURN_IF_ERROR(run([&](Txn& txn) -> orion::Status {
      for (int r = first; r < last; ++r) {
        ORION_ASSIGN_OR_RETURN(
            out->roots[r],
            txn.Make(kRoot, {}, {{kWeight, orion::Value::Integer(0)}}));
      }
      return orion::Status::Ok();
    }));
  }
  for (int r = 0; r < plan.roots; ++r) {
    ORION_RETURN_IF_ERROR(run([&](Txn& txn) -> orion::Status {
      for (int k = 0; k < kFanout; ++k) {
        const int m = r * kFanout + k;
        std::vector<orion::ParentBinding> parents;
        if (plan.second[m] < 0) {
          parents = {{out->roots[r], "Parts"}};
        } else {
          parents = {{out->roots[r], "Shared"},
                     {out->roots[plan.second[m]], "Shared"}};
        }
        ORION_ASSIGN_OR_RETURN(
            out->mids[m],
            txn.Make(kMid, parents, {{kWeight, orion::Value::Integer(0)}}));
        for (int j = 0; j < kFanout; ++j) {
          ORION_ASSIGN_OR_RETURN(
              out->leaves[m * kFanout + j],
              txn.Make(kLeaf, {{out->mids[m], "Leaves"}},
                       {{kWeight, orion::Value::Integer(0)}}));
        }
      }
      return orion::Status::Ok();
    }));
  }
  for (int m = 0; m < plan.roots * kFanout; ++m) {
    out->mids_of_root[m / kFanout].push_back(m);
    if (plan.second[m] >= 0) {
      out->mids_of_root[plan.second[m]].push_back(m);
    }
  }
  return orion::Status::Ok();
}

/// Leaves a client made during the run and has not deleted, by Component.
using ExtraLeaves = std::map<int, std::vector<orion::Uid>>;

/// The expected `ComponentsOf(root)` of every root: the base hierarchy plus
/// every extra leaf under its Components.  Sorted.
std::vector<std::vector<orion::Uid>> ExpectedMembership(
    const Base& base, const ExtraLeaves& extra);

/// Forward composite edges (from attribute values) and reverse references
/// (from each child's reverse-reference list), as (parent, child, attribute
/// index, exclusive) tuples.
using Edge = std::tuple<uint64_t, uint64_t, int, bool>;
struct Graph {
  std::vector<uint64_t> objects;
  std::vector<Edge> forward;
  std::vector<Edge> reverse;
};

/// Reads every object of the three classes at `rt`'s snapshot.
Graph ExtractGraph(const orion::ReadTransaction& rt,
                   const std::vector<orion::ClassId>& classes);

/// The invariant gates.  Each appends one line per violation it finds (at
/// most a few) and returns whether it passed.
bool GateReverseMatchesForward(const Graph& g, std::vector<std::string>* out);
bool GateOneExclusiveParent(const Graph& g, std::vector<std::string>* out);
bool GateAcyclic(const Graph& g, std::vector<std::string>* out);
/// `actual(root)` returns ComponentsOf(root), sorted.
bool GateMembership(
    const Base& base, const std::vector<std::vector<orion::Uid>>& expected,
    const std::function<std::vector<orion::Uid>(orion::Uid)>& actual,
    std::vector<std::string>* out);
/// Every acknowledged write reads back as its last acknowledged value;
/// `read(uid)` returns the recovered `W`, or -1 when the object is missing.
bool GateDurable(const std::unordered_map<uint64_t, int64_t>& acked,
                 const std::function<int64_t(orion::Uid)>& read,
                 std::vector<std::string>* out);

/// Runs every in-process gate over `db`'s final state.
void CheckFinalState(orion::Database& db, const Base& base,
                     const ExtraLeaves& extra,
                     std::vector<std::string>* failures);

/// Builds a small base, checks that every gate passes on it, then corrupts
/// the expected side of each gate in turn and checks that the gate fires.
/// Returns the gates that failed to behave; prints one line per gate.
std::vector<std::string> SelfTest(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_BASE_H_
