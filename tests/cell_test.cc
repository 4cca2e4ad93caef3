// §11 root-affine multi-cell sharding: routing determinism, the
// single-cell fast path's equivalence with a standalone Database, 2PC
// commit/abort atomicity for cross-cell transactions under concurrent DML,
// and DDL fan-out against pinned per-cell readers.  TSan watches the
// interleavings; the Debug latch checker enforces kClusterDdl (80) below
// every per-cell coordinator.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cell/cluster.h"
#include "cell/cluster_session.h"
#include "cell/cluster_transaction.h"
#include "core/read_transaction.h"
#include "core/session.h"
#include "invariants.h"

namespace orion {
namespace {

using std::chrono::milliseconds;

SessionOptions ContendedOptions() {
  SessionOptions opts;
  opts.lock_timeout = milliseconds(250);
  opts.max_retries = 200;
  return opts;
}

/// The Part/Assembly schema used throughout, installed on every cell.
struct Fixture {
  explicit Fixture(Cluster& cluster) {
    part = *cluster.MakeClass(ClassSpec{
        .name = "Part",
        .attributes = {WeakAttr("N", "integer"), WeakAttr("Mate", "Part")}});
    assembly = *cluster.MakeClass(ClassSpec{
        .name = "Assembly",
        .attributes = {CompositeAttr("Parts", "Part", /*exclusive=*/true,
                                     /*dependent=*/true, /*is_set=*/true),
                       WeakAttr("Balance", "integer")}});
  }
  ClassId part, assembly;
};

TEST(CellRouting, NewRootsRoundRobinAndChildrenFollowParents) {
  Cluster cluster(4);
  Fixture fx(cluster);
  ClusterSession session(&cluster);

  // New roots land on cells 1,2,3,4,1,... deterministically.
  std::vector<Uid> roots;
  for (int i = 0; i < 8; ++i) {
    Uid made = kNilUid;
    ASSERT_TRUE(session
                    .Run([&](ClusterTransaction& txn) -> Status {
                      ORION_ASSIGN_OR_RETURN(made, txn.Make("Assembly"));
                      return Status::Ok();
                    })
                    .ok());
    roots.push_back(made);
    EXPECT_EQ(CellTagOf(made), static_cast<CellTag>(i % 4 + 1));
  }

  // A child made under a parent inherits the parent's cell — whichever
  // cell that is — so the hierarchy stays cell-local.
  for (Uid root : roots) {
    Uid child = kNilUid;
    ASSERT_TRUE(session
                    .Run([&](ClusterTransaction& txn) -> Status {
                      ORION_ASSIGN_OR_RETURN(
                          child, txn.Make("Part", {{root, "Parts"}},
                                          {{"N", Value::Integer(1)}}));
                      return Status::Ok();
                    })
                    .ok());
    EXPECT_EQ(CellTagOf(child), CellTagOf(root));
  }

  // Bottom-up assembly: a composite attribute referencing an existing
  // object routes the new parent into that object's cell.
  Uid part_in_3 = kNilUid;
  Uid parent_of_3 = kNilUid;
  ASSERT_TRUE(session
                  .Run([&](ClusterTransaction& txn) -> Status {
                    ORION_ASSIGN_OR_RETURN(
                        part_in_3, txn.Make("Part", {{roots[2], "Parts"}}));
                    return Status::Ok();
                  })
                  .ok());
  ASSERT_TRUE(
      session
          .Run([&](ClusterTransaction& txn) -> Status {
            ORION_RETURN_IF_ERROR(
                txn.RemoveComponent(part_in_3, roots[2], "Parts"));
            ORION_ASSIGN_OR_RETURN(
                parent_of_3,
                txn.Make("Assembly", {},
                         {{"Parts", Value::RefSet({part_in_3})}}));
            return Status::Ok();
          })
          .ok());
  EXPECT_EQ(CellTagOf(parent_of_3), CellTagOf(part_in_3));

  for (size_t t = 1; t <= cluster.size(); ++t) {
    ORION_EXPECT_CONSISTENT(cluster.cell(static_cast<CellTag>(t)).db());
  }
}

TEST(CellRouting, CompositeEdgesCannotCrossCellsButWeakRefsCan) {
  Cluster cluster(2);
  Fixture fx(cluster);
  ClusterSession session(&cluster);

  Uid root1 = kNilUid, root2 = kNilUid, stray = kNilUid;
  ASSERT_TRUE(session
                  .Run([&](ClusterTransaction& txn) -> Status {
                    ORION_ASSIGN_OR_RETURN(root1, txn.Make("Assembly"));
                    ORION_ASSIGN_OR_RETURN(root2, txn.Make("Assembly"));
                    ORION_ASSIGN_OR_RETURN(stray, txn.Make("Part"));
                    return Status::Ok();
                  })
                  .ok());
  ASSERT_NE(CellTagOf(root1), CellTagOf(root2));

  // Pick the root in the OTHER cell than `stray`.
  Uid foreign_root = CellTagOf(stray) == CellTagOf(root1) ? root2 : root1;
  Uid local_root = CellTagOf(stray) == CellTagOf(root1) ? root1 : root2;

  // Cross-cell composite attach: rejected before any cell is touched.
  {
    ClusterTransaction txn(&cluster);
    Status s = txn.MakeComponent(stray, foreign_root, "Parts");
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(txn.Abort().ok());
  }
  // Same-cell composite attach works.
  EXPECT_TRUE(session
                  .Run([&](ClusterTransaction& txn) {
                    return txn.MakeComponent(stray, local_root, "Parts");
                  })
                  .ok());

  // A weak reference across cells is a legal reference-by-uid edge; the
  // owning cell validates the foreign class against the replicated schema.
  Uid p1 = kNilUid, p2 = kNilUid;
  ASSERT_TRUE(session
                  .Run([&](ClusterTransaction& txn) -> Status {
                    ORION_ASSIGN_OR_RETURN(p1,
                                           txn.Make("Part", {{root1, "Parts"}}));
                    ORION_ASSIGN_OR_RETURN(p2,
                                           txn.Make("Part", {{root2, "Parts"}}));
                    return Status::Ok();
                  })
                  .ok());
  ASSERT_NE(CellTagOf(p1), CellTagOf(p2));
  EXPECT_TRUE(session
                  .Run([&](ClusterTransaction& txn) {
                    return txn.SetAttribute(p1, "Mate", Value::Ref(p2));
                  })
                  .ok());
  // And the domain check still fires for a foreign object of the wrong
  // class: Mate's domain is Part, root2 is an Assembly.
  Status wrong = session.Run([&](ClusterTransaction& txn) {
    return txn.SetAttribute(p1, "Mate", Value::Ref(foreign_root));
  });
  EXPECT_EQ(wrong.code(), StatusCode::kInvalidArgument);
}

// A 1-cell cluster is the standalone engine plus a tag bit: the same DML
// sequence yields the same cell-local uid sequence, the same query
// results, and every commit takes the single-cell fast path.
TEST(CellFastPath, OneCellClusterMatchesStandaloneDatabase) {
  Cluster cluster(1);
  Fixture fx(cluster);
  Database solo;
  ClassId solo_part = *solo.MakeClass(ClassSpec{
      .name = "Part",
      .attributes = {WeakAttr("N", "integer"), WeakAttr("Mate", "Part")}});
  ClassId solo_assembly = *solo.MakeClass(ClassSpec{
      .name = "Assembly",
      .attributes = {CompositeAttr("Parts", "Part", true, true, true),
                     WeakAttr("Balance", "integer")}});
  ASSERT_EQ(fx.part, solo_part);
  ASSERT_EQ(fx.assembly, solo_assembly);

  ClusterSession cs(&cluster);
  Session ss(&solo);

  std::vector<uint64_t> cluster_locals, solo_locals;
  for (int i = 0; i < 5; ++i) {
    Uid cu = kNilUid, su = kNilUid;
    ASSERT_TRUE(cs.Run([&](ClusterTransaction& txn) -> Status {
                    ORION_ASSIGN_OR_RETURN(
                        cu, txn.Make("Assembly", {},
                                     {{"Balance", Value::Integer(i)}}));
                    ORION_ASSIGN_OR_RETURN(
                        Uid child, txn.Make("Part", {{cu, "Parts"}},
                                            {{"N", Value::Integer(i)}}));
                    (void)child;  // routing covered above; value checked below
                    return Status::Ok();
                  }).ok());
    ASSERT_TRUE(ss.Run([&](TransactionContext& txn) -> Status {
                    ORION_ASSIGN_OR_RETURN(
                        su, txn.Make("Assembly", {},
                                     {{"Balance", Value::Integer(i)}}));
                    ORION_ASSIGN_OR_RETURN(
                        Uid child, txn.Make("Part", {{su, "Parts"}},
                                            {{"N", Value::Integer(i)}}));
                    (void)child;  // symmetric with the cluster run
                    return Status::Ok();
                  }).ok());
    EXPECT_EQ(CellTagOf(cu), 1);
    EXPECT_EQ(CellTagOf(su), 0);
    cluster_locals.push_back(CellLocalOf(cu));
    solo_locals.push_back(CellLocalOf(su));
  }
  EXPECT_EQ(cluster_locals, solo_locals);

  // Same associative results modulo the tag bit.
  auto cluster_hits =
      *cluster.Select(fx.part, Compare("N", CompareOp::kGe, Value::Integer(3)));
  auto solo_hits = *Select(solo.objects(), solo_part,
                           Compare("N", CompareOp::kGe, Value::Integer(3)));
  ASSERT_EQ(cluster_hits.size(), solo_hits.size());
  for (size_t i = 0; i < cluster_hits.size(); ++i) {
    EXPECT_EQ(CellLocalOf(cluster_hits[i]), CellLocalOf(solo_hits[i]));
  }

  // Every cluster commit above stayed on the fast path.
  EXPECT_GT(cluster.cluster_metrics().txn_single->Value(), 0u);
  EXPECT_EQ(cluster.cluster_metrics().txn_cross->Value(), 0u);
  ORION_EXPECT_CONSISTENT(cluster.cell(1).db());
  ORION_EXPECT_CONSISTENT(solo);
}

// Cross-cell 2PC: concurrent transfers between accounts in different cells
// conserve the total balance, an aborted cross-cell transaction leaves no
// trace in any cell, and the 2PC metrics show the protocol ran.
TEST(CellTwoPhaseCommit, CrossCellTransfersAreAtomicUnderConcurrency) {
  constexpr int kCells = 4;
  constexpr int kAccounts = 8;  // 2 per cell
  constexpr int kThreads = 4;
  constexpr int kTransfersPerThread = 25;
  constexpr int64_t kInitial = 1000;

  Cluster cluster(kCells);
  Fixture fx(cluster);
  ClusterSession setup(&cluster);

  std::vector<Uid> accounts;
  for (int i = 0; i < kAccounts; ++i) {
    Uid made = kNilUid;
    ASSERT_TRUE(setup
                    .Run([&](ClusterTransaction& txn) -> Status {
                      ORION_ASSIGN_OR_RETURN(
                          made,
                          txn.Make("Assembly", {},
                                   {{"Balance", Value::Integer(kInitial)}}));
                      return Status::Ok();
                    })
                    .ok());
    accounts.push_back(made);
  }

  std::atomic<int> hard_failures{0};
  std::atomic<uint64_t> aborted_on_purpose{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ClusterSession session(&cluster, ContendedOptions());
      uint64_t rng = 0x9e3779b97f4a7c15ULL * (t + 1);
      auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
      };
      for (int i = 0; i < kTransfersPerThread; ++i) {
        const Uid from = accounts[next() % kAccounts];
        const Uid to = accounts[next() % kAccounts];
        if (from == to) {
          continue;
        }
        const int64_t amount = static_cast<int64_t>(next() % 10) + 1;
        const bool sabotage = next() % 5 == 0;
        Status s = session.Run([&](ClusterTransaction& txn) -> Status {
          ORION_ASSIGN_OR_RETURN(const Object* f, txn.Read(from));
          const int64_t fb = f->Get("Balance").integer();
          ORION_ASSIGN_OR_RETURN(const Object* g, txn.Read(to));
          const int64_t tb = g->Get("Balance").integer();
          ORION_RETURN_IF_ERROR(txn.SetAttribute(
              from, "Balance", Value::Integer(fb - amount)));
          ORION_RETURN_IF_ERROR(
              txn.SetAttribute(to, "Balance", Value::Integer(tb + amount)));
          if (sabotage) {
            // Forces the abort path AFTER both cells journaled writes; the
            // rollback must erase the partial transfer from both.
            return Status::InvalidArgument("sabotaged transfer");
          }
          return Status::Ok();
        });
        if (sabotage) {
          if (s.code() == StatusCode::kInvalidArgument) {
            aborted_on_purpose.fetch_add(1);
          } else {
            hard_failures.fetch_add(1);
          }
        } else if (!s.ok()) {
          hard_failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(hard_failures.load(), 0);
  EXPECT_GT(aborted_on_purpose.load(), 0u);

  // Conservation: committed transfers moved money, aborted ones vanished.
  int64_t total = 0;
  ClusterSession check(&cluster);
  ASSERT_TRUE(check
                  .Run([&](ClusterTransaction& txn) -> Status {
                    for (Uid acct : accounts) {
                      ORION_ASSIGN_OR_RETURN(const Object* o, txn.Read(acct));
                      total += o->Get("Balance").integer();
                    }
                    return Status::Ok();
                  })
                  .ok());
  EXPECT_EQ(total, kInitial * kAccounts);

  // The workload genuinely exercised 2PC (accounts span 4 cells).
  EXPECT_GT(cluster.cluster_metrics().txn_cross->Value(), 0u);
  EXPECT_GT(cluster.cluster_metrics().txn_cross_aborts->Value() +
                aborted_on_purpose.load(),
            0u);
  for (size_t t = 1; t <= cluster.size(); ++t) {
    Database& db = cluster.cell(static_cast<CellTag>(t)).db();
    ORION_EXPECT_CONSISTENT(db);
    EXPECT_EQ(db.locks().grant_count(), 0u);
  }
}

// ClusterSession runs through the same retry loop as Session, so its
// outcomes show in the cluster's session.* counters: under try-lock
// contention on one hot object, Cluster::Stats() must count exactly the
// retries and commits the sessions report.
TEST(CellSession, ContendedRetriesAndCommitsCountIntoClusterStats) {
  constexpr int kThreads = 4;
  constexpr int kIncrementsPerThread = 20;

  Cluster cluster(2);
  Fixture fx(cluster);
  ClusterSession setup(&cluster);
  Uid hot = kNilUid;
  ASSERT_TRUE(setup
                  .Run([&](ClusterTransaction& txn) -> Status {
                    ORION_ASSIGN_OR_RETURN(
                        hot, txn.Make("Assembly", {},
                                      {{"Balance", Value::Integer(0)}}));
                    return Status::Ok();
                  })
                  .ok());

  SessionOptions opts;
  opts.lock_timeout = milliseconds(0);  // every conflict goes to the loop
  opts.max_retries = 10000;
  opts.backoff_base = std::chrono::microseconds(20);
  opts.backoff_cap = std::chrono::microseconds(2000);
  std::vector<SessionStats> stats(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ClusterSession session(&cluster, opts);
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        Status s = session.Run([&](ClusterTransaction& txn) -> Status {
          ORION_ASSIGN_OR_RETURN(const Object* o, txn.Read(hot));
          const int64_t balance = o->Get("Balance").integer();
          // Hold the S lock long enough that the others collide with it.
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          return txn.SetAttribute(hot, "Balance",
                                  Value::Integer(balance + 1));
        });
        if (!s.ok()) {
          failures.fetch_add(1);
        }
      }
      stats[t] = session.stats();
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  ASSERT_EQ(failures.load(), 0);

  uint64_t retries = 0;
  uint64_t commits = setup.stats().commits;
  for (const SessionStats& st : stats) {
    retries += st.retries;
    commits += st.commits;
  }
  EXPECT_GT(retries, 0u);
  EXPECT_EQ(commits, 1u + kThreads * kIncrementsPerThread);
  const Cluster::StatsSnapshot snap = cluster.Stats();
  EXPECT_EQ(snap.counters.at("session.retries"), retries);
  EXPECT_EQ(snap.counters.at("session.commits"), commits);
  EXPECT_EQ(snap.counters.at("session.failures"), 0u);
  EXPECT_GT(snap.counters.at("session.backoff_us"), 0u);

  ReadTransaction r(cluster.CellOf(hot));
  EXPECT_EQ(r.Get(hot).value()->Get("Balance").integer(),
            kThreads * kIncrementsPerThread);
}

// The cluster mirror of MvccTest.RetryBudgetExhaustionReturnsTimeout: a
// ClusterSession that cannot make progress gives up with kTimeout (the
// retry budget), not with the per-attempt kLockTimeout.
TEST(CellSession, RetryBudgetExhaustionReturnsTimeout) {
  Cluster cluster(2);
  Fixture fx(cluster);
  ClusterSession setup(&cluster);
  Uid root = kNilUid;
  ASSERT_TRUE(setup
                  .Run([&](ClusterTransaction& txn) -> Status {
                    ORION_ASSIGN_OR_RETURN(
                        root, txn.Make("Assembly", {},
                                       {{"Balance", Value::Integer(0)}}));
                    return Status::Ok();
                  })
                  .ok());

  ClusterTransaction blocker(&cluster);
  ASSERT_TRUE(blocker.SetAttribute(root, "Balance", Value::Integer(1)).ok());

  SessionOptions opts;
  opts.lock_timeout = milliseconds(0);  // try-lock
  opts.max_retries = 2;
  opts.backoff_base = std::chrono::microseconds(1);
  opts.backoff_cap = std::chrono::microseconds(10);
  ClusterSession session(&cluster, opts);
  Status s = session.Run([&](ClusterTransaction& txn) -> Status {
    return txn.SetAttribute(root, "Balance", Value::Integer(2));
  });
  EXPECT_EQ(s.code(), StatusCode::kTimeout) << s.ToString();
  EXPECT_EQ(session.stats().retries, 2u);
  EXPECT_EQ(session.stats().failures, 1u);
  const Cluster::StatsSnapshot snap = cluster.Stats();
  EXPECT_EQ(snap.counters.at("session.retries"), 2u);
  EXPECT_EQ(snap.counters.at("session.failures"), 1u);

  ASSERT_TRUE(blocker.Abort().ok());
  ReadTransaction r(cluster.CellOf(root));
  EXPECT_EQ(r.Get(root).value()->Get("Balance").integer(), 0);
}

// DDL fan-out vs pinned readers: a destructive schema change applies to
// every cell under each cell's §10 fence, while a reader pinned before the
// DDL keeps resolving the old schema and old values at its timestamp.
TEST(CellDdl, FanOutAppliesEverywhereWhilePinnedReadersSeeOldState) {
  Cluster cluster(2);
  Fixture fx(cluster);
  ClusterSession session(&cluster);

  // One root + child per cell, with a value under the doomed attribute.
  std::vector<Uid> roots, children;
  for (int i = 0; i < 2; ++i) {
    Uid root = kNilUid, child = kNilUid;
    ASSERT_TRUE(session
                    .Run([&](ClusterTransaction& txn) -> Status {
                      ORION_ASSIGN_OR_RETURN(root, txn.Make("Assembly"));
                      ORION_ASSIGN_OR_RETURN(
                          child, txn.Make("Part", {{root, "Parts"}},
                                          {{"N", Value::Integer(7)}}));
                      return Status::Ok();
                    })
                    .ok());
    roots.push_back(root);
    children.push_back(child);
  }
  ASSERT_NE(CellTagOf(roots[0]), CellTagOf(roots[1]));

  // Pin a reader in each cell before the DDL.
  std::vector<ReadTransaction> pinned;
  for (Uid root : roots) {
    pinned.emplace_back(ReadTransaction(cluster.CellOf(root)));
  }

  // Drop the composite attribute cluster-wide.  Dependent-exclusive
  // children die in EVERY cell (the Deletion Rule runs per cell).
  ASSERT_TRUE(cluster.DropAttribute(fx.assembly, "Parts").ok());
  for (size_t i = 0; i < children.size(); ++i) {
    EXPECT_FALSE(cluster.CellOf(children[i])->objects().Exists(children[i]));
  }

  // The pinned readers still see the pre-DDL world at their timestamps.
  for (size_t i = 0; i < pinned.size(); ++i) {
    auto old_child = pinned[i].Get(children[i]);
    ASSERT_TRUE(old_child.ok());
    EXPECT_EQ((*old_child)->Get("N").integer(), 7);
  }
  pinned.clear();

  // Schema stayed replicated: both cells agree the attribute is gone, and
  // the next DDL assigns the same ClassId everywhere.
  for (size_t t = 1; t <= cluster.size(); ++t) {
    Database& db = cluster.cell(static_cast<CellTag>(t)).db();
    EXPECT_FALSE(
        db.schema().ResolveAttribute(fx.assembly, "Parts").ok());
  }
  auto widget = cluster.MakeClass(
      ClassSpec{.name = "Widget", .attributes = {WeakAttr("W", "integer")}});
  ASSERT_TRUE(widget.ok());
  for (size_t t = 1; t <= cluster.size(); ++t) {
    Database& db = cluster.cell(static_cast<CellTag>(t)).db();
    EXPECT_EQ(*db.schema().FindClass("Widget"), *widget);
  }
}

// Scatter-gather: extents and associative queries merge across cells, and
// SelectNear prunes to the owning cell's extent only.
TEST(CellQueries, ScatterGatherMergesAndSelectNearPrunes) {
  Cluster cluster(4);
  Fixture fx(cluster);
  ClusterSession session(&cluster);

  std::vector<Uid> roots;
  for (int i = 0; i < 4; ++i) {
    Uid root = kNilUid;
    ASSERT_TRUE(session
                    .Run([&](ClusterTransaction& txn) -> Status {
                      ORION_ASSIGN_OR_RETURN(root, txn.Make("Assembly"));
                      for (int j = 0; j < 3; ++j) {
                        ORION_ASSIGN_OR_RETURN(
                            Uid c, txn.Make("Part", {{root, "Parts"}},
                                            {{"N", Value::Integer(j)}}));
                        (void)c;  // reachable through ComponentsOf below
                      }
                      return Status::Ok();
                    })
                    .ok());
    roots.push_back(root);
  }

  // Every cell contributed to the merged extent.
  std::vector<Uid> all_parts = cluster.InstancesOf(fx.part);
  EXPECT_EQ(all_parts.size(), 12u);

  // Fan-out select sees matches in all cells; SelectNear only its cell.
  auto expr = Compare("N", CompareOp::kEq, Value::Integer(2));
  auto global = *cluster.Select(fx.part, expr);
  EXPECT_EQ(global.size(), 4u);
  auto near = *cluster.SelectNear(roots[0], fx.part, expr);
  EXPECT_EQ(near.size(), 1u);
  EXPECT_EQ(CellTagOf(near[0]), CellTagOf(roots[0]));

  // Navigation through the cluster facade.
  auto kids = *cluster.ComponentsOf(roots[1]);
  EXPECT_EQ(kids.size(), 3u);
  for (Uid k : kids) {
    EXPECT_EQ(CellTagOf(k), CellTagOf(roots[1]));
    auto parents = *cluster.ParentsOf(k);
    ASSERT_EQ(parents.size(), 1u);
    EXPECT_EQ(parents[0], roots[1]);
    auto ancestors = *cluster.AncestorsOf(k);
    ASSERT_EQ(ancestors.size(), 1u);
    EXPECT_EQ(ancestors[0], roots[1]);
  }
}

}  // namespace
}  // namespace orion
