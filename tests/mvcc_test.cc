// MVCC read-path tests: visibility edges of the copy-on-write record
// chains (repeatable reads, delete closures, the version registry, index
// postings, extents), epoch-based chain trimming, and — under TSan via
// -DORION_SANITIZE=thread — lock-free readers racing committing writers.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/session.h"
#include "core/snapshot.h"
#include "core/transaction.h"
#include "invariants.h"

namespace orion {
namespace {

using std::chrono::milliseconds;

constexpr int kThreads = 4;
constexpr int kItersPerThread = 40;

SessionOptions ContendedOptions() {
  SessionOptions opts;
  opts.lock_timeout = milliseconds(250);
  opts.max_retries = 64;
  return opts;
}

class MvccTest : public ::testing::Test {
 protected:
  MvccTest() {
    part_ = *db_.MakeClass(ClassSpec{
        .name = "Part", .attributes = {WeakAttr("N", "integer")}});
    node_ = *db_.MakeClass(ClassSpec{
        .name = "Node",
        .attributes = {CompositeAttr("Parts", "Part", /*exclusive=*/true,
                                     /*dependent=*/true, /*is_set=*/true),
                       WeakAttr("Counter", "integer"),
                       WeakAttr("Tag", "integer")}});
    doc_ = *db_.MakeClass(ClassSpec{.name = "Doc", .versionable = true});
  }

  /// Commits one SetAttribute through the full session path.
  void CommitSet(Uid uid, const std::string& attr, int64_t v) {
    Session session(&db_, ContendedOptions());
    Status s = session.Run([&](TransactionContext& txn) -> Status {
      return txn.SetAttribute(uid, attr, Value::Integer(v));
    });
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  Database db_;
  ClassId node_, part_, doc_;
};

// A reader opened before a committed write keeps seeing the old state on
// every re-read; a reader opened after sees the new state.
TEST_F(MvccTest, RepeatableReadUnderCommittedWriter) {
  Uid root = *db_.Make("Node", {}, {{"Counter", Value::Integer(0)}});

  Session session(&db_);
  ReadTransaction before = session.BeginReadOnly();
  ASSERT_TRUE(before.Get(root).ok());
  EXPECT_EQ((*before.Get(root))->Get("Counter").integer(), 0);

  CommitSet(root, "Counter", 42);

  // Still 0, twice (repeatable), while the live view already moved on.
  EXPECT_EQ((*before.Get(root))->Get("Counter").integer(), 0);
  EXPECT_EQ((*before.Get(root))->Get("Counter").integer(), 0);
  EXPECT_EQ(db_.objects().Peek(root)->Get("Counter").integer(), 42);

  ReadTransaction after = session.BeginReadOnly();
  EXPECT_EQ((*after.Get(root))->Get("Counter").integer(), 42);
  EXPECT_GT(after.read_ts(), before.read_ts());

  // The MVCC path never touched the lock manager.
  EXPECT_EQ(db_.locks().grant_count(), 0u);
  ORION_EXPECT_CONSISTENT(db_);
}

// A reader whose snapshot predates a delete-commit still traverses the
// whole composite closure; a post-delete reader sees none of it.
TEST_F(MvccTest, ReaderSeesClosureAcrossDeleteCommit) {
  Uid root = *db_.Make("Node", {}, {{"Counter", Value::Integer(0)}});
  std::vector<Uid> parts;
  for (int i = 0; i < 3; ++i) {
    parts.push_back(
        *db_.Make("Part", {{root, "Parts"}}, {{"N", Value::Integer(i)}}));
  }

  Session session(&db_, ContendedOptions());
  ReadTransaction pinned = session.BeginReadOnly();

  Status s = session.Run(
      [&](TransactionContext& txn) -> Status { return txn.Delete(root); });
  ASSERT_TRUE(s.ok()) << s.ToString();

  // Live: the dependent-exclusive closure is gone.
  EXPECT_FALSE(db_.objects().Exists(root));
  for (Uid p : parts) {
    EXPECT_FALSE(db_.objects().Exists(p));
  }

  // Pinned: root, every part, and the component edges are all still there.
  EXPECT_TRUE(pinned.Exists(root));
  auto components = pinned.ComponentsOf(root);
  ASSERT_TRUE(components.ok());
  EXPECT_EQ(components->size(), parts.size());
  for (Uid p : parts) {
    EXPECT_TRUE(pinned.Exists(p));
    auto is_component = pinned.ComponentOf(p, root);
    ASSERT_TRUE(is_component.ok());
    EXPECT_TRUE(*is_component);
  }

  ReadTransaction later = session.BeginReadOnly();
  EXPECT_FALSE(later.Exists(root));
  EXPECT_TRUE(later.InstancesOf(part_).empty());
  ORION_EXPECT_CONSISTENT(db_);
}

// An aborted transaction publishes nothing: the watermark does not move
// and no reader — opened before or after — can observe the buffered write.
TEST_F(MvccTest, AbortPublishesNothing) {
  Uid root = *db_.Make("Node", {}, {{"Counter", Value::Integer(7)}});
  const uint64_t wm_before = db_.records().watermark();

  {
    TransactionContext txn(&db_);
    ASSERT_TRUE(txn.SetAttribute(root, "Counter", Value::Integer(99)).ok());
    ASSERT_TRUE(
        txn.Make("Part", {{root, "Parts"}}, {{"N", Value::Integer(1)}}).ok());
    ASSERT_TRUE(txn.Abort().ok());
  }

  EXPECT_EQ(db_.records().watermark(), wm_before);
  Session session(&db_);
  ReadTransaction r = session.BeginReadOnly();
  EXPECT_EQ((*r.Get(root))->Get("Counter").integer(), 7);
  EXPECT_TRUE(r.InstancesOf(part_).empty());
  EXPECT_EQ(db_.objects().Peek(root)->Get("Counter").integer(), 7);
  ORION_EXPECT_CONSISTENT(db_);
}

// All writes of one transaction become visible atomically, under ONE
// timestamp: no snapshot can see the first write without the second.
TEST_F(MvccTest, CommitIsAtomicAcrossObjects) {
  Uid a = *db_.Make("Node", {}, {{"Counter", Value::Integer(0)}});
  Uid b = *db_.Make("Node", {}, {{"Counter", Value::Integer(0)}});

  Session session(&db_, ContendedOptions());
  Status s = session.Run([&](TransactionContext& txn) -> Status {
    ORION_RETURN_IF_ERROR(txn.SetAttribute(a, "Counter", Value::Integer(5)));
    return txn.SetAttribute(b, "Counter", Value::Integer(5));
  });
  ASSERT_TRUE(s.ok()) << s.ToString();

  // Both records carry the same commit timestamp, so any read timestamp
  // sees either both writes or neither.
  const uint64_t ts = db_.records().watermark();
  EXPECT_EQ(db_.records().GetAt(a, ts)->Get("Counter").integer(), 5);
  EXPECT_EQ(db_.records().GetAt(b, ts)->Get("Counter").integer(), 5);
  EXPECT_EQ(db_.records().GetAt(a, ts - 1)->Get("Counter").integer(), 0);
  EXPECT_EQ(db_.records().GetAt(b, ts - 1)->Get("Counter").integer(), 0);
}

// CV-4X: a reader's view of the version registry is frozen at its read
// timestamp even while new versions are derived and committed.
TEST_F(MvccTest, RegistryReadsAtTimestamp) {
  Uid v1 = *db_.Make("Doc");
  const Object* v1_obj = db_.objects().Peek(v1);
  ASSERT_NE(v1_obj, nullptr);
  const Uid generic = v1_obj->generic();

  Session session(&db_, ContendedOptions());
  ReadTransaction pinned = session.BeginReadOnly();

  Status s = session.Run([&](TransactionContext& txn) -> Status {
    return txn.Derive(v1).status();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();

  auto old_info = pinned.VersionsOf(generic);
  ASSERT_TRUE(old_info.ok());
  EXPECT_EQ(old_info->first.size(), 1u);
  EXPECT_EQ(old_info->first[0], v1);

  ReadTransaction later = session.BeginReadOnly();
  auto new_info = later.VersionsOf(generic);
  ASSERT_TRUE(new_info.ok());
  EXPECT_EQ(new_info->first.size(), 2u);
  ORION_EXPECT_CONSISTENT(db_);
}

// The versioned index postings only ever reflect committed state: an open
// transaction's buffered write is invisible to SelectAt / snapshot Select,
// and becomes visible (to new snapshots only) at commit.
TEST_F(MvccTest, IndexNeverExposesUncommittedWrites) {
  ASSERT_TRUE(db_.indexes().CreateIndex(part_, "N").ok());
  Uid p = *db_.Make("Part", {}, {{"N", Value::Integer(1)}});

  auto eq = [](int64_t v) {
    return Compare("N", CompareOp::kEq, Value::Integer(v));
  };

  Session session(&db_);
  {
    TransactionContext txn(&db_);
    ASSERT_TRUE(txn.SetAttribute(p, "N", Value::Integer(99)).ok());

    // While the transaction is open, a snapshot query through the index
    // must not surface the uncommitted 99 — and must still find the 1.
    ReadTransaction r = session.BeginReadOnly();
    SelectStats stats;
    auto hot = SelectAt(db_.records(), db_.schema(), part_, eq(99),
                        &db_.indexes(), r.read_ts(), &stats);
    ASSERT_TRUE(hot.ok());
    EXPECT_TRUE(hot->empty());
    EXPECT_TRUE(stats.used_index);
    auto old = r.Select(part_, eq(1));
    ASSERT_TRUE(old.ok());
    ASSERT_EQ(old->size(), 1u);
    EXPECT_EQ((*old)[0], p);

    ASSERT_TRUE(txn.Commit().ok());
    // The pre-commit snapshot STILL does not see it (repeatable).
    auto still = r.Select(part_, eq(99));
    ASSERT_TRUE(still.ok());
    EXPECT_TRUE(still->empty());
  }

  ReadTransaction after = session.BeginReadOnly();
  auto hit = after.Select(part_, eq(99));
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->size(), 1u);
  EXPECT_EQ((*hit)[0], p);
  EXPECT_TRUE(after.Select(part_, eq(1))->empty());
  ORION_EXPECT_CONSISTENT(db_);
}

// Regression: index creation seeds versioned postings with add_ts = 0, so
// a reader pinned BEFORE the index existed still gets a complete candidate
// set — even when the newest committed record for the matching value
// postdates the pin (the seed must not adopt that record's commit
// timestamp as the posting's add_ts, or LookupAt silently drops the uid).
TEST_F(MvccTest, IndexSeededPostingsServePreexistingReaders) {
  Uid p = *db_.Make("Part", {}, {{"N", Value::Integer(7)}});

  Session session(&db_, ContendedOptions());
  ReadTransaction pinned = session.BeginReadOnly();

  // Re-commit the same value after the pin: the chain's newest N == 7
  // record now carries a commit timestamp the pinned snapshot cannot see.
  CommitSet(p, "N", 9);
  CommitSet(p, "N", 7);

  ASSERT_TRUE(db_.indexes().CreateIndex(part_, "N").ok());

  SelectStats stats;
  auto hit = SelectAt(db_.records(), db_.schema(), part_,
                      Compare("N", CompareOp::kEq, Value::Integer(7)),
                      &db_.indexes(), pinned.read_ts(), &stats);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(stats.used_index);
  ASSERT_EQ(hit->size(), 1u);
  EXPECT_EQ((*hit)[0], p);

  // Seeding at 0 makes old values index-visible everywhere; re-verification
  // against the snapshot still filters states the pin never saw.
  EXPECT_TRUE(pinned
                  .Select(part_,
                          Compare("N", CompareOp::kEq, Value::Integer(9)))
                  ->empty());
  ORION_EXPECT_CONSISTENT(db_);
}

// Class extents are versioned too: a snapshot's extent is the set of
// instances committed at its timestamp, direct and deep.
TEST_F(MvccTest, ExtentVisibility) {
  Uid p1 = *db_.Make("Part", {}, {{"N", Value::Integer(1)}});

  Session session(&db_, ContendedOptions());
  ReadTransaction r1 = session.BeginReadOnly();

  Uid p2 = *db_.Make("Part", {}, {{"N", Value::Integer(2)}});

  EXPECT_EQ(r1.InstancesOf(part_), std::vector<Uid>{p1});
  ReadTransaction r2 = session.BeginReadOnly();
  EXPECT_EQ(r2.InstancesOf(part_), (std::vector<Uid>{p1, p2}));
  EXPECT_EQ(r2.InstancesOfDeep(part_), (std::vector<Uid>{p1, p2}));

  Status s = session.Run(
      [&](TransactionContext& txn) -> Status { return txn.Delete(p1); });
  ASSERT_TRUE(s.ok()) << s.ToString();

  EXPECT_EQ(r1.InstancesOf(part_), std::vector<Uid>{p1});
  EXPECT_EQ(r2.InstancesOf(part_), (std::vector<Uid>{p1, p2}));
  ReadTransaction r3 = session.BeginReadOnly();
  EXPECT_EQ(r3.InstancesOf(part_), std::vector<Uid>{p2});
  ORION_EXPECT_CONSISTENT(db_);
}

// The epoch reclaimer trims history below the minimum active read
// timestamp: with no readers, chains collapse to one record; a pinned
// reader holds its history alive (and correct) until it closes.
TEST_F(MvccTest, TrimBoundsChainsAndRespectsPinnedReaders) {
  Uid p = *db_.Make("Part", {}, {{"N", Value::Integer(0)}});
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(
        db_.objects().SetAttribute(p, "N", Value::Integer(i)).ok());
  }
  EXPECT_GT(db_.records().record_count(), db_.records().chain_count());

  {
    Session session(&db_);
    ReadTransaction pinned = session.BeginReadOnly();
    const int64_t seen = (*pinned.Get(p))->Get("N").integer();
    EXPECT_EQ(seen, 20);

    for (int i = 21; i <= 30; ++i) {
      ASSERT_TRUE(
          db_.objects().SetAttribute(p, "N", Value::Integer(i)).ok());
    }
    const uint64_t min = db_.ReclaimOnce();
    EXPECT_LE(min, pinned.read_ts());
    // The pinned snapshot survived the trim intact.
    EXPECT_EQ((*pinned.Get(p))->Get("N").integer(), seen);
  }

  // No readers left: one more pass collapses every chain to its newest
  // record.
  (void)db_.ReclaimOnce();
  EXPECT_EQ(db_.records().record_count(), db_.records().chain_count());
  EXPECT_EQ(db_.objects().Peek(p)->Get("N").integer(), 30);

  // A trimmed delete leaves no chain at all.
  Session session(&db_);
  Status s = session.Run(
      [&](TransactionContext& txn) -> Status { return txn.Delete(p); });
  ASSERT_TRUE(s.ok()) << s.ToString();
  (void)db_.ReclaimOnce();
  ReadTransaction r = session.BeginReadOnly();
  EXPECT_FALSE(r.Exists(p));
  ORION_EXPECT_CONSISTENT(db_);
}

// A chain that a pinned reader keeps from collapsing stays on the trim
// queue across passes, so the first pass after the reader closes trims it
// even though nothing was published in between.
TEST_F(MvccTest, PinnedChainStaysQueuedAndTrimsAfterRelease) {
  Uid p = *db_.Make("Part", {}, {{"N", Value::Integer(0)}});
  Session session(&db_);
  {
    ReadTransaction pinned = session.BeginReadOnly();
    for (int i = 1; i <= 5; ++i) {
      ASSERT_TRUE(db_.objects().SetAttribute(p, "N", Value::Integer(i)).ok());
    }
    const Database::StatsSnapshot base = db_.Stats();
    for (int pass = 0; pass < 3; ++pass) {
      (void)db_.ReclaimOnce();
      EXPECT_EQ((*pinned.Get(p))->Get("N").integer(), 0);
      EXPECT_GT(db_.records().record_count(), db_.records().chain_count());
    }
    const Database::StatsSnapshot delta = db_.Stats().DeltaSince(base);
    EXPECT_GE(delta.counters.at("reclaim.chains_visited"), 1u);
  }
  (void)db_.ReclaimOnce();
  EXPECT_EQ(db_.records().record_count(), db_.records().chain_count());
  EXPECT_EQ(db_.records().GetAt(p, db_.records().watermark())
                ->Get("N")
                .integer(),
            5);
}

// A deleted object's chain and its extent entry both go once every reader
// sees the tombstone; a uid re-created before the pass keeps both.
TEST_F(MvccTest, TrimDropsDeadChainsAndTheirExtentEntries) {
  Uid keep = *db_.Make("Part", {}, {{"N", Value::Integer(1)}});
  Uid gone = *db_.Make("Part", {}, {{"N", Value::Integer(2)}});
  Uid back = *db_.Make("Part", {}, {{"N", Value::Integer(3)}});
  const Object back_copy = *db_.objects().Peek(back);
  (void)db_.ReclaimOnce();
  const size_t chains = db_.records().chain_count();
  EXPECT_EQ(db_.records().extent_member_count(part_), 3u);

  ASSERT_TRUE(db_.DeleteObject(gone).ok());
  ASSERT_TRUE(db_.DeleteObject(back).ok());
  ASSERT_TRUE(db_.objects().RestoreObject(back_copy).ok());
  (void)db_.ReclaimOnce();

  EXPECT_EQ(db_.records().chain_count(), chains - 1);
  EXPECT_EQ(db_.records().extent_member_count(part_), 2u);
  EXPECT_EQ(db_.records().record_count(), db_.records().chain_count());
  Session session(&db_);
  ReadTransaction r = session.BeginReadOnly();
  EXPECT_EQ(r.InstancesOf(part_), (std::vector<Uid>{keep, back}));
  EXPECT_FALSE(r.Exists(gone));
  EXPECT_EQ((*r.Get(back))->Get("N").integer(), 3);
}

// Version-registry chains are queued and trimmed like object chains, and
// a reader pinned below a derivation keeps the old version list.
TEST_F(MvccTest, TrimCollapsesGenericChains) {
  Uid v1 = *db_.Make("Doc");
  const Uid generic = db_.objects().Peek(v1)->generic();
  Session session(&db_, ContendedOptions());
  {
    ReadTransaction pinned = session.BeginReadOnly();
    for (int i = 0; i < 3; ++i) {
      Status s = session.Run([&](TransactionContext& txn) -> Status {
        return txn.Derive(v1).status();
      });
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    (void)db_.ReclaimOnce();
    EXPECT_GT(db_.records().generic_record_count(),
              db_.records().generic_chain_count());
    EXPECT_EQ(pinned.VersionsOf(generic)->first.size(), 1u);
  }
  (void)db_.ReclaimOnce();
  EXPECT_EQ(db_.records().generic_chain_count(), 1u);
  EXPECT_EQ(db_.records().generic_record_count(), 1u);
  ReadTransaction later = session.BeginReadOnly();
  EXPECT_EQ(later.VersionsOf(generic)->first.size(), 4u);
  ORION_EXPECT_CONSISTENT(db_);
}

// With no reader open, one pass leaves every chain at one record whatever
// mix of creates, updates, deletes and re-creations came before it.
TEST_F(MvccTest, OneQuietPassLeavesOneRecordPerChain) {
  std::vector<Uid> parts;
  Uid root = *db_.Make("Node", {}, {{"Counter", Value::Integer(0)}});
  for (int i = 0; i < 8; ++i) {
    parts.push_back(*db_.Make("Part", {{root, "Parts"}},
                              {{"N", Value::Integer(i)}}));
  }
  for (int i = 0; i < 8; ++i) {
    CommitSet(parts[i], "N", 100 + i);
    CommitSet(root, "Counter", i);
  }
  Session session(&db_);
  for (int i = 0; i < 8; i += 2) {
    Status s = session.Run([&](TransactionContext& txn) -> Status {
      return txn.Delete(parts[i]);
    });
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  (void)db_.ReclaimOnce();
  EXPECT_EQ(db_.records().record_count(), db_.records().chain_count());
  EXPECT_EQ(db_.records().chain_count(), 5u);  // the root and 4 parts
  ORION_EXPECT_CONSISTENT(db_);
}

// Satellite 1: a session that cannot make progress gives up with kTimeout
// (the retry budget), not with the per-attempt kLockTimeout.
TEST_F(MvccTest, RetryBudgetExhaustionReturnsTimeout) {
  Uid root = *db_.Make("Node", {}, {{"Counter", Value::Integer(0)}});

  TransactionContext blocker(&db_);
  ASSERT_TRUE(blocker.SetAttribute(root, "Counter", Value::Integer(1)).ok());

  SessionOptions opts;
  opts.lock_timeout = milliseconds(0);  // try-lock
  opts.max_retries = 2;
  opts.backoff_base = std::chrono::microseconds(1);
  opts.backoff_cap = std::chrono::microseconds(10);
  Session session(&db_, opts);
  Status s = session.Run([&](TransactionContext& txn) -> Status {
    return txn.SetAttribute(root, "Counter", Value::Integer(2));
  });
  EXPECT_EQ(s.code(), StatusCode::kTimeout) << s.ToString();
  EXPECT_EQ(session.stats().retries, 2u);
  EXPECT_EQ(session.stats().failures, 1u);

  ASSERT_TRUE(blocker.Abort().ok());
  EXPECT_EQ(db_.objects().Peek(root)->Get("Counter").integer(), 0);
}

// --- races: lock-free readers vs committing writers (TSan) ----------------

class MvccConcurrencyTest : public ::testing::Test {
 protected:
  MvccConcurrencyTest() {
    part_ = *db_.MakeClass(ClassSpec{
        .name = "Part", .attributes = {WeakAttr("N", "integer")}});
    node_ = *db_.MakeClass(ClassSpec{
        .name = "Node",
        .attributes = {CompositeAttr("Parts", "Part", /*exclusive=*/true,
                                     /*dependent=*/true, /*is_set=*/true),
                       WeakAttr("A", "integer"), WeakAttr("B", "integer")}});
  }

  Database db_;
  ClassId node_, part_;
};

// Writers commit A=B=i pairs; lock-free readers must never observe a torn
// pair — commit atomicity seen through racing snapshots.  The background
// reclaimer runs throughout, so trimming races the readers too.
TEST_F(MvccConcurrencyTest, ReadersNeverSeeTornCommits) {
  Uid root = *db_.Make(
      "Node", {}, {{"A", Value::Integer(0)}, {"B", Value::Integer(0)}});

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::atomic<int> write_failures{0};

  std::thread writer([&] {
    Session session(&db_, ContendedOptions());
    for (int i = 1; i <= kItersPerThread * 2; ++i) {
      Status s = session.Run([&](TransactionContext& txn) -> Status {
        ORION_RETURN_IF_ERROR(txn.SetAttribute(root, "A", Value::Integer(i)));
        return txn.SetAttribute(root, "B", Value::Integer(i));
      });
      if (!s.ok()) {
        ++write_failures;
      }
    }
    stop = true;
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      Session session(&db_);
      while (!stop.load(std::memory_order_acquire)) {
        ReadTransaction r = session.BeginReadOnly();
        auto obj = r.Get(root);
        if (!obj.ok()) {
          ++torn;
          continue;
        }
        const int64_t a = (*obj)->Get("A").integer();
        const int64_t b = (*obj)->Get("B").integer();
        if (a != b) {
          ++torn;
        }
        // Repeatable within the transaction.
        if ((*r.Get(root))->Get("A").integer() != a) {
          ++torn;
        }
      }
    });
  }
  writer.join();
  for (auto& r : readers) {
    r.join();
  }

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(write_failures.load(), 0);
  EXPECT_EQ(db_.objects().Peek(root)->Get("A").integer(),
            kItersPerThread * 2);
  EXPECT_EQ(db_.locks().grant_count(), 0u);
  ORION_EXPECT_CONSISTENT(db_);
}

// Readers traverse composite closures while writers attach/detach parts
// and the reclaimer trims: every snapshot must be internally consistent
// (each part listed under "Parts" exists and is a component of the root).
TEST_F(MvccConcurrencyTest, SnapshotTraversalUnderChurn) {
  Uid root = *db_.Make(
      "Node", {}, {{"A", Value::Integer(0)}, {"B", Value::Integer(0)}});

  std::atomic<bool> stop{false};
  std::atomic<int> broken{0};
  std::atomic<int> write_failures{0};

  std::thread writer([&] {
    Session session(&db_, ContendedOptions());
    std::vector<Uid> mine;
    for (int i = 0; i < kItersPerThread * 2; ++i) {
      Status s;
      if (mine.size() < 4) {
        Uid made;
        s = session.Run([&](TransactionContext& txn) -> Status {
          ORION_ASSIGN_OR_RETURN(made,
                                 txn.Make("Part", {{root, "Parts"}},
                                          {{"N", Value::Integer(i)}}));
          return Status::Ok();
        });
        if (s.ok()) {
          mine.push_back(made);
        }
      } else {
        Uid doomed = mine.back();
        s = session.Run([&](TransactionContext& txn) -> Status {
          return txn.Delete(doomed);
        });
        if (s.ok()) {
          mine.pop_back();
        }
      }
      if (!s.ok()) {
        ++write_failures;
      }
    }
    stop = true;
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      Session session(&db_);
      while (!stop.load(std::memory_order_acquire)) {
        ReadTransaction r = session.BeginReadOnly();
        auto components = r.ComponentsOf(root);
        if (!components.ok()) {
          ++broken;
          continue;
        }
        for (Uid part : *components) {
          auto obj = r.Get(part);
          auto edge = r.ComponentOf(part, root);
          if (!obj.ok() || !edge.ok() || !*edge) {
            ++broken;
          }
        }
      }
    });
  }
  writer.join();
  for (auto& r : readers) {
    r.join();
  }

  EXPECT_EQ(broken.load(), 0);
  EXPECT_EQ(write_failures.load(), 0);
  EXPECT_EQ(db_.locks().grant_count(), 0u);
  ORION_EXPECT_CONSISTENT(db_);
}

// Satellite 2: SaveSnapshot is a read-only transaction — saving while
// writers churn never blocks them on S locks, and every snapshot loads
// into a consistent database.
TEST_F(MvccConcurrencyTest, SaveSnapshotWhileWritersCommit) {
  std::vector<Uid> roots;
  for (int t = 0; t < kThreads; ++t) {
    roots.push_back(*db_.Make(
        "Node", {}, {{"A", Value::Integer(0)}, {"B", Value::Integer(0)}}));
  }

  std::atomic<int> writers_done{0};
  std::atomic<int> write_failures{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      Session session(&db_, ContendedOptions());
      for (int i = 1; i <= kItersPerThread; ++i) {
        Status s = session.Run([&](TransactionContext& txn) -> Status {
          ORION_RETURN_IF_ERROR(
              txn.SetAttribute(roots[t], "A", Value::Integer(i)));
          ORION_RETURN_IF_ERROR(
              txn.Make("Part", {{roots[t], "Parts"}},
                       {{"N", Value::Integer(i)}})
                  .status());
          return txn.SetAttribute(roots[t], "B", Value::Integer(i));
        });
        if (!s.ok()) {
          ++write_failures;
        }
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }

  // Snapshot continuously while the writers run; each dump must load into
  // a fresh, internally consistent database with untorn A/B pairs.
  int snapshots = 0;
  do {
    std::string dump = SaveSnapshot(db_);
    ++snapshots;
    Database restored;
    Status s = LoadSnapshot(restored, dump);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ORION_EXPECT_CONSISTENT(restored);
    for (Uid root : roots) {
      const Object* obj = restored.objects().Peek(root);
      ASSERT_NE(obj, nullptr);
      EXPECT_EQ(obj->Get("A").integer(), obj->Get("B").integer());
    }
  } while (writers_done.load(std::memory_order_acquire) < kThreads);
  for (auto& w : writers) {
    w.join();
  }

  EXPECT_EQ(write_failures.load(), 0);
  EXPECT_GE(snapshots, 1);
  EXPECT_EQ(db_.locks().grant_count(), 0u);
  ORION_EXPECT_CONSISTENT(db_);
}

// Two publishers, two snapshot readers and two explicit reclaim loops run
// beside the background reclaimer, so Trims overlap each other and every
// publication.  A reader's values at its read_ts must never change, and
// once everyone is done one pass leaves one record per chain.
TEST_F(MvccTest, ConcurrentReclaimWithPublishersAndSnapshotReaders) {
  constexpr int kPublishers = 2;
  constexpr int kPartsEach = 4;
  std::vector<std::vector<Uid>> owned(kPublishers);
  for (int t = 0; t < kPublishers; ++t) {
    for (int i = 0; i < kPartsEach; ++i) {
      owned[t].push_back(*db_.Make("Part", {}, {{"N", Value::Integer(0)}}));
    }
  }

  std::atomic<int> publishers_done{0};
  std::atomic<int> failures{0};
  std::atomic<int> changed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kPublishers; ++t) {
    threads.emplace_back([&, t] {
      Session session(&db_, ContendedOptions());
      for (int i = 1; i <= kItersPerThread * 2; ++i) {
        Status s = session.Run([&](TransactionContext& txn) -> Status {
          for (Uid p : owned[t]) {
            ORION_RETURN_IF_ERROR(txn.SetAttribute(p, "N", Value::Integer(i)));
          }
          return Status::Ok();
        });
        // A short-lived object leaves a tombstone chain behind for the
        // trimmers to drop.
        Uid temp;
        Status churn = session.Run([&](TransactionContext& txn) -> Status {
          ORION_ASSIGN_OR_RETURN(
              temp, txn.Make("Part", {}, {{"N", Value::Integer(-i)}}));
          return Status::Ok();
        });
        if (churn.ok()) {
          churn = session.Run([&](TransactionContext& txn) -> Status {
            return txn.Delete(temp);
          });
        }
        if (!s.ok() || !churn.ok()) {
          ++failures;
        }
      }
      publishers_done.fetch_add(1, std::memory_order_release);
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      Session session(&db_);
      while (publishers_done.load(std::memory_order_acquire) < kPublishers) {
        ReadTransaction r = session.BeginReadOnly();
        std::vector<int64_t> first;
        for (const auto& parts : owned) {
          for (Uid p : parts) {
            first.push_back((*r.Get(p))->Get("N").integer());
          }
        }
        const size_t extent = r.InstancesOf(part_).size();
        for (int again = 0; again < 4; ++again) {
          std::this_thread::yield();
          size_t k = 0;
          for (const auto& parts : owned) {
            for (Uid p : parts) {
              auto obj = r.Get(p);
              if (!obj.ok() || (*obj)->Get("N").integer() != first[k]) {
                ++changed;
              }
              ++k;
            }
          }
          if (r.InstancesOf(part_).size() != extent) {
            ++changed;
          }
        }
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      while (publishers_done.load(std::memory_order_acquire) < kPublishers) {
        (void)db_.ReclaimOnce();
        std::this_thread::yield();
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(changed.load(), 0);
  (void)db_.ReclaimOnce();
  EXPECT_EQ(db_.records().record_count(), db_.records().chain_count());
  EXPECT_EQ(db_.records().chain_count(),
            static_cast<size_t>(kPublishers * kPartsEach));
  EXPECT_EQ(db_.records().extent_member_count(part_),
            static_cast<size_t>(kPublishers * kPartsEach));
  EXPECT_EQ(db_.locks().grant_count(), 0u);
  ORION_EXPECT_CONSISTENT(db_);
}

}  // namespace
}  // namespace orion
