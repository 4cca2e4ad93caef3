#include "notify/notification_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cell/cluster.h"
#include "cell/cluster_session.h"
#include "cell/cluster_transaction.h"
#include "core/database.h"
#include "core/session.h"
#include "core/transaction.h"

namespace orion {
namespace {

class NotificationTest : public ::testing::Test {
 protected:
  NotificationTest() : notify_(&db_.objects()) {
    part_ = *db_.MakeClass(ClassSpec{
        .name = "Part", .attributes = {WeakAttr("Name", "string")}});
    node_ = *db_.MakeClass(ClassSpec{
        .name = "Node",
        .attributes = {CompositeAttr("Parts", "Part", /*exclusive=*/false,
                                     /*dependent=*/false, /*is_set=*/true),
                       WeakAttr("Label", "string")}});
    root_ = *db_.objects().Make(node_, {}, {});
    child_ = *db_.objects().Make(part_, {{root_, "Parts"}}, {});
  }

  Database db_;
  NotificationManager notify_;
  ClassId node_, part_;
  Uid root_, child_;
};

TEST_F(NotificationTest, DirectSubscriptionSeesUpdates) {
  ASSERT_TRUE(notify_.Subscribe("sam", child_, false).ok());
  ASSERT_TRUE(db_.objects()
                  .SetAttribute(child_, "Name", Value::String("bolt"))
                  .ok());
  auto events = notify_.Drain("sam");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].object, child_);
  EXPECT_EQ(events[0].kind, ChangeKind::kUpdated);
  EXPECT_EQ(events[0].attribute, "Name");
  EXPECT_EQ(events[0].subscription_root, child_);
  // Drained: nothing pending.
  EXPECT_EQ(notify_.Pending("sam"), 0u);
}

TEST_F(NotificationTest, CompositeSubscriptionSeesComponentChanges) {
  // The CHOU88-style use the paper motivates: watch a whole design.
  ASSERT_TRUE(notify_.Subscribe("sam", root_, /*include_components=*/true)
                  .ok());
  ASSERT_TRUE(db_.objects()
                  .SetAttribute(child_, "Name", Value::String("gear"))
                  .ok());
  auto events = notify_.Drain("sam");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].object, child_);
  EXPECT_EQ(events[0].subscription_root, root_);
}

TEST_F(NotificationTest, NonCompositeSubscriptionIgnoresComponents) {
  ASSERT_TRUE(notify_.Subscribe("sam", root_, /*include_components=*/false)
                  .ok());
  ASSERT_TRUE(db_.objects()
                  .SetAttribute(child_, "Name", Value::String("x"))
                  .ok());
  EXPECT_EQ(notify_.Pending("sam"), 0u);
  // Changes to the root itself still arrive.
  ASSERT_TRUE(db_.objects()
                  .SetAttribute(root_, "Label", Value::String("r"))
                  .ok());
  EXPECT_EQ(notify_.Pending("sam"), 1u);
}

TEST_F(NotificationTest, NewComponentsAreCoveredAutomatically) {
  ASSERT_TRUE(notify_.Subscribe("sam", root_, true).ok());
  // Attaching a new component to the watched composite is itself a change
  // (the root's Parts value), and future changes to it are covered.
  Uid late = *db_.objects().Make(part_, {{root_, "Parts"}}, {});
  (void)notify_.Drain("sam");
  ASSERT_TRUE(
      db_.objects().SetAttribute(late, "Name", Value::String("new")).ok());
  auto events = notify_.Drain("sam");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].object, late);
}

TEST_F(NotificationTest, DeletionNotifiesAndDropsSubscription) {
  ASSERT_TRUE(notify_.Subscribe("sam", child_, false).ok());
  ASSERT_TRUE(db_.DeleteObject(child_).ok());
  auto events = notify_.Drain("sam");
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().kind, ChangeKind::kDeleted);
  EXPECT_EQ(events.back().object, child_);
  // The subscription died with the object: no NotFound surprises later.
  EXPECT_EQ(notify_.Unsubscribe("sam", child_).code(),
            StatusCode::kNotFound);
}

TEST_F(NotificationTest, CascadeDeletionsReachCompositeWatchers) {
  ClassId owner_cls = *db_.MakeClass(ClassSpec{
      .name = "Owner",
      .attributes = {CompositeAttr("Dep", "Part", /*exclusive=*/true,
                                   /*dependent=*/true, /*is_set=*/true)}});
  Uid owner = *db_.objects().Make(owner_cls, {}, {});
  Uid dep = *db_.objects().Make(part_, {{owner, "Dep"}}, {});
  ASSERT_TRUE(notify_.Subscribe("sam", owner, true).ok());
  ASSERT_TRUE(db_.DeleteObject(owner).ok());
  auto events = notify_.Drain("sam");
  // Both the root and its dependent component report deletion.
  size_t deletions = 0;
  bool saw_dep = false;
  for (const ChangeEvent& e : events) {
    if (e.kind == ChangeKind::kDeleted) {
      ++deletions;
      saw_dep |= e.object == dep;
    }
  }
  EXPECT_GE(deletions, 2u);
  EXPECT_TRUE(saw_dep);
}

TEST_F(NotificationTest, FlagBasedInterface) {
  ASSERT_TRUE(notify_.Subscribe("sam", root_, true).ok());
  EXPECT_FALSE(notify_.IsFlagged("sam", root_));
  ASSERT_TRUE(db_.objects()
                  .SetAttribute(child_, "Name", Value::String("f"))
                  .ok());
  EXPECT_TRUE(notify_.IsFlagged("sam", root_));
  notify_.ClearFlag("sam", root_);
  EXPECT_FALSE(notify_.IsFlagged("sam", root_));
}

TEST_F(NotificationTest, MultipleSubscribersGetIndependentQueues) {
  ASSERT_TRUE(notify_.Subscribe("sam", root_, true).ok());
  ASSERT_TRUE(notify_.Subscribe("eve", child_, false).ok());
  ASSERT_TRUE(db_.objects()
                  .SetAttribute(child_, "Name", Value::String("m"))
                  .ok());
  EXPECT_EQ(notify_.Pending("sam"), 1u);
  EXPECT_EQ(notify_.Pending("eve"), 1u);
  (void)notify_.Drain("sam");
  EXPECT_EQ(notify_.Pending("eve"), 1u);
}

TEST_F(NotificationTest, SubscriptionValidation) {
  EXPECT_EQ(notify_.Subscribe("", root_, false).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(notify_.Subscribe("sam", Uid{999}, false).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(notify_.Subscribe("sam", root_, false).ok());
  EXPECT_EQ(notify_.Subscribe("sam", root_, false).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(notify_.Unsubscribe("sam", root_).ok());
  EXPECT_EQ(notify_.Unsubscribe("sam", root_).code(), StatusCode::kNotFound);
}

TEST_F(NotificationTest, VersionDerivationNotifiesWatchers) {
  ClassId design = *db_.MakeClass(ClassSpec{
      .name = "Design",
      .attributes = {WeakAttr("Label", "string")},
      .versionable = true});
  (void)design;
  Uid v0 = *db_.Make("Design", {}, {{"Label", Value::String("r0")}});
  ASSERT_TRUE(notify_.Subscribe("sam", v0, false).ok());
  // Deriving copies values into the new version; the source is untouched,
  // so the watcher stays quiet...
  Uid v1 = *db_.versions().Derive(v0);
  (void)v1;
  EXPECT_EQ(notify_.Pending("sam"), 0u);
  // ...until the source itself changes.
  ASSERT_TRUE(db_.objects()
                  .SetAttribute(v0, "Label", Value::String("r0b"))
                  .ok());
  EXPECT_EQ(notify_.Pending("sam"), 1u);
}

// --- Only committed work notifies --------------------------------------------

TEST_F(NotificationTest, AbortedSetAttributeNotifiesNobody) {
  ASSERT_TRUE(notify_.Subscribe("sam", child_, false).ok());
  ASSERT_TRUE(notify_.Subscribe("eve", root_, true).ok());
  {
    TransactionContext txn(&db_);
    ASSERT_TRUE(txn.SetAttribute(child_, "Name", Value::String("x")).ok());
    ASSERT_TRUE(txn.Abort().ok());
  }
  EXPECT_EQ(notify_.Pending("sam"), 0u);
  EXPECT_EQ(notify_.Pending("eve"), 0u);
  EXPECT_FALSE(notify_.IsFlagged("sam", child_));
  EXPECT_FALSE(notify_.IsFlagged("eve", root_));
  // The watched object survived the abort, and so did the subscriptions.
  ASSERT_TRUE(db_.objects()
                  .SetAttribute(child_, "Name", Value::String("y"))
                  .ok());
  EXPECT_EQ(notify_.Pending("sam"), 1u);
  EXPECT_EQ(notify_.Pending("eve"), 1u);
}

TEST_F(NotificationTest, AbortedMakeNotifiesNobody) {
  ASSERT_TRUE(notify_.Subscribe("sam", root_, true).ok());
  {
    TransactionContext txn(&db_);
    ASSERT_TRUE(
        txn.Make("Part", {{root_, "Parts"}}, {{"Name", Value::String("p")}})
            .ok());
    ASSERT_TRUE(txn.Abort().ok());
  }
  EXPECT_EQ(notify_.Pending("sam"), 0u);
  EXPECT_FALSE(notify_.IsFlagged("sam", root_));
}

TEST_F(NotificationTest, AbortedDeleteNotifiesNobody) {
  ASSERT_TRUE(notify_.Subscribe("sam", child_, false).ok());
  ASSERT_TRUE(notify_.Subscribe("eve", root_, true).ok());
  {
    TransactionContext txn(&db_);
    ASSERT_TRUE(txn.Delete(child_).ok());
    ASSERT_TRUE(txn.Abort().ok());
  }
  EXPECT_EQ(notify_.Pending("sam"), 0u);
  EXPECT_EQ(notify_.Pending("eve"), 0u);
  EXPECT_FALSE(notify_.IsFlagged("sam", child_));
  EXPECT_FALSE(notify_.IsFlagged("eve", root_));
  EXPECT_TRUE(notify_.Unsubscribe("sam", child_).ok());
}

TEST_F(NotificationTest, CommittedTransactionNotifiesOncePerChangedAttribute) {
  ASSERT_TRUE(notify_.Subscribe("sam", root_, true).ok());
  {
    TransactionContext txn(&db_);
    ASSERT_TRUE(txn.SetAttribute(child_, "Name", Value::String("a")).ok());
    ASSERT_TRUE(txn.SetAttribute(child_, "Name", Value::String("b")).ok());
    // Assigning the value the object already holds changes nothing.
    ASSERT_TRUE(txn.SetAttribute(root_, "Label", Value()).ok());
    EXPECT_EQ(notify_.Pending("sam"), 0u);  // nothing before the commit
    ASSERT_TRUE(txn.Commit().ok());
  }
  auto events = notify_.Drain("sam");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].object, child_);
  EXPECT_EQ(events[0].attribute, "Name");
}

TEST(NotificationCellTest, AbortedCrossCellTransactionNotifiesNobody) {
  Cluster cluster(2);
  ASSERT_TRUE(cluster
                  .MakeClass(ClassSpec{.name = "Part",
                                       .attributes = {WeakAttr("N",
                                                               "integer")}})
                  .ok());
  ASSERT_TRUE(cluster
                  .MakeClass(ClassSpec{
                      .name = "Assembly",
                      .attributes = {CompositeAttr("Parts", "Part",
                                                   /*exclusive=*/true,
                                                   /*dependent=*/true,
                                                   /*is_set=*/true),
                                     WeakAttr("N", "integer")}})
                  .ok());
  NotificationManager notify1(&cluster.cell(1).db().objects());
  NotificationManager notify2(&cluster.cell(2).db().objects());
  ClusterSession session(&cluster);

  // New roots land round-robin: one assembly (with one part) per cell.
  Uid roots[2];
  Uid parts[2];
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(session
                    .Run([&](ClusterTransaction& txn) -> Status {
                      ORION_ASSIGN_OR_RETURN(roots[i], txn.Make("Assembly"));
                      ORION_ASSIGN_OR_RETURN(
                          parts[i], txn.Make("Part", {{roots[i], "Parts"}}));
                      return Status::Ok();
                    })
                    .ok());
  }
  ASSERT_NE(CellTagOf(roots[0]), CellTagOf(roots[1]));
  NotificationManager* cell_of[2] = {
      CellTagOf(roots[0]) == 1 ? &notify1 : &notify2,
      CellTagOf(roots[1]) == 1 ? &notify1 : &notify2};
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(cell_of[i]->Subscribe("sam", roots[i], true).ok());
  }

  auto touch_both = [&](ClusterTransaction& txn) -> Status {
    for (int i = 0; i < 2; ++i) {
      ORION_RETURN_IF_ERROR(txn.SetAttribute(roots[i], "N", Value::Integer(1)));
      ORION_RETURN_IF_ERROR(txn.SetAttribute(parts[i], "N", Value::Integer(2)));
    }
    return Status::Ok();
  };
  const Status aborted = session.Run([&](ClusterTransaction& txn) -> Status {
    ORION_RETURN_IF_ERROR(touch_both(txn));
    EXPECT_EQ(txn.participants(), 2u);
    return Status::FailedPrecondition("abort on purpose");
  });
  EXPECT_EQ(aborted.code(), StatusCode::kFailedPrecondition);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(cell_of[i]->Pending("sam"), 0u) << "cell of root " << i;
    EXPECT_FALSE(cell_of[i]->IsFlagged("sam", roots[i]));
  }

  // The same writes committed through 2PC reach both cells' watchers.
  ASSERT_TRUE(session.Run(touch_both).ok());
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(cell_of[i]->Pending("sam"), 2u) << "cell of root " << i;
  }
}

// --- Composite reach follows committed structure -----------------------------

class NotificationTreeTest : public NotificationTest {
 protected:
  NotificationTreeTest() {
    tree_cls_ = *db_.MakeClass(ClassSpec{
        .name = "Tree",
        .attributes = {CompositeAttr("Nodes", "Node", /*exclusive=*/false,
                                     /*dependent=*/false, /*is_set=*/true)}});
    tree_ = *db_.objects().Make(tree_cls_, {}, {});
  }

  /// Makes a Node holding `n` named Parts; returns {node, parts...}.
  std::vector<Uid> MakeSubtree(TransactionContext& txn, int n) {
    std::vector<Uid> out(1);
    std::vector<Value> refs;
    for (int i = 0; i < n; ++i) {
      out.push_back(*txn.Make("Part", {},
                              {{"Name", Value::String("p" +
                                                      std::to_string(i))}}));
      refs.push_back(Value::Ref(out.back()));
    }
    out[0] = *txn.Make("Node", {},
                       {{"Parts", Value::Set(refs)},
                        {"Label", Value::String("sub")}});
    return out;
  }

  /// Objects named by the drained events of `subscriber`.
  std::set<Uid> DrainObjects(const std::string& subscriber) {
    std::set<Uid> out;
    for (const ChangeEvent& e : notify_.Drain(subscriber)) {
      out.insert(e.object);
    }
    return out;
  }

  ClassId tree_cls_;
  Uid tree_;
};

TEST_F(NotificationTreeTest, SubtreeBuiltAndAttachedInOneTransactionIsCovered) {
  ASSERT_TRUE(notify_.Subscribe("sam", tree_, true).ok());
  std::vector<Uid> subtree;
  {
    TransactionContext txn(&db_);
    subtree = MakeSubtree(txn, 3);
    ASSERT_TRUE(txn.MakeComponent(subtree[0], tree_, "Nodes").ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  std::set<Uid> expected(subtree.begin(), subtree.end());
  expected.insert(tree_);
  EXPECT_EQ(DrainObjects("sam"), expected);

  // Later changes to every new component reach the subscription too.
  for (Uid uid : subtree) {
    const std::string attr = uid == subtree[0] ? "Label" : "Name";
    ASSERT_TRUE(
        db_.objects().SetAttribute(uid, attr, Value::String("later")).ok());
  }
  EXPECT_EQ(DrainObjects("sam"), std::set<Uid>(subtree.begin(), subtree.end()));
}

TEST_F(NotificationTreeTest, ExistingSubtreeJoinsOnAttachAndLeavesOnDetach) {
  std::vector<Uid> subtree;
  {
    TransactionContext txn(&db_);
    subtree = MakeSubtree(txn, 2);
    ASSERT_TRUE(txn.Commit().ok());
  }
  ASSERT_TRUE(notify_.Subscribe("sam", tree_, true).ok());
  ASSERT_TRUE(db_.objects()
                  .SetAttribute(subtree[1], "Name", Value::String("before"))
                  .ok());
  EXPECT_EQ(notify_.Pending("sam"), 0u);  // not a component yet

  // Attaching republishes only the tree and the subtree's top node, but the
  // parts below it are covered from then on.
  ASSERT_TRUE(db_.objects().MakeComponent(subtree[0], tree_, "Nodes").ok());
  EXPECT_EQ(DrainObjects("sam"), std::set<Uid>{tree_});
  ASSERT_TRUE(db_.objects()
                  .SetAttribute(subtree[2], "Name", Value::String("inside"))
                  .ok());
  EXPECT_EQ(DrainObjects("sam"), std::set<Uid>{subtree[2]});

  // Detaching takes the whole subtree out of the subscription.
  ASSERT_TRUE(db_.objects().RemoveComponent(subtree[0], tree_, "Nodes").ok());
  EXPECT_EQ(DrainObjects("sam"), std::set<Uid>{tree_});
  ASSERT_TRUE(db_.objects()
                  .SetAttribute(subtree[1], "Name", Value::String("after"))
                  .ok());
  EXPECT_EQ(notify_.Pending("sam"), 0u);
}

TEST_F(NotificationTest, ConcurrentCommitsArriveExactlyOnceAbortsNever) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 60;
  std::vector<Uid> parts;
  for (int t = 0; t < kThreads; ++t) {
    parts.push_back(*db_.objects().Make(part_, {{root_, "Parts"}}, {}));
  }
  ASSERT_TRUE(notify_.Subscribe("sam", root_, true).ok());

  std::atomic<int> running{kThreads};
  std::vector<int> committed(kThreads, 0);
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      SessionOptions opts;
      opts.lock_timeout = std::chrono::milliseconds(250);
      opts.max_retries = 200;
      Session session(&db_, opts);
      for (int i = 0; i < kRounds; ++i) {
        const bool abort = i % 3 == 2;
        const Status s = session.Run([&](TransactionContext& txn) -> Status {
          ORION_RETURN_IF_ERROR(txn.SetAttribute(
              parts[t], "Name",
              Value::String((abort ? "aborted-" : "committed-") +
                            std::to_string(i))));
          return abort ? Status::FailedPrecondition("abort on purpose")
                       : Status::Ok();
        });
        if (abort) {
          EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
        } else if (s.ok()) {
          ++committed[t];
        } else {
          ADD_FAILURE() << s.ToString();
        }
      }
      running.fetch_sub(1);
    });
  }

  std::vector<ChangeEvent> events;
  while (running.load() > 0) {
    for (ChangeEvent& e : notify_.Drain("sam")) {
      events.push_back(std::move(e));
    }
    std::this_thread::yield();
  }
  for (std::thread& w : writers) {
    w.join();
  }
  for (ChangeEvent& e : notify_.Drain("sam")) {
    events.push_back(std::move(e));
  }

  std::map<Uid, int> per_object;
  uint64_t last_seq = 0;
  for (const ChangeEvent& e : events) {
    EXPECT_GT(e.seq, last_seq);  // one delivery order across drains
    last_seq = e.seq;
    EXPECT_EQ(e.kind, ChangeKind::kUpdated);
    EXPECT_EQ(e.attribute, "Name");
    EXPECT_EQ(e.subscription_root, root_);
    ++per_object[e.object];
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(committed[t], kRounds - kRounds / 3);
    // Each committed update changed the value once; aborted ones never
    // reached the stream.
    EXPECT_EQ(per_object[parts[t]], committed[t]) << "writer " << t;
  }
  EXPECT_EQ(per_object.size(), static_cast<size_t>(kThreads));
}

}  // namespace
}  // namespace orion
