#include "core/transaction.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include <gtest/gtest.h>

#include "invariants.h"
#include "query/traversal.h"

namespace orion {
namespace {

class TransactionTest : public ::testing::Test {
 protected:
  TransactionTest() {
    part_ = *db_.MakeClass(ClassSpec{.name = "Part"});
    node_ = *db_.MakeClass(ClassSpec{
        .name = "Node",
        .attributes = {
            CompositeAttr("DepParts", "Part", /*exclusive=*/true,
                          /*dependent=*/true, /*is_set=*/true),
            CompositeAttr("Shared", "Part", /*exclusive=*/false,
                          /*dependent=*/false, /*is_set=*/true),
            WeakAttr("Name", "string")}});
    design_ = *db_.MakeClass(ClassSpec{
        .name = "Design",
        .attributes = {WeakAttr("Label", "string")},
        .versionable = true});
  }

  /// A three-level §7 hierarchy: Top -shared-> Mid -exclusive-> Leaf, so
  /// a composite read lock on a Top takes ISOS on Mid and ISO on Leaf.
  void MakeAssemblyClasses() {
    leaf_ = *db_.MakeClass(ClassSpec{
        .name = "Leaf", .attributes = {WeakAttr("W", "integer")}});
    mid_ = *db_.MakeClass(ClassSpec{
        .name = "Mid",
        .attributes = {CompositeAttr("Leaves", "Leaf", /*exclusive=*/true,
                                     /*dependent=*/true, /*is_set=*/true)}});
    top_ = *db_.MakeClass(ClassSpec{
        .name = "Top",
        .attributes = {CompositeAttr("Mids", "Mid", /*exclusive=*/false,
                                     /*dependent=*/false, /*is_set=*/true)}});
  }

  /// A Top with two Mids of two Leaves each; returns {top, mids..., leaves...}.
  std::vector<Uid> MakeAssembly() {
    std::vector<Uid> members{*db_.objects().Make(top_, {}, {})};
    for (int m = 0; m < 2; ++m) {
      members.push_back(*db_.objects().Make(mid_, {{members[0], "Mids"}}, {}));
    }
    for (int m = 1; m <= 2; ++m) {
      for (int l = 0; l < 2; ++l) {
        members.push_back(*db_.objects().Make(
            leaf_, {{members[m], "Leaves"}}, {{"W", Value::Integer(0)}}));
      }
    }
    return members;
  }

  static bool Holds(const std::vector<LockMode>& held, LockMode mode) {
    return std::find(held.begin(), held.end(), mode) != held.end();
  }

  Database db_;
  ClassId node_, part_, design_;
  ClassId leaf_ = kInvalidClass, mid_ = kInvalidClass, top_ = kInvalidClass;
};

TEST_F(TransactionTest, CommitKeepsChanges) {
  TransactionContext txn(&db_);
  Uid root = *txn.Make("Node", {}, {{"Name", Value::String("r")}});
  Uid child = *txn.Make("Part", {{root, "DepParts"}});
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_TRUE(db_.objects().Exists(root));
  EXPECT_TRUE(db_.objects().Exists(child));
  EXPECT_TRUE(db_.objects().Peek(root)->Get("DepParts").References(child));
  // Locks were released: another transaction can write.
  TransactionContext txn2(&db_);
  EXPECT_TRUE(txn2.SetAttribute(root, "Name", Value::String("x")).ok());
  EXPECT_TRUE(txn2.Commit().ok());
}

TEST_F(TransactionTest, AbortUnwindsCreations) {
  const size_t before = db_.objects().object_count();
  {
    TransactionContext txn(&db_);
    Uid root = *txn.Make("Node");
    (void)*txn.Make("Part", {{root, "DepParts"}});
    ASSERT_TRUE(txn.Abort().ok());
  }
  EXPECT_EQ(db_.objects().object_count(), before);
  ORION_EXPECT_CONSISTENT(db_);
}

TEST_F(TransactionTest, DestructorAbortsImplicitly) {
  const size_t before = db_.objects().object_count();
  {
    TransactionContext txn(&db_);
    (void)*txn.Make("Node");
    // No Commit.
  }
  EXPECT_EQ(db_.objects().object_count(), before);
}

TEST_F(TransactionTest, AbortRestoresMutatedValues) {
  Uid root = *db_.objects().Make(node_, {},
                                 {{"Name", Value::String("original")}});
  {
    TransactionContext txn(&db_);
    ASSERT_TRUE(
        txn.SetAttribute(root, "Name", Value::String("changed")).ok());
    EXPECT_EQ(db_.objects().Peek(root)->Get("Name"),
              Value::String("changed"));
    ASSERT_TRUE(txn.Abort().ok());
  }
  EXPECT_EQ(db_.objects().Peek(root)->Get("Name"),
            Value::String("original"));
}

TEST_F(TransactionTest, AbortRestoresAttachments) {
  Uid root = *db_.objects().Make(node_, {}, {});
  Uid part = *db_.objects().Make(part_, {}, {});
  {
    TransactionContext txn(&db_);
    ASSERT_TRUE(txn.MakeComponent(part, root, "DepParts").ok());
    ASSERT_TRUE(txn.Abort().ok());
  }
  EXPECT_TRUE(db_.objects().Peek(part)->reverse_refs().empty());
  EXPECT_TRUE(db_.objects().Peek(root)->Get("DepParts").is_null());
  ORION_EXPECT_CONSISTENT(db_);
  // The part is attachable again (no ghost exclusivity).
  EXPECT_TRUE(db_.objects().MakeComponent(part, root, "DepParts").ok());
}

TEST_F(TransactionTest, AbortResurrectsDeletedComposite) {
  Uid root = *db_.objects().Make(node_, {}, {});
  Uid dep = *db_.objects().Make(part_, {{root, "DepParts"}}, {});
  Uid shared = *db_.objects().Make(part_, {{root, "Shared"}}, {});
  {
    TransactionContext txn(&db_);
    ASSERT_TRUE(txn.Delete(root).ok());
    EXPECT_FALSE(db_.objects().Exists(root));
    EXPECT_FALSE(db_.objects().Exists(dep));  // dependent died
    EXPECT_TRUE(db_.objects().Exists(shared));  // detached survivor
    ASSERT_TRUE(txn.Abort().ok());
  }
  // Everything is back, including the dependent component and the
  // detached survivor's backlink.
  EXPECT_TRUE(db_.objects().Exists(root));
  EXPECT_TRUE(db_.objects().Exists(dep));
  EXPECT_EQ(db_.objects().Peek(shared)->reverse_refs().size(), 1u);
  EXPECT_TRUE(db_.objects().Peek(root)->Get("DepParts").References(dep));
  ORION_EXPECT_CONSISTENT(db_);
}

TEST_F(TransactionTest, AbortUnwindsDerive) {
  Uid v0 = *db_.Make("Design", {}, {{"Label", Value::String("rev0")}});
  const Uid generic = db_.objects().Peek(v0)->generic();
  {
    TransactionContext txn(&db_);
    Uid v1 = *txn.Derive(v0);
    EXPECT_EQ(db_.versions().VersionsOf(generic)->size(), 2u);
    ASSERT_TRUE(txn.Abort().ok());
    EXPECT_FALSE(db_.objects().Exists(v1));
  }
  EXPECT_EQ(db_.versions().VersionsOf(generic)->size(), 1u);
  EXPECT_EQ(*db_.versions().DefaultVersion(generic), v0);
  ORION_EXPECT_CONSISTENT(db_);
}

TEST_F(TransactionTest, AbortUnwindsVersionedMake) {
  const size_t before = db_.versions().generic_count();
  {
    TransactionContext txn(&db_);
    (void)*txn.Make("Design");
    ASSERT_TRUE(txn.Abort().ok());
  }
  EXPECT_EQ(db_.versions().generic_count(), before);
  ORION_EXPECT_CONSISTENT(db_);
}

TEST_F(TransactionTest, TwoPhaseLockingBlocksConflicts) {
  Uid root = *db_.objects().Make(node_, {}, {});
  TransactionContext writer(&db_);
  ASSERT_TRUE(
      writer.SetAttribute(root, "Name", Value::String("w")).ok());
  TransactionContext reader(&db_);
  EXPECT_EQ(reader.Read(root).status().code(), StatusCode::kLockTimeout);
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_TRUE(reader.Read(root).ok());
  ASSERT_TRUE(reader.Commit().ok());
}

TEST_F(TransactionTest, CompositeReadBlocksComponentWrite) {
  Uid root = *db_.objects().Make(node_, {}, {});
  Uid part = *db_.objects().Make(part_, {{root, "DepParts"}}, {});
  TransactionContext reader(&db_);
  ASSERT_TRUE(reader.LockCompositeForRead(root).ok());
  TransactionContext writer(&db_);
  EXPECT_EQ(writer.SetAttribute(part, "Name", Value::Null()).code(),
            StatusCode::kLockTimeout);
}

// §7 a–c through the transaction: the composite read lock is the only
// lock its components are read under.  Reading them adds no instance lock
// and no class IS; an object outside the composite still takes IS + S.
TEST_F(TransactionTest, CompositeReadCoversComponents) {
  MakeAssemblyClasses();
  const std::vector<Uid> members = MakeAssembly();
  const Uid top = members[0];
  const Uid outsider = *db_.objects().Make(leaf_, {}, {});
  TransactionContext reader(&db_);
  const uint64_t before = db_.locks().stats().acquisitions;
  ASSERT_TRUE(reader.LockCompositeForRead(top).ok());
  // IS(Top) + S(top) + ISOS(Mid) + ISO(Leaf).
  const uint64_t composite_locks = 4;
  EXPECT_EQ(db_.locks().stats().acquisitions - before, composite_locks);
  for (Uid u : members) {
    ASSERT_TRUE(reader.Read(u).ok()) << u.ToString();
  }
  for (size_t i = 1; i < members.size(); ++i) {
    EXPECT_TRUE(db_.locks()
                    .HeldModes(reader.id(), LockResource::Instance(members[i]))
                    .empty())
        << members[i].ToString();
  }
  EXPECT_EQ(db_.locks().HeldModes(reader.id(), LockResource::Instance(top)),
            std::vector<LockMode>{LockMode::kS});
  EXPECT_EQ(db_.locks().HeldModes(reader.id(), LockResource::Class(top_)),
            std::vector<LockMode>{LockMode::kIS});
  EXPECT_EQ(db_.locks().HeldModes(reader.id(), LockResource::Class(mid_)),
            std::vector<LockMode>{LockMode::kISOS});
  EXPECT_EQ(db_.locks().HeldModes(reader.id(), LockResource::Class(leaf_)),
            std::vector<LockMode>{LockMode::kISO});
  EXPECT_EQ(db_.locks().stats().acquisitions - before, composite_locks);

  ASSERT_TRUE(reader.Read(outsider).ok());
  EXPECT_EQ(
      db_.locks().HeldModes(reader.id(), LockResource::Instance(outsider)),
      std::vector<LockMode>{LockMode::kS});
  EXPECT_TRUE(Holds(
      db_.locks().HeldModes(reader.id(), LockResource::Class(leaf_)),
      LockMode::kIS));
  EXPECT_EQ(db_.locks().stats().acquisitions - before, composite_locks + 2);
  ASSERT_TRUE(reader.Commit().ok());
  EXPECT_EQ(db_.locks().grant_count(), 0u);
}

// The class locks of §7 name the attribute domains, so an instance of a
// subclass of a domain is outside them: a writer of it takes IX on the
// subclass, which ISO on the domain does not exclude.  Such a component
// is read under its own instance lock, as before.
TEST_F(TransactionTest, CompositeReadLocksSubclassComponentsItself) {
  MakeAssemblyClasses();
  const ClassId special = *db_.MakeClass(
      ClassSpec{.name = "SpecialLeaf", .superclasses = {"Leaf"}});
  const std::vector<Uid> members = MakeAssembly();
  const Uid special_leaf =
      *db_.objects().Make(special, {{members[1], "Leaves"}}, {});
  TransactionContext reader(&db_);
  ASSERT_TRUE(reader.LockCompositeForRead(members[0]).ok());
  ASSERT_TRUE(reader.Read(special_leaf).ok());
  EXPECT_EQ(db_.locks().HeldModes(reader.id(),
                                  LockResource::Instance(special_leaf)),
            std::vector<LockMode>{LockMode::kS});
  EXPECT_EQ(db_.locks().HeldModes(reader.id(), LockResource::Class(special)),
            std::vector<LockMode>{LockMode::kIS});
  // ...so a writer of it is kept out by that S lock.
  TransactionContext writer(&db_);
  EXPECT_EQ(writer.SetAttribute(special_leaf, "W", Value::Integer(1)).code(),
            StatusCode::kLockTimeout);
}

// The root's own class is not a component class of its composite (§7
// step 3 locks only the classes below it), so in a recursive hierarchy an
// instance of the root's class below the root is outside the composite
// lock too: it is read under its own S lock and keeps writers out itself.
TEST_F(TransactionTest, CompositeReadLocksRootClassComponentsItself) {
  const ClassId gear = *db_.MakeClass(ClassSpec{
      .name = "Gear",
      .attributes = {CompositeAttr("Subs", "Gear", /*exclusive=*/true,
                                   /*dependent=*/true, /*is_set=*/true),
                     WeakAttr("W", "integer")}});
  const Uid root = *db_.objects().Make(gear, {}, {});
  const Uid sub = *db_.objects().Make(gear, {{root, "Subs"}}, {});
  TransactionContext reader(&db_);
  ASSERT_TRUE(reader.LockCompositeForRead(root).ok());
  ASSERT_TRUE(reader.Read(sub).ok());
  EXPECT_EQ(db_.locks().HeldModes(reader.id(), LockResource::Instance(sub)),
            std::vector<LockMode>{LockMode::kS});
  TransactionContext writer(&db_);
  EXPECT_EQ(writer.SetAttribute(sub, "W", Value::Integer(1)).code(),
            StatusCode::kLockTimeout);
}

// Deletion rides the same rule: the composite write lock's class locks name
// the domain classes only, so a doomed component that is an instance of a
// subclass is X-locked itself, and a writer holding it keeps the deletion
// out until it commits.
TEST_F(TransactionTest, DeleteLocksSubclassComponentsItself) {
  const ClassId asm_cls = *db_.MakeClass(ClassSpec{
      .name = "Asm",
      .attributes = {CompositeAttr("Parts", "Part", /*exclusive=*/true,
                                   /*dependent=*/true, /*is_set=*/true)}});
  const ClassId special = *db_.MakeClass(ClassSpec{
      .name = "SpecialPart",
      .superclasses = {"Part"},
      .attributes = {WeakAttr("W", "integer")}});
  const Uid root = *db_.objects().Make(asm_cls, {}, {});
  const Uid component = *db_.objects().Make(special, {{root, "Parts"}}, {});

  TransactionContext writer(&db_);
  ASSERT_TRUE(writer.SetAttribute(component, "W", Value::Integer(1)).ok());
  TransactionContext deleter(&db_);
  EXPECT_EQ(deleter.Delete(root).code(), StatusCode::kLockTimeout);
  ASSERT_TRUE(deleter.Abort().ok());
  ASSERT_TRUE(writer.Commit().ok());

  TransactionContext retry(&db_);
  ASSERT_TRUE(retry.Delete(root).ok());
  ASSERT_TRUE(retry.Commit().ok());
  EXPECT_FALSE(db_.objects().Exists(component));
  EXPECT_EQ(db_.locks().grant_count(), 0u);
  ORION_EXPECT_CONSISTENT(db_);
}

// The same for a recursive hierarchy: a doomed component of the root's own
// class is outside the composite lock and is X-locked itself.
TEST_F(TransactionTest, DeleteLocksRootClassComponentsItself) {
  const ClassId cog = *db_.MakeClass(ClassSpec{
      .name = "Cog",
      .attributes = {CompositeAttr("Sub", "Cog", /*exclusive=*/true,
                                   /*dependent=*/true, /*is_set=*/true),
                     WeakAttr("W", "integer")}});
  const Uid root = *db_.objects().Make(cog, {}, {});
  const Uid sub = *db_.objects().Make(cog, {{root, "Sub"}}, {});

  TransactionContext writer(&db_);
  ASSERT_TRUE(writer.SetAttribute(sub, "W", Value::Integer(1)).ok());
  TransactionContext deleter(&db_);
  EXPECT_EQ(deleter.Delete(root).code(), StatusCode::kLockTimeout);
  ASSERT_TRUE(deleter.Abort().ok());
  ASSERT_TRUE(writer.Commit().ok());

  TransactionContext retry(&db_);
  ASSERT_TRUE(retry.Delete(root).ok());
  ASSERT_TRUE(retry.Commit().ok());
  EXPECT_FALSE(db_.objects().Exists(sub));
  EXPECT_EQ(db_.locks().grant_count(), 0u);
  ORION_EXPECT_CONSISTENT(db_);
}

// Reading components without instance locks must not let writers in: the
// component-class locks of §7 still exclude a direct writer of a
// grandchild, a structural change below the root, and a second root's
// composite write lock on the shared middle level (IXOS vs ISOS).
TEST_F(TransactionTest, CoveredComponentsStillExcludeWriters) {
  MakeAssemblyClasses();
  const std::vector<Uid> members = MakeAssembly();
  const Uid top = members[0];
  const Uid mid = members[1];
  const Uid leaf = members[3];
  const Uid top2 = *db_.objects().Make(top_, {}, {});
  ASSERT_TRUE(db_.objects().MakeComponent(mid, top2, "Mids").ok());

  TransactionContext reader(&db_);
  ASSERT_TRUE(reader.LockCompositeForRead(top).ok());
  ASSERT_TRUE(reader.Read(leaf).ok());
  ASSERT_TRUE(reader.Read(mid).ok());

  TransactionContext writer(&db_);
  EXPECT_EQ(writer.SetAttribute(leaf, "W", Value::Integer(1)).code(),
            StatusCode::kLockTimeout);
  TransactionContext maker(&db_);
  EXPECT_EQ(maker.Make("Leaf", {{mid, "Leaves"}}).status().code(),
            StatusCode::kLockTimeout);
  TransactionContext deleter(&db_);
  EXPECT_EQ(deleter.Delete(leaf).code(), StatusCode::kLockTimeout);
  TransactionContext other_root(&db_);
  EXPECT_EQ(db_.protocol()
                .LockComposite(other_root.id(), top2, /*write=*/true)
                .status()
                .code(),
            StatusCode::kLockTimeout);
  EXPECT_TRUE(Holds(
      db_.locks().HeldModes(other_root.id(), LockResource::Instance(top2)),
      LockMode::kX));
  EXPECT_TRUE(db_.locks()
                  .HeldModes(other_root.id(), LockResource::Class(mid_))
                  .empty());
  ASSERT_TRUE(other_root.Abort().ok());
  ASSERT_TRUE(writer.Abort().ok());

  ASSERT_TRUE(reader.Commit().ok());
  TransactionContext after(&db_);
  EXPECT_TRUE(after.SetAttribute(leaf, "W", Value::Integer(2)).ok());
  ASSERT_TRUE(after.Commit().ok());
}

// A covered component that a deferred type change (§4.3) still has to
// catch up keeps the read path's upgrade: Read X-locks it and journals the
// before-image, and an abort restores the pre-catch-up state.
TEST_F(TransactionTest, CoveredReadUpgradesPendingCatchUpAndAbortRestores) {
  MakeAssemblyClasses();
  const std::vector<Uid> members = MakeAssembly();
  const Uid leaf = members[3];
  // Leaves: exclusive dependent -> exclusive independent (I4), deferred.
  ASSERT_TRUE(db_.ChangeAttributeType(mid_, "Leaves", true, true, false,
                                      ChangeMode::kDeferred)
                  .ok());
  const uint64_t stale_cc = db_.objects().Peek(leaf)->cc();
  ASSERT_LT(stale_cc, db_.schema().CurrentCc());
  ASSERT_TRUE(db_.objects().Peek(leaf)->reverse_refs().at(0).dependent);

  TransactionContext reader(&db_);
  ASSERT_TRUE(reader.LockCompositeForRead(members[0]).ok());
  auto got = reader.Read(leaf);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE((*got)->reverse_refs().at(0).dependent);
  EXPECT_EQ((*got)->cc(), db_.schema().CurrentCc());
  EXPECT_EQ(db_.locks().HeldModes(reader.id(), LockResource::Instance(leaf)),
            std::vector<LockMode>{LockMode::kX});
  EXPECT_EQ(reader.journal_size(), 1u);

  ASSERT_TRUE(reader.Abort().ok());
  const Object* restored = db_.objects().Peek(leaf);
  EXPECT_EQ(restored->cc(), stale_cc);
  EXPECT_TRUE(restored->reverse_refs().at(0).dependent);
  EXPECT_EQ(db_.locks().grant_count(), 0u);
  ORION_EXPECT_CONSISTENT(db_);
}

TEST_F(TransactionTest, FinishedTransactionsRejectFurtherWork) {
  TransactionContext txn(&db_);
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(txn.Make("Node").status().code(),
            StatusCode::kTransactionInvalid);
  EXPECT_EQ(txn.Commit().code(), StatusCode::kTransactionInvalid);
  EXPECT_EQ(txn.Abort().code(), StatusCode::kTransactionInvalid);
}

TEST_F(TransactionTest, AuthorizationGatesTransactionalAccess) {
  Uid root = *db_.objects().Make(node_, {}, {});
  ASSERT_TRUE(db_.authz()
                  .GrantOnObject("reader", root,
                                 AuthSpec{true, true, AuthType::kRead})
                  .ok());
  TransactionContext txn(&db_, std::chrono::milliseconds(0), "reader");
  EXPECT_TRUE(txn.Read(root).ok());
  EXPECT_EQ(txn.SetAttribute(root, "Name", Value::String("x")).code(),
            StatusCode::kAccessDenied);
  EXPECT_EQ(txn.Delete(root).code(), StatusCode::kAccessDenied);
  ASSERT_TRUE(txn.Commit().ok());
  // A user with no grants reads nothing.
  TransactionContext stranger(&db_, std::chrono::milliseconds(0), "nobody");
  EXPECT_EQ(stranger.Read(root).status().code(), StatusCode::kAccessDenied);
}

TEST_F(TransactionTest, AbortAfterMixedOperationsIsExact) {
  // Build some committed state, snapshot-compare after an aborted flurry.
  Uid root = *db_.objects().Make(node_, {},
                                 {{"Name", Value::String("stable")}});
  Uid p1 = *db_.objects().Make(part_, {{root, "Shared"}}, {});
  const size_t objects_before = db_.objects().object_count();
  {
    TransactionContext txn(&db_);
    (void)txn.SetAttribute(root, "Name", Value::String("dirty"));
    Uid n2 = *txn.Make("Node");
    (void)txn.MakeComponent(p1, n2, "Shared");
    (void)txn.RemoveComponent(p1, root, "Shared");
    (void)*txn.Make("Part", {{n2, "DepParts"}});
    ASSERT_TRUE(txn.Abort().ok());
  }
  EXPECT_EQ(db_.objects().object_count(), objects_before);
  EXPECT_EQ(db_.objects().Peek(root)->Get("Name"), Value::String("stable"));
  EXPECT_TRUE(db_.objects().Peek(root)->Get("Shared").References(p1));
  EXPECT_EQ(db_.objects().Peek(p1)->reverse_refs().size(), 1u);
  ORION_EXPECT_CONSISTENT(db_);
}

}  // namespace
}  // namespace orion
