#include "lock/composite_locking.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/database.h"

namespace orion {
namespace {

/// The Figure 9 configuration: class I reaches C through exclusive
/// composite references; classes J and K reach C through shared ones; C
/// reaches W through exclusive ones.
class CompositeLockingTest : public ::testing::Test {
 protected:
  CompositeLockingTest() {
    w_ = *db_.MakeClass(ClassSpec{.name = "W"});
    c_ = *db_.MakeClass(ClassSpec{
        .name = "C",
        .attributes = {CompositeAttr("Ws", "W", /*exclusive=*/true,
                                     /*dependent=*/false, /*is_set=*/true)}});
    i_ = *db_.MakeClass(ClassSpec{
        .name = "I",
        .attributes = {CompositeAttr("Cs", "C", /*exclusive=*/true,
                                     /*dependent=*/false, /*is_set=*/true)}});
    j_ = *db_.MakeClass(ClassSpec{
        .name = "J",
        .attributes = {CompositeAttr("Cs", "C", /*exclusive=*/false,
                                     /*dependent=*/false, /*is_set=*/true)}});
    k_ = *db_.MakeClass(ClassSpec{
        .name = "K",
        .attributes = {CompositeAttr("Cs", "C", /*exclusive=*/false,
                                     /*dependent=*/false, /*is_set=*/true)}});

    inst_i_ = *db_.objects().Make(i_, {}, {});
    inst_j_ = *db_.objects().Make(j_, {}, {});
    inst_k_ = *db_.objects().Make(k_, {}, {});
    // Instance[c] exclusively part of i; Instance[c'] shared by j and k.
    c_of_i_ = *db_.objects().Make(c_, {{inst_i_, "Cs"}}, {});
    c_shared_ = *db_.objects().Make(
        c_, {{inst_j_, "Cs"}, {inst_k_, "Cs"}}, {});
    w_of_ci_ = *db_.objects().Make(w_, {{c_of_i_, "Ws"}}, {});
    w_of_shared_ = *db_.objects().Make(w_, {{c_shared_, "Ws"}}, {});
  }

  CompositeLockProtocol& protocol() { return db_.protocol(); }
  LockManager& locks() { return db_.locks(); }

  Database db_;
  ClassId i_, j_, k_, c_, w_;
  Uid inst_i_, inst_j_, inst_k_, c_of_i_, c_shared_, w_of_ci_, w_of_shared_;
};

TEST_F(CompositeLockingTest, ComponentClassClosureClassifiesEdges) {
  auto find = [](const std::vector<ComponentClassLock>& v, ClassId cls) {
    auto it = std::find_if(v.begin(), v.end(), [cls](const auto& e) {
      return e.cls == cls;
    });
    EXPECT_NE(it, v.end());
    return it == v.end() ? ComponentClassLock{} : *it;
  };
  auto closure_i = protocol().ComponentClassClosure(i_);
  ASSERT_TRUE(closure_i.ok());
  ASSERT_EQ(closure_i->size(), 2u);
  EXPECT_FALSE(find(*closure_i, c_).shared);
  EXPECT_FALSE(find(*closure_i, w_).shared);

  auto closure_j = protocol().ComponentClassClosure(j_);
  ASSERT_TRUE(closure_j.ok());
  ASSERT_EQ(closure_j->size(), 2u);
  EXPECT_TRUE(find(*closure_j, c_).shared);
  // W is reached from C through exclusive references.
  EXPECT_FALSE(find(*closure_j, w_).shared);
}

TEST_F(CompositeLockingTest, LockCompositeTakesThePaperModes) {
  // Example 2: "Lock class K in IS mode; lock composite object Instance[k]
  // in S mode; lock class C in ISOS mode; lock class W in ISO mode."
  TxnId t = locks().Begin();
  ASSERT_TRUE(protocol().LockComposite(t, inst_k_, /*write=*/false).ok());
  EXPECT_EQ(locks().HeldModes(t, LockResource::Class(k_)),
            std::vector<LockMode>{LockMode::kIS});
  EXPECT_EQ(locks().HeldModes(t, LockResource::Instance(inst_k_)),
            std::vector<LockMode>{LockMode::kS});
  EXPECT_EQ(locks().HeldModes(t, LockResource::Class(c_)),
            std::vector<LockMode>{LockMode::kISOS});
  EXPECT_EQ(locks().HeldModes(t, LockResource::Class(w_)),
            std::vector<LockMode>{LockMode::kISO});
}

TEST_F(CompositeLockingTest, Example1UpdateTakesIXO) {
  // Example 1: update composite rooted at Instance[i]: class I in IX,
  // Instance[i] in X, class C in IXO (exclusive references), class W IXO.
  TxnId t = locks().Begin();
  ASSERT_TRUE(protocol().LockComposite(t, inst_i_, /*write=*/true).ok());
  EXPECT_EQ(locks().HeldModes(t, LockResource::Class(i_)),
            std::vector<LockMode>{LockMode::kIX});
  EXPECT_EQ(locks().HeldModes(t, LockResource::Instance(inst_i_)),
            std::vector<LockMode>{LockMode::kX});
  EXPECT_EQ(locks().HeldModes(t, LockResource::Class(c_)),
            std::vector<LockMode>{LockMode::kIXO});
}

TEST_F(CompositeLockingTest, PaperExamples1And2AreCompatible) {
  TxnId t1 = locks().Begin();
  TxnId t2 = locks().Begin();
  ASSERT_TRUE(protocol().LockComposite(t1, inst_i_, /*write=*/true).ok());
  // "Examples 1 and 2 are compatible."
  EXPECT_TRUE(protocol().LockComposite(t2, inst_k_, /*write=*/false).ok());
}

TEST_F(CompositeLockingTest, PaperExample3ConflictsWithBoth) {
  TxnId t1 = locks().Begin();
  TxnId t2 = locks().Begin();
  TxnId t3 = locks().Begin();
  ASSERT_TRUE(protocol().LockComposite(t1, inst_i_, /*write=*/true).ok());
  ASSERT_TRUE(protocol().LockComposite(t2, inst_k_, /*write=*/false).ok());
  // "Example 3 is incompatible with both 1 and 2": updating the composite
  // rooted at Instance[j] needs IXOS on class C.
  Status s = protocol().LockComposite(t3, inst_j_, /*write=*/true).status();
  EXPECT_EQ(s.code(), StatusCode::kLockTimeout);
}

TEST_F(CompositeLockingTest, TwoWritersOnDifferentExclusiveComposites) {
  // Two updates of *different* composites over exclusive references are
  // the headline concurrency win of the protocol.
  ClassId i2 = *db_.MakeClass(ClassSpec{
      .name = "I2",
      .attributes = {CompositeAttr("Cs", "C", true, false, true)}});
  Uid other_root = *db_.objects().Make(i2, {}, {});
  TxnId t1 = locks().Begin();
  TxnId t2 = locks().Begin();
  ASSERT_TRUE(protocol().LockComposite(t1, inst_i_, /*write=*/true).ok());
  EXPECT_TRUE(protocol().LockComposite(t2, other_root, /*write=*/true).ok());
  // But the same root is exclusive.
  TxnId t3 = locks().Begin();
  EXPECT_EQ(
      protocol().LockComposite(t3, inst_i_, /*write=*/false).status().code(),
      StatusCode::kLockTimeout);
}

TEST_F(CompositeLockingTest, CompositeReaderBlocksDirectComponentWriter) {
  // The O-modes exist to fence off direct instance access: a composite
  // reader holds ISO on class C, so a direct writer (IX on class C) blocks.
  TxnId reader = locks().Begin();
  TxnId writer = locks().Begin();
  ASSERT_TRUE(
      protocol().LockComposite(reader, inst_i_, /*write=*/false).ok());
  Status s = protocol().LockInstance(writer, c_of_i_, /*write=*/true);
  EXPECT_EQ(s.code(), StatusCode::kLockTimeout);
  // A direct reader is fine (IS vs ISO).
  TxnId reader2 = locks().Begin();
  EXPECT_TRUE(
      protocol().LockInstance(reader2, c_of_i_, /*write=*/false).ok());
}

TEST_F(CompositeLockingTest, CompositeWriterBlocksDirectReaders) {
  // IXO conflicts with IS: "if there is even one ... writer via the
  // composite class hierarchy, there cannot be any direct readers."
  TxnId writer = locks().Begin();
  TxnId reader = locks().Begin();
  ASSERT_TRUE(
      protocol().LockComposite(writer, inst_i_, /*write=*/true).ok());
  EXPECT_EQ(protocol().LockInstance(reader, c_of_i_, /*write=*/false).code(),
            StatusCode::kLockTimeout);
}

TEST_F(CompositeLockingTest, RootsOfFindsAllRoots) {
  auto roots = protocol().RootsOf(c_shared_);
  ASSERT_TRUE(roots.ok());
  std::vector<Uid> expected = {inst_j_, inst_k_};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(*roots, expected);
  EXPECT_EQ(*protocol().RootsOf(inst_i_), std::vector<Uid>{inst_i_});
  EXPECT_EQ(*protocol().RootsOf(w_of_ci_), std::vector<Uid>{inst_i_});
}

TEST_F(CompositeLockingTest, RootLockFreezesAllRootsOfSharedComponent) {
  // The [GARZ88] algorithm on Figure 5's shape: T1 reads the shared
  // component, locking *both* roots.
  TxnId t1 = locks().Begin();
  ASSERT_TRUE(protocol().RootLock(t1, c_shared_, /*write=*/false).ok());
  EXPECT_EQ(locks().HeldModes(t1, LockResource::Instance(inst_j_)),
            std::vector<LockMode>{LockMode::kS});
  EXPECT_EQ(locks().HeldModes(t1, LockResource::Instance(inst_k_)),
            std::vector<LockMode>{LockMode::kS});

  // The anomaly: T2 updates a *different* component under k (disjoint from
  // what T1 reads), but the root lock on k false-conflicts.
  TxnId t2 = locks().Begin();
  Status s = protocol().RootLock(t2, w_of_shared_, /*write=*/true);
  EXPECT_EQ(s.code(), StatusCode::kLockTimeout);
}

TEST_F(CompositeLockingTest, RootLockWorksForExclusiveHierarchies) {
  // For physical (exclusive) hierarchies the algorithm is sound and cheap:
  // one root lock per composite.
  TxnId t1 = locks().Begin();
  TxnId t2 = locks().Begin();
  ASSERT_TRUE(protocol().RootLock(t1, w_of_ci_, /*write=*/true).ok());
  // A second writer on the same composite blocks at the root...
  EXPECT_EQ(protocol().RootLock(t2, c_of_i_, /*write=*/true).code(),
            StatusCode::kLockTimeout);
  // ...and is free after release.
  ASSERT_TRUE(locks().Release(t1).ok());
  EXPECT_TRUE(protocol().RootLock(t2, c_of_i_, /*write=*/true).ok());
}

TEST_F(CompositeLockingTest, MissingObjectsAreNotFound) {
  TxnId t = locks().Begin();
  EXPECT_EQ(protocol().LockComposite(t, Uid{999}, false).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(protocol().LockInstance(t, Uid{999}, false).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(protocol().RootLock(t, Uid{999}, false).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(protocol().ComponentClassClosure(9999).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace orion
