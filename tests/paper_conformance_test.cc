// Paper conformance suite: one test per normative statement in "Composite
// Objects Revisited" (SIGMOD 1989), quoting the sentence it asserts.
// Scattered module tests cover these behaviours too; this file is the
// section-by-section index from paper text to executable check.

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/transaction.h"
#include "query/traversal.h"

namespace orion {
namespace {

/// Vehicle (Example 1) + Document (Example 2) schema, shared by most
/// sections.
class PaperConformanceTest : public ::testing::Test {
 protected:
  PaperConformanceTest() {
    body_ = *db_.MakeClass(ClassSpec{.name = "AutoBody"});
    para_ = *db_.MakeClass(ClassSpec{.name = "Paragraph"});
    image_ = *db_.MakeClass(ClassSpec{.name = "Image"});
    vehicle_ = *db_.MakeClass(ClassSpec{
        .name = "Vehicle",
        .attributes = {CompositeAttr("Body", "AutoBody", /*exclusive=*/true,
                                     /*dependent=*/false)}});
    section_ = *db_.MakeClass(ClassSpec{
        .name = "Section",
        .attributes = {CompositeAttr("Content", "Paragraph",
                                     /*exclusive=*/false, /*dependent=*/true,
                                     /*is_set=*/true)}});
    document_ = *db_.MakeClass(ClassSpec{
        .name = "Document",
        .attributes = {
            CompositeAttr("Sections", "Section", /*exclusive=*/false,
                          /*dependent=*/true, /*is_set=*/true),
            CompositeAttr("Figures", "Image", /*exclusive=*/false,
                          /*dependent=*/false, /*is_set=*/true),
            CompositeAttr("Annotations", "Paragraph", /*exclusive=*/true,
                          /*dependent=*/true, /*is_set=*/true),
            WeakAttr("Cites", "Document", /*is_set=*/true)}});
  }

  Uid Make(ClassId c) { return *db_.objects().Make(c, {}, {}); }

  Database db_;
  ClassId vehicle_, body_, document_, section_, para_, image_;
};

// ===== Section 1: the three shortcomings of [KIM87b], eliminated =========

TEST_F(PaperConformanceTest, S1_SharedPartHierarchies) {
  // "This is certainly the right model for a physical part hierarchy ...
  // However, this is not acceptable for a logical part hierarchy; for
  // example, an identical chapter may be a part of two different books."
  Uid book1 = Make(document_);
  Uid book2 = Make(document_);
  Uid chapter = Make(section_);
  EXPECT_TRUE(db_.objects().MakeComponent(chapter, book1, "Sections").ok());
  EXPECT_TRUE(db_.objects().MakeComponent(chapter, book2, "Sections").ok());
}

TEST_F(PaperConformanceTest, S1_BottomUpCreation) {
  // "Second, the model forces a top-down creation ... This prevents a
  // bottom-up creation of objects by assembling already existing objects."
  Uid body = Make(body_);  // the component exists before any parent
  auto vehicle =
      db_.objects().Make(vehicle_, {}, {{"Body", Value::Ref(body)}});
  EXPECT_TRUE(vehicle.ok());
}

TEST_F(PaperConformanceTest, S1_ExistenceIndependentComponents) {
  // "Sometimes, however, it impedes reuse of objects in a complex design
  // environment" — independent references fix this: components survive.
  Uid body = Make(body_);
  Uid vehicle =
      *db_.objects().Make(vehicle_, {}, {{"Body", Value::Ref(body)}});
  ASSERT_TRUE(db_.objects().Delete(vehicle).ok());
  EXPECT_TRUE(db_.objects().Exists(body));
}

// ===== Section 2.1: the five reference kinds ==============================

TEST_F(PaperConformanceTest, S21_FiveKindsOfReference) {
  AttributeSpec weak;
  EXPECT_EQ(weak.kind(), RefKind::kWeak);
  EXPECT_EQ(CompositeAttr("a", "x", true, true).kind(),
            RefKind::kDependentExclusive);
  EXPECT_EQ(CompositeAttr("a", "x", true, false).kind(),
            RefKind::kIndependentExclusive);
  EXPECT_EQ(CompositeAttr("a", "x", false, true).kind(),
            RefKind::kDependentShared);
  EXPECT_EQ(CompositeAttr("a", "x", false, false).kind(),
            RefKind::kIndependentShared);
}

TEST_F(PaperConformanceTest, S21_RootMayChange) {
  // "Under our extended model, the root of a composite object may change;
  // that is, an object which is the current root ... may become the target
  // of a composite reference from another object."
  Uid doc = Make(document_);
  Uid sec = *db_.objects().Make(section_, {{doc, "Sections"}}, {});
  (void)sec;
  // doc is currently a root; now a bigger document absorbs it?  Documents
  // reference Sections, so build the shape with sections instead: sec2 is
  // a root, then becomes a component of doc.
  Uid sec2 = Make(section_);
  Uid p = *db_.objects().Make(para_, {{sec2, "Content"}}, {});
  (void)p;
  EXPECT_TRUE(ParentsOf(db_.objects(), sec2)->empty());  // sec2 is a root
  ASSERT_TRUE(db_.objects().MakeComponent(sec2, doc, "Sections").ok());
  EXPECT_FALSE(ParentsOf(db_.objects(), sec2)->empty());  // no longer a root
}

// ===== Section 2.2: formal deletion semantics (Definition 1) ==============

TEST_F(PaperConformanceTest, S22_Del1_IndependentExclusive) {
  // "1) Independent exclusive composite reference from O' to O:
  //  del(O') =/=> del(O)."
  Uid body = Make(body_);
  Uid v = *db_.objects().Make(vehicle_, {}, {{"Body", Value::Ref(body)}});
  ASSERT_TRUE(db_.objects().Delete(v).ok());
  EXPECT_TRUE(db_.objects().Exists(body));
}

TEST_F(PaperConformanceTest, S22_Del2_DependentExclusive) {
  // "2) Dependent exclusive composite reference from O' to O:
  //  del(O') ==> del(O)."
  Uid doc = Make(document_);
  Uid note = *db_.objects().Make(para_, {{doc, "Annotations"}}, {});
  ASSERT_TRUE(db_.objects().Delete(doc).ok());
  EXPECT_FALSE(db_.objects().Exists(note));
}

TEST_F(PaperConformanceTest, S22_Del3_IndependentShared) {
  // "3) Independent shared composite reference from O' to O:
  //  del(O') =/=> del(O)."
  Uid img = Make(image_);
  Uid doc = *db_.objects().Make(document_, {},
                                {{"Figures", Value::RefSet({img})}});
  ASSERT_TRUE(db_.objects().Delete(doc).ok());
  EXPECT_TRUE(db_.objects().Exists(img));
}

TEST_F(PaperConformanceTest, S22_Del4_DependentSharedLastParent) {
  // "4) Dependent shared composite reference from O' to O:
  //  del(O') ==> del(O) only if DS(O) = {O'}; otherwise DS(O) = DS(O)-O'."
  Uid d1 = Make(document_);
  Uid d2 = Make(document_);
  Uid sec = *db_.objects().Make(section_,
                                {{d1, "Sections"}, {d2, "Sections"}}, {});
  ASSERT_TRUE(db_.objects().Delete(d1).ok());
  ASSERT_TRUE(db_.objects().Exists(sec));
  EXPECT_EQ(db_.objects().Peek(sec)->DsSet(), std::vector<Uid>{d2});
  ASSERT_TRUE(db_.objects().Delete(d2).ok());
  EXPECT_FALSE(db_.objects().Exists(sec));
}

TEST_F(PaperConformanceTest, S22_TopologyRule1and2_AtMostOneExclusive) {
  // "card(IX(O)) <= 1, card(DX(O)) <= 1" and "if an object O has an
  // independent exclusive composite reference to it, then it cannot have a
  // dependent exclusive composite reference from another object."
  Uid body = Make(body_);
  Uid v1 = *db_.objects().Make(vehicle_, {}, {{"Body", Value::Ref(body)}});
  (void)v1;
  Uid v2 = Make(vehicle_);
  EXPECT_EQ(db_.objects().MakeComponent(body, v2, "Body").code(),
            StatusCode::kTopologyViolation);
  // Dependent-exclusive after independent-exclusive is equally illegal.
  ClassId holder = *db_.MakeClass(ClassSpec{
      .name = "DepHolder",
      .attributes = {CompositeAttr("B", "AutoBody", true, true)}});
  Uid h = Make(holder);
  EXPECT_EQ(db_.objects().MakeComponent(body, h, "B").code(),
            StatusCode::kTopologyViolation);
}

TEST_F(PaperConformanceTest, S22_TopologyRule3_ExclusiveExcludesShared) {
  // "If object O has an exclusive ... composite reference from an object,
  // then it cannot have shared ... composite references from other
  // objects; and vice versa."
  Uid doc = Make(document_);
  Uid note = *db_.objects().Make(para_, {{doc, "Annotations"}}, {});
  Uid sec = Make(section_);
  EXPECT_EQ(db_.objects().MakeComponent(note, sec, "Content").code(),
            StatusCode::kTopologyViolation);
  // Vice versa: shared first, exclusive later.
  Uid p2 = *db_.objects().Make(para_, {{sec, "Content"}}, {});
  Uid doc2 = Make(document_);
  EXPECT_EQ(db_.objects().MakeComponent(p2, doc2, "Annotations").code(),
            StatusCode::kTopologyViolation);
}

TEST_F(PaperConformanceTest, S22_TopologyRule4_WeakReferencesUnlimited) {
  // "An object O can have any number of weak references to it, even when
  // it has composite references to it."
  Uid doc = Make(document_);
  Uid note = *db_.objects().Make(para_, {{doc, "Annotations"}}, {});
  (void)note;
  for (int i = 0; i < 5; ++i) {
    Uid citing = Make(document_);
    EXPECT_TRUE(db_.objects()
                    .SetAttribute(citing, "Cites", Value::RefSet({doc}))
                    .ok());
  }
}

TEST_F(PaperConformanceTest, S22_LevelNComponent) {
  // "We say that O is a level n component of O' if the shortest path
  // between O and O' has n composite references."
  Uid doc = Make(document_);
  Uid sec = *db_.objects().Make(section_, {{doc, "Sections"}}, {});
  Uid p = *db_.objects().Make(para_, {{sec, "Content"}}, {});
  EXPECT_EQ(ComponentLevel(db_.objects(), sec, doc)->value(), 1);
  EXPECT_EQ(ComponentLevel(db_.objects(), p, doc)->value(), 2);
}

// ===== Section 2.3: syntax and creation semantics ==========================

TEST_F(PaperConformanceTest, S23_DefaultsAreExclusiveDependent) {
  // "The default value for both the exclusive and dependent keywords is
  // True (to be compatible with ... ORION)."
  AttributeSpec spec;
  spec.composite = true;
  EXPECT_TRUE(spec.exclusive);
  EXPECT_TRUE(spec.dependent);
}

TEST_F(PaperConformanceTest, S23_MultiParentMakeNeedsShared) {
  // "When more than one (ParentObject.i ParentAttributeName.i) is
  // specified ... because of topology rule 3, these attributes must be
  // shared composite attributes."
  Uid d1 = Make(document_);
  Uid d2 = Make(document_);
  EXPECT_TRUE(db_.objects()
                  .Make(section_, {{d1, "Sections"}, {d2, "Sections"}}, {})
                  .ok());
  Uid sec = Make(section_);
  auto mixed = db_.objects().Make(
      para_, {{d1, "Annotations"}, {sec, "Content"}}, {});
  EXPECT_EQ(mixed.status().code(), StatusCode::kTopologyViolation);
}

TEST_F(PaperConformanceTest, S23_MakeComponentPreChecks) {
  // "If an already existing object is made a part of a composite object
  // through an exclusive reference, the system must check if there are no
  // other composite references to that object.  Similarly, if ... through
  // a shared reference, the system has to ensure that there is no
  // exclusive reference."
  Uid doc = Make(document_);
  Uid sec = Make(section_);
  Uid p = *db_.objects().Make(para_, {{sec, "Content"}}, {});  // shared
  EXPECT_EQ(db_.objects().MakeComponent(p, doc, "Annotations").code(),
            StatusCode::kTopologyViolation);
}

// ===== Section 2.4: reverse references ======================================

TEST_F(PaperConformanceTest, S24_ReverseReferenceFlags) {
  // "A reverse composite reference actually consists of a couple of flags
  // in addition to the object identifier of a parent.  One flag (D) ...
  // the other flag (X)."
  Uid doc = Make(document_);
  Uid sec = *db_.objects().Make(section_, {{doc, "Sections"}}, {});
  const auto& refs = db_.objects().Peek(sec)->reverse_refs();
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].parent, doc);
  EXPECT_TRUE(refs[0].dependent);   // D flag
  EXPECT_FALSE(refs[0].exclusive);  // X flag
}

TEST_F(PaperConformanceTest, S24_NumberOfReverseRefsEqualsParents) {
  // "The number of reverse composite references in a component object is
  // equal to the number of parent objects."
  Uid d1 = Make(document_);
  Uid d2 = Make(document_);
  Uid d3 = Make(document_);
  Uid sec = *db_.objects().Make(
      section_, {{d1, "Sections"}, {d2, "Sections"}, {d3, "Sections"}}, {});
  EXPECT_EQ(db_.objects().Peek(sec)->reverse_refs().size(), 3u);
  EXPECT_EQ(ParentsOf(db_.objects(), sec)->size(), 3u);
}

// ===== Section 3: operations ===============================================

TEST_F(PaperConformanceTest, S3_ComponentOfIsShorthandForScan) {
  // "The message component-of can be seen as a shorthand" for
  // components-of followed by a membership scan.
  Uid doc = Make(document_);
  Uid sec = *db_.objects().Make(section_, {{doc, "Sections"}}, {});
  Uid p = *db_.objects().Make(para_, {{sec, "Content"}}, {});
  auto comps = ComponentsOf(db_.objects(), doc);
  const bool by_scan =
      std::find(comps->begin(), comps->end(), p) != comps->end();
  EXPECT_EQ(by_scan, *ComponentOf(db_.objects(), p, doc));
}

TEST_F(PaperConformanceTest, S3_AncestorViaComponentOfSwap) {
  // "There is no need to define a message for determining if an Object1
  // belongs to the ancestor set of an Object2, since ... the message
  // component-of can be used, by passing to it Object2 as the first
  // argument and Object1 as second."
  Uid doc = Make(document_);
  Uid sec = *db_.objects().Make(section_, {{doc, "Sections"}}, {});
  EXPECT_TRUE(*ComponentOf(db_.objects(), sec, doc));
  auto ancestors = AncestorsOf(db_.objects(), sec);
  EXPECT_EQ(*ancestors, std::vector<Uid>{doc});
}

// ===== Section 5: versions =================================================

TEST_F(PaperConformanceTest, S5_CV1X_GenericLevelReferenceLicensesVersions) {
  // CV-1X: "The existence of a composite reference from a generic instance
  // g-c ... to g-d means that any number of version instances of g-c may
  // have the same composite reference to g-d."
  ClassId d_cls =
      *db_.MakeClass(ClassSpec{.name = "D", .versionable = true});
  (void)d_cls;
  ClassId c_cls = *db_.MakeClass(ClassSpec{
      .name = "C",
      .attributes = {CompositeAttr("Part", "D", true, false)},
      .versionable = true});
  (void)c_cls;
  Uid d_v = *db_.Make("D");
  Uid g_d = db_.objects().Peek(d_v)->generic();
  Uid c_v0 = *db_.Make("C");
  ASSERT_TRUE(db_.objects().MakeComponent(g_d, c_v0, "Part").ok());
  // Derivations keep referencing g-d; all are legal.
  Uid c_v1 = *db_.versions().Derive(c_v0);
  Uid c_v2 = *db_.versions().Derive(c_v1);
  EXPECT_EQ(db_.objects().Peek(c_v1)->Get("Part"), Value::Ref(g_d));
  EXPECT_EQ(db_.objects().Peek(c_v2)->Get("Part"), Value::Ref(g_d));
}

TEST_F(PaperConformanceTest, S5_DefaultVersionByTimestamp) {
  // "In the absence of a user-specified default, the system determines the
  // system default on the basis of a timestamp ordering of the creation of
  // the version instances."
  ClassId d_cls =
      *db_.MakeClass(ClassSpec{.name = "D", .versionable = true});
  (void)d_cls;
  Uid v0 = *db_.Make("D");
  Uid g = db_.objects().Peek(v0)->generic();
  Uid v1 = *db_.versions().Derive(v0);
  EXPECT_EQ(*db_.versions().DefaultVersion(g), v1);
  ASSERT_TRUE(db_.versions().SetDefaultVersion(g, v0).ok());
  EXPECT_EQ(*db_.versions().DefaultVersion(g), v0);
}

TEST_F(PaperConformanceTest, S5_StaticAndDynamicBinding) {
  // "O' is said to be statically bound to O, if O' references directly a
  // specific version instance of O.  If O' references the generic
  // instance of O, O' is said to be dynamically bound."
  ClassId d_cls =
      *db_.MakeClass(ClassSpec{.name = "D", .versionable = true});
  (void)d_cls;
  Uid v0 = *db_.Make("D");
  Uid g = db_.objects().Peek(v0)->generic();
  EXPECT_FALSE(db_.versions().IsDynamicBinding(v0));
  EXPECT_TRUE(db_.versions().IsDynamicBinding(g));
  EXPECT_EQ(*db_.versions().ResolveBinding(v0), v0);
  EXPECT_EQ(*db_.versions().ResolveBinding(g), v0);
}

// ===== Section 7: locking ===================================================

TEST_F(PaperConformanceTest, S7_ProtocolStepsForReadingAComposite) {
  // "1. Access the vehicle composite object Vi: a. lock vehicle class
  // object in IS mode; b. lock the vehicle composite instance Vi in S
  // mode; c. lock the component class objects in ISO mode."
  Uid body = Make(body_);
  Uid v = *db_.objects().Make(vehicle_, {}, {{"Body", Value::Ref(body)}});
  TxnId txn = db_.locks().Begin();
  ASSERT_TRUE(db_.protocol().LockComposite(txn, v, /*write=*/false).ok());
  EXPECT_EQ(db_.locks().HeldModes(txn, LockResource::Class(vehicle_)),
            std::vector<LockMode>{LockMode::kIS});
  EXPECT_EQ(db_.locks().HeldModes(txn, LockResource::Instance(v)),
            std::vector<LockMode>{LockMode::kS});
  EXPECT_EQ(db_.locks().HeldModes(txn, LockResource::Class(body_)),
            std::vector<LockMode>{LockMode::kISO});
}

TEST_F(PaperConformanceTest, S7_TransactionReadsCompositeUnderStepsAToC) {
  // The same three steps, taken by a transaction: after them the
  // composite is read — root and components — with no further lock, since
  // the component class lock in ISO mode covers every component.
  Uid body = Make(body_);
  Uid v = *db_.objects().Make(vehicle_, {}, {{"Body", Value::Ref(body)}});
  TransactionContext txn(&db_);
  ASSERT_TRUE(txn.LockCompositeForRead(v).ok());
  const uint64_t after_lock = db_.locks().stats().acquisitions;
  ASSERT_TRUE(txn.Read(v).ok());
  ASSERT_TRUE(txn.Read(body).ok());
  EXPECT_EQ(db_.locks().stats().acquisitions, after_lock);
  EXPECT_EQ(db_.locks().HeldModes(txn.id(), LockResource::Class(vehicle_)),
            std::vector<LockMode>{LockMode::kIS});
  EXPECT_EQ(db_.locks().HeldModes(txn.id(), LockResource::Instance(v)),
            std::vector<LockMode>{LockMode::kS});
  EXPECT_EQ(db_.locks().HeldModes(txn.id(), LockResource::Class(body_)),
            std::vector<LockMode>{LockMode::kISO});
  EXPECT_TRUE(
      db_.locks().HeldModes(txn.id(), LockResource::Instance(body)).empty());
  ASSERT_TRUE(txn.Commit().ok());
}

TEST_F(PaperConformanceTest, S7_DifferentCompositesSameHierarchy) {
  // "This protocol allows multiple users to read and update different
  // composite objects that share the same composite class hierarchy, as
  // long as they update different composite objects."
  Uid v1 = *db_.objects().Make(vehicle_, {},
                               {{"Body", Value::Ref(Make(body_))}});
  Uid v2 = *db_.objects().Make(vehicle_, {},
                               {{"Body", Value::Ref(Make(body_))}});
  TxnId t1 = db_.locks().Begin();
  TxnId t2 = db_.locks().Begin();
  ASSERT_TRUE(db_.protocol().LockComposite(t1, v1, /*write=*/true).ok());
  EXPECT_TRUE(db_.protocol().LockComposite(t2, v2, /*write=*/true).ok());
  // But the SAME composite object is serialized by the root lock.
  TxnId t3 = db_.locks().Begin();
  EXPECT_EQ(
      db_.protocol().LockComposite(t3, v1, /*write=*/false).status().code(),
      StatusCode::kLockTimeout);
}

}  // namespace
}  // namespace orion
