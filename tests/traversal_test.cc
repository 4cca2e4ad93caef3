#include "query/traversal.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace orion {
namespace {

/// The walk of ComponentsOf with the schema resolved again for every
/// visited object, as it was before the walk resolved each class once:
/// the oracle of the equivalence tests below.
std::vector<Uid> PerObjectComponentsOf(const ObjectView& view, Uid object,
                                       const TraversalOptions& opts) {
  auto edge_passes = [&](bool exclusive) {
    if (opts.exclusive != opts.shared) {
      return opts.exclusive ? exclusive : !exclusive;
    }
    return true;
  };
  auto class_passes = [&](Uid uid) {
    const Object* obj = view.Lookup(uid);
    return opts.classes.empty() ||
           (obj != nullptr &&
            std::any_of(opts.classes.begin(), opts.classes.end(),
                        [&](ClassId c) {
                          return view.schema()->IsSubclassOf(obj->class_id(),
                                                             c);
                        }));
  };
  std::vector<Uid> out;
  std::set<Uid> visited{object};
  std::deque<std::pair<Uid, int>> frontier{{object, 0}};
  while (!frontier.empty()) {
    auto [cur, depth] = frontier.front();
    frontier.pop_front();
    const Object* obj = view.Lookup(cur);
    if (obj == nullptr || (opts.level.has_value() && depth >= *opts.level)) {
      continue;
    }
    auto attrs = view.schema()->ResolvedAttributes(obj->class_id());
    if (!attrs.ok()) {
      continue;
    }
    for (const AttributeSpec& spec : *attrs) {
      if (!spec.is_composite() || !edge_passes(spec.exclusive)) {
        continue;
      }
      for (Uid child : obj->Get(spec.name).ReferencedUids()) {
        if (!visited.insert(child).second) {
          continue;
        }
        if (class_passes(child)) {
          out.push_back(child);
        }
        frontier.emplace_back(child, depth + 1);
      }
    }
  }
  return out;
}

/// Builds the Figure 4 / Figure 5 shapes from the paper on a small
/// document-like schema.
class TraversalTest : public ::testing::Test {
 protected:
  TraversalTest() : schema_(&store_), objects_(&schema_, &store_, &clock_) {
    para_ = *schema_.MakeClass(ClassSpec{.name = "Paragraph"});
    sec_ = *schema_.MakeClass(ClassSpec{
        .name = "Section",
        .attributes = {CompositeAttr("Content", "Paragraph", false, true,
                                     true)}});
    doc_ = *schema_.MakeClass(ClassSpec{
        .name = "Document",
        .attributes = {CompositeAttr("Sections", "Section", false, true,
                                     true),
                       CompositeAttr("Annotations", "Paragraph", true, true,
                                     true),
                       WeakAttr("Cites", "Document", true)}});
  }

  Uid Make(ClassId c) { return *objects_.Make(c, {}, {}); }

  static std::vector<Uid> Sorted(std::vector<Uid> v) {
    std::sort(v.begin(), v.end());
    return v;
  }

  ObjectStore store_;
  LogicalClock clock_;
  SchemaManager schema_;
  ObjectManager objects_;
  ClassId doc_, sec_, para_;
};

TEST_F(TraversalTest, ComponentsOfWholeHierarchy) {
  Uid doc = Make(doc_);
  Uid s1 = *objects_.Make(sec_, {{doc, "Sections"}}, {});
  Uid s2 = *objects_.Make(sec_, {{doc, "Sections"}}, {});
  Uid p1 = *objects_.Make(para_, {{s1, "Content"}}, {});
  Uid p2 = *objects_.Make(para_, {{s2, "Content"}}, {});
  Uid note = *objects_.Make(para_, {{doc, "Annotations"}}, {});

  auto all = ComponentsOf(objects_, doc);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(Sorted(*all), Sorted({s1, s2, p1, p2, note}));
}

TEST_F(TraversalTest, ComponentsOfLevelLimits) {
  Uid doc = Make(doc_);
  Uid s1 = *objects_.Make(sec_, {{doc, "Sections"}}, {});
  Uid p1 = *objects_.Make(para_, {{s1, "Content"}}, {});

  TraversalOptions level1;
  level1.level = 1;
  auto direct = ComponentsOf(objects_, doc, level1);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*direct, std::vector<Uid>{s1});

  TraversalOptions level2;
  level2.level = 2;
  auto two = ComponentsOf(objects_, doc, level2);
  EXPECT_EQ(Sorted(*two), Sorted({s1, p1}));

  TraversalOptions level0;
  level0.level = 0;
  EXPECT_TRUE(ComponentsOf(objects_, doc, level0)->empty());
}

TEST_F(TraversalTest, ComponentsOfClassFilter) {
  Uid doc = Make(doc_);
  Uid s1 = *objects_.Make(sec_, {{doc, "Sections"}}, {});
  Uid p1 = *objects_.Make(para_, {{s1, "Content"}}, {});
  (void)p1;

  TraversalOptions only_paras;
  only_paras.classes = {para_};
  auto paras = ComponentsOf(objects_, doc, only_paras);
  ASSERT_TRUE(paras.ok());
  // The filter selects reported objects but traversal passes through
  // sections.
  EXPECT_EQ(*paras, std::vector<Uid>{p1});
}

TEST_F(TraversalTest, ComponentsOfExclusiveSharedFilter) {
  Uid doc = Make(doc_);
  Uid s1 = *objects_.Make(sec_, {{doc, "Sections"}}, {});
  Uid note = *objects_.Make(para_, {{doc, "Annotations"}}, {});
  Uid p1 = *objects_.Make(para_, {{s1, "Content"}}, {});

  TraversalOptions excl;
  excl.exclusive = true;
  EXPECT_EQ(*ComponentsOf(objects_, doc, excl), std::vector<Uid>{note});

  TraversalOptions shared;
  shared.shared = true;
  EXPECT_EQ(Sorted(*ComponentsOf(objects_, doc, shared)), Sorted({s1, p1}));
}

TEST_F(TraversalTest, WeakReferencesAreNotComponents) {
  Uid d1 = Make(doc_);
  Uid d2 = Make(doc_);
  ASSERT_TRUE(
      objects_.SetAttribute(d1, "Cites", Value::RefSet({d2})).ok());
  EXPECT_TRUE(ComponentsOf(objects_, d1)->empty());
  EXPECT_FALSE(*ComponentOf(objects_, d2, d1));
}

TEST_F(TraversalTest, ParentsAndAncestors) {
  Uid d1 = Make(doc_);
  Uid d2 = Make(doc_);
  Uid s = *objects_.Make(sec_, {{d1, "Sections"}, {d2, "Sections"}}, {});
  Uid p = *objects_.Make(para_, {{s, "Content"}}, {});

  EXPECT_EQ(Sorted(*ParentsOf(objects_, p)), Sorted({s}));
  EXPECT_EQ(Sorted(*ParentsOf(objects_, s)), Sorted({d1, d2}));
  EXPECT_EQ(Sorted(*AncestorsOf(objects_, p)), Sorted({s, d1, d2}));
  EXPECT_TRUE(ParentsOf(objects_, d1)->empty());

  TraversalOptions doc_only;
  doc_only.classes = {doc_};
  EXPECT_EQ(Sorted(*AncestorsOf(objects_, p, doc_only)), Sorted({d1, d2}));
}

TEST_F(TraversalTest, ComponentLevelIsShortestPath) {
  // Build a diamond: doc -> s1 -> p, doc -> p (annotation would be
  // exclusive; use a second section instead) so the shortest path wins.
  Uid doc = Make(doc_);
  Uid s1 = *objects_.Make(sec_, {{doc, "Sections"}}, {});
  Uid s2 = *objects_.Make(sec_, {{doc, "Sections"}}, {});
  Uid p = *objects_.Make(para_, {{s1, "Content"}, {s2, "Content"}}, {});

  EXPECT_EQ(ComponentLevel(objects_, s1, doc)->value(), 1);
  EXPECT_EQ(ComponentLevel(objects_, p, doc)->value(), 2);
  EXPECT_EQ(ComponentLevel(objects_, doc, doc)->value(), 0);
  EXPECT_FALSE(ComponentLevel(objects_, doc, p)->has_value());
}

TEST_F(TraversalTest, PredicatesComponentChildExclusiveShared) {
  Uid doc = Make(doc_);
  Uid s = *objects_.Make(sec_, {{doc, "Sections"}}, {});
  Uid p = *objects_.Make(para_, {{s, "Content"}}, {});
  Uid note = *objects_.Make(para_, {{doc, "Annotations"}}, {});

  EXPECT_TRUE(*ComponentOf(objects_, p, doc));
  EXPECT_TRUE(*ComponentOf(objects_, s, doc));
  EXPECT_FALSE(*ComponentOf(objects_, doc, p));
  EXPECT_FALSE(*ComponentOf(objects_, doc, doc));

  EXPECT_TRUE(*ChildOf(objects_, s, doc));
  EXPECT_FALSE(*ChildOf(objects_, p, doc));

  // note is attached exclusively, s and p are shared components.
  EXPECT_TRUE(*ExclusiveComponentOf(objects_, note, doc));
  EXPECT_FALSE(*SharedComponentOf(objects_, note, doc));
  EXPECT_TRUE(*SharedComponentOf(objects_, s, doc));
  EXPECT_FALSE(*ExclusiveComponentOf(objects_, s, doc));
  // Not a component at all -> both predicates are false.
  EXPECT_FALSE(*ExclusiveComponentOf(objects_, doc, s));
  EXPECT_FALSE(*SharedComponentOf(objects_, doc, s));
}

TEST_F(TraversalTest, SharedComponentEqualsComponentMinusExclusive) {
  // The paper: component-of followed by exclusive-component-of "has the
  // same effect as shared-component-of".  Property-check over the built
  // topology.
  Uid doc = Make(doc_);
  Uid s = *objects_.Make(sec_, {{doc, "Sections"}}, {});
  Uid p = *objects_.Make(para_, {{s, "Content"}}, {});
  Uid note = *objects_.Make(para_, {{doc, "Annotations"}}, {});
  for (Uid o1 : {doc, s, p, note}) {
    for (Uid o2 : {doc, s, p, note}) {
      const bool comp = *ComponentOf(objects_, o1, o2);
      const bool excl = *ExclusiveComponentOf(objects_, o1, o2);
      const bool shared = *SharedComponentOf(objects_, o1, o2);
      EXPECT_EQ(shared, comp && !excl)
          << "o1=" << o1.ToString() << " o2=" << o2.ToString();
    }
  }
}

// A subclass may override an inherited composite attribute with a weak
// one; ComponentsOf resolves attributes per class, so instances of the
// subclass stop the walk there while their superclass siblings continue.
TEST_F(TraversalTest, SubclassOverridingCompositeToWeakIsNotFollowed) {
  const ClassId memo = *schema_.MakeClass(ClassSpec{
      .name = "Memo",
      .superclasses = {"Section"},
      .attributes = {WeakAttr("Content", "Paragraph", /*is_set=*/true)}});
  Uid doc = Make(doc_);
  Uid s1 = *objects_.Make(sec_, {{doc, "Sections"}}, {});
  Uid m1 = *objects_.Make(memo, {{doc, "Sections"}}, {});
  Uid s2 = *objects_.Make(sec_, {{doc, "Sections"}}, {});
  Uid p1 = *objects_.Make(para_, {{s1, "Content"}}, {});
  Uid p2 = *objects_.Make(para_, {{s2, "Content"}}, {});
  Uid loose = Make(para_);
  ASSERT_TRUE(
      objects_.SetAttribute(m1, "Content", Value::RefSet({loose, p1})).ok());

  auto all = ComponentsOf(objects_, doc);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(Sorted(*all), Sorted({s1, m1, s2, p1, p2}));
  EXPECT_EQ(*all, PerObjectComponentsOf(LiveView(objects_), doc, {}));
}

// Every combination of the §3.1 arguments — Level, Exclusive, Shared and
// ListofClasses — returns what resolving the schema per object returned,
// in the same order, over a hierarchy mixing classes, shared components
// and a subclass that overrides a composite attribute to weak.
TEST_F(TraversalTest, ComponentsOfMatchesPerObjectResolutionUnderEveryFilter) {
  const ClassId memo = *schema_.MakeClass(ClassSpec{
      .name = "Memo",
      .superclasses = {"Section"},
      .attributes = {WeakAttr("Content", "Paragraph", /*is_set=*/true)}});
  Uid doc = Make(doc_);
  std::vector<Uid> sections;
  for (int i = 0; i < 4; ++i) {
    sections.push_back(
        *objects_.Make(i == 2 ? memo : sec_, {{doc, "Sections"}}, {}));
  }
  Uid shared_para = *objects_.Make(para_, {{sections[0], "Content"}}, {});
  ASSERT_TRUE(
      objects_.MakeComponent(shared_para, sections[1], "Content").ok());
  for (Uid sec : {sections[0], sections[1], sections[3]}) {
    (void)*objects_.Make(para_, {{sec, "Content"}}, {});
  }
  (void)*objects_.Make(para_, {{doc, "Annotations"}}, {});
  ASSERT_TRUE(objects_
                  .SetAttribute(sections[2], "Content",
                                Value::RefSet({shared_para}))
                  .ok());

  const LiveView view(objects_);
  int combinations = 0;
  for (std::optional<int> level :
       {std::optional<int>(), std::optional<int>(0), std::optional<int>(1),
        std::optional<int>(2)}) {
    for (int kinds = 0; kinds < 4; ++kinds) {
      for (const std::vector<ClassId>& classes :
           {std::vector<ClassId>{}, std::vector<ClassId>{para_},
            std::vector<ClassId>{sec_}, std::vector<ClassId>{memo, doc_}}) {
        TraversalOptions opts;
        opts.level = level;
        opts.exclusive = (kinds & 1) != 0;
        opts.shared = (kinds & 2) != 0;
        opts.classes = classes;
        auto got = ComponentsOf(view, doc, opts);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, PerObjectComponentsOf(view, doc, opts))
            << "level=" << (level ? *level : -1) << " kinds=" << kinds
            << " classes=" << classes.size();
        ++combinations;
      }
    }
  }
  EXPECT_EQ(combinations, 64);
}

TEST_F(TraversalTest, MissingObjectsAreNotFound) {
  EXPECT_EQ(ComponentsOf(objects_, Uid{999}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ParentsOf(objects_, Uid{999}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(AncestorsOf(objects_, Uid{999}).status().code(),
            StatusCode::kNotFound);
  Uid doc = Make(doc_);
  EXPECT_EQ(ChildOf(objects_, doc, Uid{999}).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace orion
