#include "query/query.h"

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/transaction.h"

namespace orion {
namespace {

/// A bookstore: Books with a price, tags, and composite Chapters that have
/// titles — enough shape for comparisons, sets, paths, and indexes.
class QueryTest : public ::testing::Test {
 protected:
  QueryTest() {
    chapter_ = *db_.MakeClass(ClassSpec{
        .name = "Chapter",
        .attributes = {WeakAttr("Heading", "string"),
                       WeakAttr("Pages", "integer")}});
    book_ = *db_.MakeClass(ClassSpec{
        .name = "Book",
        .attributes = {
            WeakAttr("Title", "string"),
            WeakAttr("Price", "real"),
            WeakAttr("Tags", "string", /*is_set=*/true),
            CompositeAttr("Chapters", "Chapter", /*exclusive=*/true,
                          /*dependent=*/true, /*is_set=*/true)}});
    novel_ = *db_.MakeClass(ClassSpec{
        .name = "Novel",
        .superclasses = {"Book"},
        .attributes = {WeakAttr("Protagonist", "string")}});

    auto add_book = [&](ClassId cls, const char* title, double price,
                        std::vector<const char*> tags,
                        std::vector<std::pair<const char*, int>> chapters) {
      std::vector<Value> tag_values;
      for (const char* t : tags) {
        tag_values.push_back(Value::String(t));
      }
      Uid book = *db_.objects().Make(
          cls, {},
          {{"Title", Value::String(title)},
           {"Price", Value::Real(price)},
           {"Tags", Value::Set(tag_values)}});
      for (const auto& [heading, pages] : chapters) {
        (void)*db_.objects().Make(chapter_, {{book, "Chapters"}},
                                  {{"Heading", Value::String(heading)},
                                   {"Pages", Value::Integer(pages)}});
      }
      return book;
    };
    orion_ = add_book(book_, "ORION Internals", 49.5, {"databases", "oodb"},
                      {{"Composite Objects", 40}, {"Versions", 30}});
    cheap_ = add_book(book_, "Intro to Data", 10.0, {"databases"},
                      {{"Basics", 12}});
    novel_instance_ = add_book(novel_, "The Lost UID", 15.0, {"fiction"},
                               {{"Chapter One", 20}});
  }

  ObjectManager& om() { return db_.objects(); }

  Database db_;
  ClassId book_, chapter_, novel_;
  Uid orion_, cheap_, novel_instance_;
};

TEST_F(QueryTest, EqualityOnStrings) {
  auto hits = Select(om(), book_,
                     Compare("Title", CompareOp::kEq,
                             Value::String("ORION Internals")));
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(*hits, std::vector<Uid>{orion_});
}

TEST_F(QueryTest, NumericComparisonsWithIntRealCrossover) {
  auto cheap = Select(om(), book_,
                      Compare("Price", CompareOp::kLt, Value::Integer(20)));
  ASSERT_TRUE(cheap.ok());
  EXPECT_EQ(*cheap, (std::vector<Uid>{cheap_, novel_instance_}));
  auto expensive = Select(om(), book_,
                          Compare("Price", CompareOp::kGe,
                                  Value::Real(49.5)));
  EXPECT_EQ(*expensive, std::vector<Uid>{orion_});
}

TEST_F(QueryTest, SetValuedAttributesUseExistsSemantics) {
  auto tagged = Select(om(), book_,
                       Compare("Tags", CompareOp::kEq,
                               Value::String("databases")));
  EXPECT_EQ(*tagged, (std::vector<Uid>{orion_, cheap_}));
}

TEST_F(QueryTest, BooleanCombinators) {
  auto q = And({Compare("Tags", CompareOp::kEq, Value::String("databases")),
                Not(Compare("Price", CompareOp::kGt, Value::Real(20.0)))});
  EXPECT_EQ(*Select(om(), book_, q), std::vector<Uid>{cheap_});

  auto either = Or({Compare("Title", CompareOp::kEq,
                            Value::String("The Lost UID")),
                    Compare("Price", CompareOp::kGt, Value::Real(40.0))});
  EXPECT_EQ(*Select(om(), book_, either),
            (std::vector<Uid>{orion_, novel_instance_}));
}

TEST_F(QueryTest, SelectCoversSubclassExtents) {
  auto all = Select(om(), book_,
                    Compare("Price", CompareOp::kGt, Value::Real(0.0)));
  EXPECT_EQ(all->size(), 3u);
  auto novels_only = Select(om(), novel_,
                            Compare("Price", CompareOp::kGt,
                                    Value::Real(0.0)));
  EXPECT_EQ(*novels_only, std::vector<Uid>{novel_instance_});
}

TEST_F(QueryTest, PathExpressionsTraverseReferences) {
  // Books with a chapter longer than 35 pages.
  auto long_chapter = Select(om(), book_,
                             Path({"Chapters", "Pages"}, CompareOp::kGt,
                                  Value::Integer(35)));
  EXPECT_EQ(*long_chapter, std::vector<Uid>{orion_});
  // Books containing a chapter headed "Basics".
  auto basics = Select(om(), book_,
                       Path({"Chapters", "Heading"}, CompareOp::kEq,
                            Value::String("Basics")));
  EXPECT_EQ(*basics, std::vector<Uid>{cheap_});
}

TEST_F(QueryTest, ComponentOfPredicateJoinsThePartHierarchy) {
  auto chapters_of_orion =
      Select(om(), chapter_, ComponentOfExpr(orion_));
  EXPECT_EQ(chapters_of_orion->size(), 2u);
  // Combined: chapters of that book with > 35 pages.
  auto q = And({ComponentOfExpr(orion_),
                Compare("Pages", CompareOp::kGt, Value::Integer(35))});
  EXPECT_EQ(Select(om(), chapter_, q)->size(), 1u);
}

TEST_F(QueryTest, NilNeverMatches) {
  Uid untitled = *db_.objects().Make(book_, {}, {});
  auto ne = Select(om(), book_,
                   Compare("Title", CompareOp::kNe, Value::String("x")));
  EXPECT_EQ(std::count(ne->begin(), ne->end(), untitled), 0);
}

TEST_F(QueryTest, ErrorsSurface) {
  EXPECT_EQ(Select(om(), 9999, Compare("x", CompareOp::kEq, Value::Null()))
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(Select(om(), book_, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Select(om(), book_, Path({}, CompareOp::kEq, Value::Null()))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// --- Index integration ---------------------------------------------------------

TEST_F(QueryTest, IndexAcceleratesEquality) {
  ASSERT_TRUE(db_.indexes().CreateIndex(book_, "Title").ok());
  SelectStats stats;
  auto hits = SelectWithStats(om(), book_,
                              Compare("Title", CompareOp::kEq,
                                      Value::String("ORION Internals")),
                              &db_.indexes(), &stats);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(*hits, std::vector<Uid>{orion_});
  EXPECT_TRUE(stats.used_index);
  EXPECT_EQ(stats.candidates, 1u);
  // Non-equality predicates fall back to scanning.
  SelectStats scan_stats;
  (void)SelectWithStats(om(), book_,
                        Compare("Price", CompareOp::kLt, Value::Real(20.0)),
                        &db_.indexes(), &scan_stats);
  EXPECT_FALSE(scan_stats.used_index);
}

TEST_F(QueryTest, IndexInsideConjunction) {
  ASSERT_TRUE(db_.indexes().CreateIndex(book_, "Tags").ok());
  SelectStats stats;
  auto q = And({Compare("Tags", CompareOp::kEq, Value::String("databases")),
                Compare("Price", CompareOp::kLt, Value::Real(20.0))});
  auto hits = SelectWithStats(om(), book_, q, &db_.indexes(), &stats);
  EXPECT_TRUE(stats.used_index);
  EXPECT_EQ(*hits, std::vector<Uid>{cheap_});
}

TEST_F(QueryTest, IndexStaysCurrentUnderMutations) {
  ASSERT_TRUE(db_.indexes().CreateIndex(book_, "Title").ok());
  const AttributeIndex* index = db_.indexes().FindIndex(book_, "Title");
  ASSERT_NE(index, nullptr);
  const size_t before = index->entry_count();

  Uid fresh = *db_.objects().Make(book_, {},
                                  {{"Title", Value::String("New Book")}});
  EXPECT_EQ(index->Lookup(Value::String("New Book")),
            std::vector<Uid>{fresh});
  ASSERT_TRUE(db_.objects()
                  .SetAttribute(fresh, "Title", Value::String("Renamed"))
                  .ok());
  EXPECT_TRUE(index->Lookup(Value::String("New Book")).empty());
  EXPECT_EQ(index->Lookup(Value::String("Renamed")),
            std::vector<Uid>{fresh});
  ASSERT_TRUE(db_.DeleteObject(fresh).ok());
  EXPECT_TRUE(index->Lookup(Value::String("Renamed")).empty());
  EXPECT_EQ(index->entry_count(), before);

  // Vacuum visits the closed postings only: after a clean pass, k closes
  // (three renames of one book) are vacuumed as exactly k postings by the
  // passes that follow, and the open view does not change.
  (void)db_.ReclaimOnce();
  EXPECT_EQ(index->versioned_entry_count(), index->entry_count());
  const Database::StatsSnapshot base = db_.Stats();
  for (const char* title : {"Draft 1", "Draft 2", "Draft 3"}) {
    ASSERT_TRUE(
        om().SetAttribute(cheap_, "Title", Value::String(title)).ok());
  }
  (void)db_.ReclaimOnce();
  EXPECT_EQ(
      db_.Stats().DeltaSince(base).counters.at("index.postings_vacuumed"), 3u);
  EXPECT_EQ(index->versioned_entry_count(), index->entry_count());
  EXPECT_EQ(index->entry_count(), before);
  EXPECT_EQ(index->Lookup(Value::String("Draft 3")),
            std::vector<Uid>{cheap_});
  EXPECT_TRUE(index->Lookup(Value::String("Intro to Data")).empty());
  EXPECT_EQ(index->Lookup(Value::String("ORION Internals")),
            std::vector<Uid>{orion_});
}

TEST_F(QueryTest, SuperclassIndexCoversSubclassWithPostFilter) {
  ASSERT_TRUE(db_.indexes().CreateIndex(book_, "Price").ok());
  SelectStats stats;
  // Query the Novel extent through the Book index: the index returns all
  // 15.0-priced books; the post-filter drops the non-novels.
  auto hits = SelectWithStats(om(), novel_,
                              Compare("Price", CompareOp::kEq,
                                      Value::Real(15.0)),
                              &db_.indexes(), &stats);
  EXPECT_TRUE(stats.used_index);
  EXPECT_EQ(*hits, std::vector<Uid>{novel_instance_});
}

TEST_F(QueryTest, IndexManagerValidation) {
  EXPECT_EQ(db_.indexes().CreateIndex(9999, "Title").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.indexes().CreateIndex(book_, "NoSuch").code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(db_.indexes().CreateIndex(book_, "Title").ok());
  EXPECT_EQ(db_.indexes().CreateIndex(book_, "Title").code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(db_.indexes().DropIndex(book_, "Title").ok());
  EXPECT_EQ(db_.indexes().DropIndex(book_, "Title").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.indexes().FindIndex(book_, "Title"), nullptr);
}

TEST_F(QueryTest, IndexSurvivesTransactionAbort) {
  // Observer events fired during rollback must leave the index exact.
  ASSERT_TRUE(db_.indexes().CreateIndex(book_, "Title").ok());
  const AttributeIndex* index = db_.indexes().FindIndex(book_, "Title");
  {
    TransactionContext txn(&db_);
    (void)*txn.Make("Book", {}, {{"Title", Value::String("Phantom")}});
    (void)txn.SetAttribute(orion_, "Title", Value::String("Hijacked"));
    ASSERT_TRUE(txn.Abort().ok());
  }
  EXPECT_TRUE(index->Lookup(Value::String("Phantom")).empty());
  EXPECT_TRUE(index->Lookup(Value::String("Hijacked")).empty());
  EXPECT_EQ(index->Lookup(Value::String("ORION Internals")),
            std::vector<Uid>{orion_});
}

}  // namespace
}  // namespace orion
