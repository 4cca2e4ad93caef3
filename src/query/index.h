#ifndef ORION_QUERY_INDEX_H_
#define ORION_QUERY_INDEX_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/latch.h"
#include "common/result.h"
#include "object/object_manager.h"
#include "object/record_store.h"
#include "obs/metrics.h"

namespace orion {

/// Registry handles shared by every index of one manager (`index.*`); any
/// pointer may be null (standalone construction in tests), in which case
/// that metric is simply not recorded.
struct IndexMetrics {
  obs::Counter* lookups = nullptr;            ///< committed-now Lookup calls
  obs::Counter* lookups_at = nullptr;         ///< versioned LookupAt calls
  obs::Counter* postings_vacuumed = nullptr;  ///< versioned postings dropped
};

/// An equality index over one attribute of one class (and its subclasses).
///
/// Keys are scalar values; a set-valued attribute indexes every element
/// (multi-key), so equality lookups have "contains" semantics for sets,
/// matching the query engine.  Nil values are not indexed.
///
/// The index holds one posting structure: interval postings
/// `{uid, add_ts, remove_ts}`, maintained only from the RecordStore
/// publication stream.  Only committed states are ever published, so no
/// lookup can surface an uncommitted or aborted write.  `LookupAt(value,
/// read_ts)` serves snapshot readers; `Lookup(value)` and `entry_count`
/// read the open postings — the committed-now view.  Postings are
/// candidates, not answers: both select paths re-verify each uid against
/// the state they read, so a stale posting costs a wasted probe, never a
/// wrong result.  A posting whose interval ends at or before the minimum
/// active read timestamp is vacuumed on `OnTrim`, which visits only the
/// keys of postings closed since the previous vacuum, not the whole index.
///
/// Thread-safe: listener callbacks arrive from whichever session thread
/// commits, so the postings sit behind one mutex (a leaf latch — nothing
/// is called out of it).
class AttributeIndex : public RecordStoreListener {
 public:
  /// Registers for publications, then seeds the postings from the committed
  /// record chains: each record's value gets the interval ending where the
  /// next newer record begins (open for the newest), starting at 0 so
  /// readers pinned before the index existed still get complete candidate
  /// sets.  Without a record store the index stays empty.
  AttributeIndex(ObjectManager* objects, RecordStore* records, ClassId cls,
                 std::string attribute, IndexMetrics metrics = {});
  ~AttributeIndex() override;

  AttributeIndex(const AttributeIndex&) = delete;
  AttributeIndex& operator=(const AttributeIndex&) = delete;

  ClassId cls() const { return cls_; }
  const std::string& attribute() const { return attribute_; }

  /// UIDs of instances whose newest committed state has `value` in the
  /// attribute (or, for set-valued attributes, contains it), sorted.
  std::vector<Uid> Lookup(const Value& value) const;

  /// Candidate UIDs whose committed state at `ts` may hold `value`: every
  /// posting whose interval [add_ts, remove_ts) covers `ts`.  Sorted,
  /// deduplicated.  May contain false positives (callers re-verify against
  /// the snapshot); never false negatives for committed states.
  std::vector<Uid> LookupAt(const Value& value, uint64_t ts) const;

  /// Number of open (key, uid) postings.
  size_t entry_count() const;

  /// Postings currently held, open and closed (tests bound this after
  /// vacuum).
  size_t versioned_entry_count() const;

  // --- RecordStoreListener ---------------------------------------------------
  void OnObjectPublished(Uid uid, const Object* before, const Object* after,
                         uint64_t commit_ts) override;
  void OnTrim(uint64_t min_active_ts) override;

 private:
  /// A visibility interval for one (key, uid): the value was committed for
  /// `uid` from `add_ts` (inclusive) to `remove_ts` (exclusive).
  struct Posting {
    Uid uid;
    uint64_t add_ts = 0;
    uint64_t remove_ts = kOpenTs;
  };
  static constexpr uint64_t kOpenTs = UINT64_MAX;
  /// Above every commit timestamp: exactly the open postings cover it.
  static constexpr uint64_t kNowTs = kOpenTs - 1;

  bool Covers(const Object& object) const;
  /// Uids of the postings of `value` whose interval covers `ts`, sorted,
  /// deduplicated.
  std::vector<Uid> Covering(const Value& value, uint64_t ts) const;
  /// Both require mu_ held.
  void OpenPosting(Uid uid, const std::string& key, uint64_t ts);
  void ClosePosting(Uid uid, const std::string& key, uint64_t ts);

  ObjectManager* objects_;
  RecordStore* records_;
  ClassId cls_;
  std::string attribute_;
  IndexMetrics metrics_;
  mutable Latch mu_{"index.postings", LatchRank::kIndexPostings};
  /// Canonical key encoding -> interval postings.  Value lacks operator<
  /// and hashing; the deterministic ToString encoding is the key.  Guarded
  /// by mu_.
  std::map<std::string, std::vector<Posting>> postings_;
  /// (key, remove_ts) of every closed posting not yet vacuumed: OnTrim
  /// vacuums the keys whose entries fall at or below the minimum active
  /// read timestamp.  Guarded by mu_.
  std::vector<std::pair<std::string, uint64_t>> closed_;
};

/// Owns the indexes of one database and picks them up for query planning.
class IndexManager {
 public:
  /// Lookup/vacuum counters register under `index.*` in `metrics` and are
  /// shared by every index this manager creates; a null registry records
  /// nothing.
  IndexManager(ObjectManager* objects, RecordStore* records,
               obs::MetricsRegistry* metrics = nullptr)
      : objects_(objects), records_(records) {
    if (metrics != nullptr) {
      metrics_.lookups = &metrics->counter("index.lookups");
      metrics_.lookups_at = &metrics->counter("index.lookups_at");
      metrics_.postings_vacuumed =
          &metrics->counter("index.postings_vacuumed");
    }
  }

  /// Creates an index on (cls, attribute).  Rejects duplicates and unknown
  /// classes/attributes.
  Status CreateIndex(ClassId cls, const std::string& attribute);

  /// Drops an index.
  Status DropIndex(ClassId cls, const std::string& attribute);

  /// The index exactly matching (cls, attribute), or one on a superclass
  /// of `cls` for the same attribute (its postings cover the subclass
  /// extent too); nullptr if none.
  const AttributeIndex* FindIndex(ClassId cls,
                                  const std::string& attribute) const;

  size_t index_count() const {
    LatchGuard g(mu_);
    return indexes_.size();
  }

 private:
  ObjectManager* objects_;
  RecordStore* records_;
  IndexMetrics metrics_;
  /// Guards the list only: `(create-index ...)` over wire `eval` grows it
  /// on one connection thread while wire `select` plans against it on
  /// another.  An index is built before, and destroyed after, the latch.
  /// Dropping an index a concurrent select still holds is not supported.
  mutable Latch mu_{"index.list", LatchRank::kIndexList};
  std::vector<std::unique_ptr<AttributeIndex>> indexes_;
};

}  // namespace orion

#endif  // ORION_QUERY_INDEX_H_
