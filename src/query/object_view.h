#ifndef ORION_QUERY_OBJECT_VIEW_H_
#define ORION_QUERY_OBJECT_VIEW_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "object/object_manager.h"
#include "object/record_store.h"

namespace orion {

/// A read-only resolution surface for the navigational (§3) and associative
/// query machinery: everything traversal and predicate evaluation need —
/// object lookup, the schema, and class extents — without saying *which*
/// states are being read.
///
/// Two implementations: `LiveView` reads the in-place tables (the writer's
/// own 2PL world, uncommitted changes included); `SnapshotView` resolves
/// against the copy-on-write record chains at a fixed read timestamp, which
/// is what makes lock-free repeatable read-only transactions possible.
class ObjectView {
 public:
  virtual ~ObjectView() = default;

  /// The object's state in this view, or nullptr if it does not exist
  /// here.  The pointer stays valid for the lifetime of the view.
  virtual const Object* Lookup(Uid uid) const = 0;

  /// The schema the view's states were written under, as a timestamp-bound
  /// facade (§10): the live schema for `LiveView`, the schema as of the
  /// read timestamp for `SnapshotView` — schema versions ride the same
  /// logical clock as record chains, so old states resolve against the
  /// class definitions they were committed under.
  virtual const SchemaView* schema() const = 0;

  /// Deep extent: uids of instances of `cls` and its subclasses visible in
  /// this view, sorted.
  virtual std::vector<Uid> Extent(ClassId cls) const = 0;
};

/// The live tables, via Peek + access-time schema catch-up.
class LiveView final : public ObjectView {
 public:
  explicit LiveView(ObjectManager& objects)
      : objects_(&objects), schema_view_(objects.schema(), kSchemaLiveTs) {}

  const Object* Lookup(Uid uid) const override {
    Object* obj = objects_->Peek(uid);
    if (obj != nullptr) {
      // publish=false: a live read holds no writer exclusion over `obj`,
      // so the catch-up rewrite must not trigger a publication (the copy
      // could race a concurrent in-place mutation); the next mutation of
      // the object publishes it instead.
      (void)objects_->CatchUp(obj, /*publish=*/false);
    }
    return obj;
  }

  const SchemaView* schema() const override { return &schema_view_; }

  std::vector<Uid> Extent(ClassId cls) const override {
    return objects_->InstancesOfDeep(cls);
  }

 private:
  ObjectManager* objects_;
  SchemaView schema_view_;
};

/// Committed states as of one read timestamp, resolved against the record
/// chains.  Looked-up states are pinned in the view (shared_ptr cache) so
/// the returned raw pointers survive concurrent trimming for the view's
/// lifetime.  NOT thread-safe: one view belongs to one reading thread
/// (a read-only transaction creates its own).
///
/// Schema versions ride the same logical clock as the record chains (§10),
/// so `schema()` resolves attributes and the lattice exactly as of `ts`: a
/// snapshot pinned before a DDL committed keeps seeing the old class
/// definitions for its whole lifetime.
class SnapshotView final : public ObjectView {
 public:
  SnapshotView(const RecordStore& records, const SchemaManager& schema,
               uint64_t ts)
      : records_(&records), schema_view_(&schema, ts), ts_(ts) {}

  uint64_t ts() const { return ts_; }

  const Object* Lookup(Uid uid) const override {
    auto it = pinned_.find(uid);
    if (it != pinned_.end()) {
      return it->second.get();
    }
    std::shared_ptr<const Object> state = records_->GetAt(uid, ts_);
    const Object* raw = state.get();
    pinned_.emplace(uid, std::move(state));  // caches misses (nullptr) too
    return raw;
  }

  const SchemaView* schema() const override { return &schema_view_; }

  std::vector<Uid> Extent(ClassId cls) const override {
    std::vector<Uid> out;
    // The lattice as of ts: a class dropped (or re-parented) after the
    // snapshot pinned still contributes its then-instances.
    for (ClassId c : schema_view_.SelfAndSubclasses(cls)) {
      std::vector<Uid> part = records_->InstancesOfAt(c, ts_);
      out.insert(out.end(), part.begin(), part.end());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  const RecordStore* records_;
  SchemaView schema_view_;
  uint64_t ts_;
  mutable std::unordered_map<Uid, std::shared_ptr<const Object>> pinned_;
};

}  // namespace orion

#endif  // ORION_QUERY_OBJECT_VIEW_H_
