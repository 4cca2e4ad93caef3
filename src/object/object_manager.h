#ifndef ORION_OBJECT_OBJECT_MANAGER_H_
#define ORION_OBJECT_OBJECT_MANAGER_H_

#include <atomic>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/latch.h"
#include "common/result.h"
#include "common/status.h"
#include "common/striped.h"
#include "object/object.h"
#include "object/record_store.h"
#include "obs/metrics.h"
#include "schema/schema_manager.h"
#include "storage/object_store.h"

namespace orion {

/// One `(ParentObject.i ParentAttributeName.i)` pair of the `make` message
/// (§2.3).
struct ParentBinding {
  Uid parent;
  std::string attribute;
};

/// Named attribute values for `make` / `SetAttribute`.
using AttrValues = std::vector<std::pair<std::string, Value>>;

/// Owner of all instances; enforces the §2.2 semantics.
///
/// Everything the paper formalizes about non-versioned composite objects
/// lives here:
///  * Topology Rules 1-4 and the Make-Component Rule, via `CheckAttach`
///    (implemented with the reverse-reference flag test of §2.4);
///  * the Deletion Rule, via `Delete` / `ComputeDeletionClosure`;
///  * bottom-up creation and multi-parent `make` (§2.3), including physical
///    clustering with the first parent when segments permit;
///  * deferred schema-change maintenance (§4.3), via `CatchUp` applied on
///    every `Access`.
///
/// Version-model rules (§5) are layered on top by `VersionManager`, which
/// uses the raw primitives exposed here.
///
/// Threading (DESIGN.md §6): the object table and the class extents are
/// striped 16 ways; the stripes are leaf latches guarding the hash-map
/// structure against concurrent insert/erase/rehash.  They do NOT serialize
/// access to one object's state — that is the lock protocol's job: callers
/// (TransactionContext / Session) must hold the appropriate S/X instance
/// locks before reading or mutating an object, which also keeps `Object*`
/// results of `Peek`/`Access` alive.
class ObjectManager {
 public:
  ObjectManager(SchemaManager* schema, ObjectStore* store,
                LogicalClock* clock)
      : schema_(schema), store_(store), clock_(clock) {}

  ObjectManager(const ObjectManager&) = delete;
  ObjectManager& operator=(const ObjectManager&) = delete;

  // --- Cell identity --------------------------------------------------------

  /// Every uid minted by this manager carries `tag` in its top byte (see
  /// common/uid.h).  0 — the default — is the standalone-database
  /// configuration; a Cluster assigns each cell its own tag.  Set once at
  /// setup, before any allocation.
  void set_cell_tag(CellTag tag) { cell_tag_ = tag; }
  CellTag cell_tag() const { return cell_tag_; }

  /// Resolves the class of an object this manager does NOT own — a
  /// reference-by-uid edge into another cell.  Returns kInvalidClass when
  /// the uid exists nowhere.  Wired by the cluster layer (reading the
  /// foreign cell's committed record chain, never its live table); null in
  /// standalone databases, where a missing uid is simply missing.
  ///
  /// Thread-safety: set once at setup; the resolver itself must be safe to
  /// call from any session thread.
  using ForeignClassResolver = std::function<ClassId(Uid)>;
  void set_foreign_class_resolver(ForeignClassResolver resolver) {
    foreign_class_of_ = std::move(resolver);
  }

  // --- Creation -------------------------------------------------------------

  /// The `make` message: creates an instance of `cls`, optionally as a part
  /// of one or more existing composite objects.
  ///
  /// Rules enforced (§2.3): if more than one parent binding names a
  /// composite attribute, all of them must be *shared* composite attributes
  /// (Topology Rule 3); every binding is validated with the Make-Component
  /// Rule; the new object is clustered with the first parent when both
  /// classes share a segment.  Composite attributes listed in `attrs` attach
  /// the referenced objects as components (bottom-up assembly).
  Result<Uid> Make(ClassId cls, const std::vector<ParentBinding>& parents,
                   const AttrValues& attrs);

  /// Allocates a bare object of `role` with no parents and no values —
  /// the building block `VersionManager` composes generics and versions
  /// from.  Placement: appended to the class segment.
  Result<Uid> CreateRaw(ClassId cls, ObjectRole role);

  // --- Attachment ------------------------------------------------------------

  /// Makes existing object `child` a part of `parent` through `attribute`
  /// (the §2.4 algorithm).  Rejects weak attributes (use SetAttribute).
  Status MakeComponent(Uid child, Uid parent, const std::string& attribute);

  /// Detaches `child` from `parent.attribute`: the forward reference and
  /// the reverse reference are removed.  Detachment never deletes the child
  /// (that is the dismantle-and-reuse behaviour of Example 1); deletion
  /// semantics apply only to `Delete`.
  Status RemoveComponent(Uid child, Uid parent, const std::string& attribute);

  /// Assigns an attribute.  For composite attributes the value diff is
  /// applied with full attach/detach semantics (every newly referenced
  /// object passes the Make-Component Rule first; removed references are
  /// detached).
  Status SetAttribute(Uid obj, const std::string& attribute, Value value);

  /// Checks whether `child` may become a component of `parent` through an
  /// attribute with `spec` — the Make-Component Rule, the part-hierarchy
  /// acyclicity requirement, and the domain constraint.  Does not mutate.
  Status CheckAttach(const AttributeSpec& spec, Uid child, Uid parent);

  /// Adds only the reverse bookkeeping for an *already stored* forward
  /// reference parent.attribute -> child.  Used by the D1/D2 schema changes
  /// (§4.3), which promote existing weak references to composite ones and
  /// must "add reverse composite references to the instances of C".
  Status AttachBacklink(Uid child, Uid parent, const AttributeSpec& spec);

  // --- Deletion (§2.2 Deletion Rule) -----------------------------------------

  /// Deletes `uid` and, recursively, every component the Deletion Rule
  /// dooms: components held through dependent exclusive references, and
  /// components whose *entire* DS set is being deleted.  Components held
  /// through independent references, and shared components with a surviving
  /// dependent parent, are detached instead.  Version-role objects are
  /// rejected here (VersionManager implements §5 deletion).
  Status Delete(Uid uid);

  /// The set `Delete(root)` would remove, in discovery order starting with
  /// `root`.  Exposed for tests and the deletion benchmark.
  Result<std::vector<Uid>> ComputeDeletionClosure(Uid root);

  /// Physically removes exactly one object: detaches its reverse references
  /// (clearing the parents' forward references), clears reverse references
  /// in its surviving components, and frees placement and extent.  No
  /// recursion — VersionManager drives §5 deletion with this.
  Status DeleteSingle(Uid uid);

  // --- Access ------------------------------------------------------------------

  /// Fetches the object, first applying any pending deferred type changes
  /// (§4.3 catch-up) and charging a page access.
  Result<Object*> Access(Uid uid);

  /// Raw lookup without catch-up or accounting; nullptr if missing.
  Object* Peek(Uid uid);
  const Object* Peek(Uid uid) const;

  bool Exists(Uid uid) const { return objects_.Contains(uid); }

  /// Applies all pending operation-log entries to `o` and stamps its CC.
  /// `publish` controls whether the rewrite is pushed to the record store.
  /// Pass false on pure read paths (LiveView): they hold no writer
  /// exclusion over `o`, so an immediate publication could copy the object
  /// while a concurrent transaction mutates it in place, violating
  /// PublishBatch's race-free-copy premise.  The rewrite is published by
  /// the object's next mutation instead; until then snapshot readers
  /// resolve the pre-catch-up state, which is exactly the deferred
  /// schema-maintenance semantics of §4.3.
  Status CatchUp(Object* o, bool publish = true);

  /// Conservative O(1) test for "would CatchUp(o) change anything":
  /// true whenever the object's CC trails the global counter.  CatchUp
  /// always advances the CC to current, so a false here is authoritative
  /// and lets hot paths skip the log walk (and transactional readers skip
  /// the S→X upgrade CatchUp's mutation would need).
  bool CatchUpNeeded(const Object* o) const {
    return o->cc() < schema_->CurrentCc();
  }

  /// Optional ddl.catchup_us histogram (wired by Database).
  void set_catchup_histogram(obs::Histogram* h) { h_catchup_us_ = h; }

  // --- Extents -------------------------------------------------------------------

  /// UIDs of direct instances of `cls` (sorted for determinism).
  std::vector<Uid> InstancesOf(ClassId cls) const;

  /// Instances of `cls` and all its subclasses.
  std::vector<Uid> InstancesOfDeep(ClassId cls) const;

  /// Every live object, sorted by UID (diagnostics / invariant checks).
  std::vector<Uid> AllUids() const;

  size_t object_count() const { return objects_.size(); }

  // --- Snapshot restore (src/core/snapshot.cc) ------------------------------

  /// Re-inserts a fully formed object (values, reverse references, version
  /// metadata intact).  The object is appended to its class segment;
  /// physical clustering is not preserved across snapshots.
  Status RestoreObject(Object obj);

  /// Fast-forwards the UID allocator past `uid` (a raw uid value).  The
  /// cell tag is stripped first: the allocator counts cell-local uids and
  /// re-tags them at mint time, so a snapshot restores into a cell with any
  /// tag.
  void RestoreNextUid(uint64_t uid) {
    const uint64_t local = uid & kCellLocalMask;
    uint64_t cur = next_uid_.load(std::memory_order_relaxed);
    while (local > cur && !next_uid_.compare_exchange_weak(
                              cur, local, std::memory_order_relaxed)) {
    }
  }

  // --- Raw mutation ----------------------------------------------------------

  /// Erases the stored value of `attribute` on `uid` and reports the change
  /// to the record store (schema evolution drops values this way).
  Status EraseValue(Uid uid, const std::string& attribute);

  /// Removes `uid` without touching any other object (no backlink or
  /// forward-reference cleanup).  Transaction rollback uses this to unwind
  /// creations: every object the creation mutated carries a journaled
  /// before-image that is restored separately.
  void EraseRaw(Uid uid);

  /// Overwrites the stored state of `obj.uid()` with `obj`, re-inserting
  /// it if it was deleted (transaction rollback).
  void OverwriteRaw(Object obj);

  SchemaManager* schema() { return schema_; }
  const SchemaManager* schema() const { return schema_; }
  ObjectStore* store() { return store_; }

  // --- MVCC record publication ----------------------------------------------

  /// Attaches the copy-on-write record store (Database wires this before the
  /// engine is reachable).  Null (the default, and what standalone unit
  /// tests use) disables publication entirely.
  void set_record_store(RecordStore* records) { records_ = records; }
  RecordStore* record_store() const { return records_; }

  /// Reports that the live state of `uid` changed.  Outside a transaction
  /// this publishes a committed record immediately (or collects it into the
  /// enclosing RecordStore::Batch); inside a transaction it is a no-op —
  /// the transaction's commit publishes its whole write set at once.
  void MarkRecord(Uid uid) {
    if (records_ != nullptr) {
      records_->MarkObject(uid);
    }
  }

  /// Direct components of `parent`: every object referenced through a
  /// composite attribute, with the spec in effect.  (Weak references are
  /// not components.)
  Result<std::vector<std::pair<Uid, AttributeSpec>>> DirectComponents(
      Uid parent);

 private:
  Result<Uid> AllocateAndPlace(ClassId cls, ObjectRole role,
                               Uid cluster_with);
  Status CheckValueAgainstSpec(const AttributeSpec& spec, const Value& value);
  /// Adds the forward reference parent.attribute -> child.  Single-valued
  /// attributes must currently be Nil.
  Status AddForwardRef(Object* parent, const AttributeSpec& spec, Uid child);
  void ApplyLogEntry(Object* o, const LogEntry& entry);

  /// Stores a value and reports the change to the record store.
  void SetValue(Object* obj, const std::string& attribute, Value value);

  SchemaManager* schema_;
  ObjectStore* store_;
  LogicalClock* clock_;
  /// 16-way striped object table; see the class comment for the latching
  /// vs. locking split.
  ShardedMap<Uid, Object> objects_{"objtable.shard", LatchRank::kTableShard};
  /// Class extents, striped by class id.
  ShardedMap<ClassId, std::unordered_set<Uid>> extents_{
      "extents.shard", LatchRank::kTableShard};
  std::atomic<uint64_t> next_uid_{0};
  CellTag cell_tag_ = 0;
  ForeignClassResolver foreign_class_of_;
  RecordStore* records_ = nullptr;
  obs::Histogram* h_catchup_us_ = nullptr;
};

}  // namespace orion

#endif  // ORION_OBJECT_OBJECT_MANAGER_H_
