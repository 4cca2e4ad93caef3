#ifndef ORION_OBJECT_RECORD_STORE_H_
#define ORION_OBJECT_RECORD_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/latch.h"
#include "common/striped.h"
#include "common/uid.h"
#include "object/object.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "schema/class_def.h"

namespace orion {

/// One committed version of an object: an immutable copy of its state
/// stamped with the commit timestamp that installed it.  `state == nullptr`
/// is a tombstone (the object was deleted at `commit_ts`).
///
/// Records form a newest-first chain.  All fields are immutable after
/// publication EXCEPT `prev`, which the trimmer may cut to null under the
/// owning shard's exclusive latch; every chain traversal holds at least the
/// shared latch, so no traversal can observe the cut mid-walk.
struct ObjectRecord {
  uint64_t commit_ts = 0;
  std::shared_ptr<const Object> state;
  std::shared_ptr<ObjectRecord> prev;
};

/// One committed version of a generic instance's registry entry (§5.1
/// version-derivation history): the version list and the user-set default.
/// `live == false` is a tombstone (the generic was deleted / reaped).
struct GenericRecord {
  uint64_t commit_ts = 0;
  bool live = false;
  std::vector<Uid> versions;
  Uid user_default;
  std::shared_ptr<GenericRecord> prev;
};

/// Callback interface for committed publications — the engine's one change
/// stream.  Only *committed* states ever reach a listener: the attribute
/// index builds its postings from this stream and the notification manager
/// its change events, which is what keeps uncommitted and aborted
/// transactional writes out of both.
class RecordStoreListener {
 public:
  virtual ~RecordStoreListener() = default;
  /// Fires under the commit latch and the listener-list latch, after the
  /// record is installed and before the watermark makes it visible:
  /// `before` is the state of the previous newest record (null if none or
  /// tombstone), `after` the newly published state (null for a tombstone).
  /// The pointers are valid only for the duration of the call.
  virtual void OnObjectPublished(Uid uid, const Object* before,
                                 const Object* after, uint64_t commit_ts) = 0;
  /// Fires once per publication, after every record of `commit_ts` went
  /// through OnObjectPublished and the watermark reached `commit_ts`.  The
  /// commit latch is still held (so calls arrive in commit order, one at a
  /// time) but the listener-list latch is not: a listener may read the
  /// record chains here.
  virtual void OnCommitPublished(uint64_t commit_ts) { (void)commit_ts; }
  /// Fired after a trim pass; listeners may discard history that ended at or
  /// before `min_active_ts`.
  virtual void OnTrim(uint64_t min_active_ts) { (void)min_active_ts; }
};

/// The multi-version side of the object store: copy-on-write record chains
/// for objects and for the version registry, a commit watermark, and the
/// visibility rule "newest record with commit_ts <= read_ts".
///
/// The live tables in `ObjectManager`/`VersionManager` stay authoritative
/// for writers (update-in-place under X locks, exactly as in PR 1); this
/// store is a shadow of *committed* states that read-only transactions
/// resolve against without touching the lock manager.
///
/// Publication sources are callbacks (set by `Database`) that copy the
/// current live state of a uid.  They are invoked while the publisher still
/// excludes other writers from that uid — either because the publishing
/// transaction holds the X lock (commit publication) or because the
/// publishing thread is the mutator itself (non-transactional immediate
/// publication) — so the copy is race-free under the §6 threading model.
class RecordStore {
 public:
  using ObjectSource = std::function<std::optional<Object>(Uid)>;
  using GenericSource =
      std::function<std::optional<std::pair<std::vector<Uid>, Uid>>(Uid)>;

  /// One entry of a publication's staged write set: the copied live state
  /// (null = the uid is published as dead, i.e. a tombstone).
  struct StagedObject {
    Uid uid;
    std::shared_ptr<const Object> state;
  };
  struct StagedGeneric {
    Uid uid;
    std::optional<std::pair<std::vector<Uid>, Uid>> info;
  };

  /// Serializes a staged write set into a logical redo body (the commit
  /// pipeline supplies the snapshot-codec implementation so this layer
  /// stays independent of core/).
  using RedoSerializer = std::function<std::string(
      const std::vector<StagedObject>&, const std::vector<StagedGeneric>&)>;
  /// Delivers one commit's serialized redo body, invoked under the commit
  /// latch immediately after the watermark advances — so the changelog's
  /// append order equals commit order (DESIGN.md §12).  MUST NOT block on
  /// I/O and may only take latches ranked above kCommit.
  using RedoHook = std::function<void(uint64_t ts, std::string body)>;

  /// Wires the clock and the live-state sources.  Must happen before any
  /// publication; `Database`'s constructor does this before the engine is
  /// reachable by any thread.
  void Configure(LogicalClock* clock, ObjectSource object_source,
                 GenericSource generic_source);

  /// Attaches the redo sink: every PublishBatch additionally emits its
  /// write set through `serialize` (phase 1, no latches held) and hands
  /// the body to `hook` (phase 2, under the commit latch).  Same
  /// reachability caveat as Configure.
  void SetRedoSink(RedoSerializer serialize, RedoHook hook);

  /// Phase 1 of publication, exposed for 2PC prepare records: copies the
  /// current live state of every uid into staged vectors without taking
  /// the commit latch.  The caller must hold whatever excludes writers
  /// from those uids (the preparing transaction's X locks).
  void StageForRedo(const std::vector<Uid>& object_uids,
                    const std::vector<Uid>& generic_uids,
                    std::vector<StagedObject>* objects,
                    std::vector<StagedGeneric>* generics) const;

  /// Registers the `mvcc.*` metrics (publish latency, records published,
  /// chain-length histogram, records trimmed) and the "mvcc.publish" span
  /// sink.  Optional — an unattached store records nothing — and, like
  /// Configure, must happen before the store is reachable by other threads.
  void AttachMetrics(obs::MetricsRegistry* metrics, obs::TraceBuffer* trace);

  /// Registry counters for the versioned query path (`SelectAt`), cached
  /// here because the query planner only carries a `const RecordStore&`.
  /// Null when metrics are not attached.
  obs::Counter* select_at_counter() const { return c_selects_at_; }
  obs::Counter* select_at_candidates_counter() const {
    return c_select_at_candidates_;
  }

  // --- Transactional suppression / batching -------------------------------

  /// While a transaction is open on this thread, MarkObject/MarkGeneric are
  /// no-ops: the transaction's own commit publishes its whole write set
  /// under one timestamp (and an abort publishes nothing).
  void EnterTransactionScope();
  void ExitTransactionScope();
  bool InTransactionScope() const;

  /// RAII: groups every MarkObject/MarkGeneric issued by this thread into a
  /// single publication with one commit timestamp, so non-transactional
  /// compound operations (Make with bindings, a deletion closure, a DDL
  /// instance sweep) become atomically visible to readers.  Nested batches
  /// collect into the outermost; a null store makes the batch a no-op.
  class Batch {
   public:
    explicit Batch(RecordStore* store);
    ~Batch();
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    /// Publishes the collected marks *now* and returns the commit
    /// timestamp they were installed under, so the caller can seal other
    /// state (a schema version, §10) at exactly that instant.  Returns 0
    /// if this is a nested batch, nothing was marked, or the store is
    /// unconfigured; the destructor then becomes a no-op for marks
    /// already flushed (later marks collect into a fresh set as usual).
    uint64_t Close();

   private:
    RecordStore* store_;
  };

  /// Records that the live state of `uid` changed (created, mutated, or
  /// deleted).  Outside any transaction/batch this publishes immediately
  /// with a fresh timestamp; inside a batch it is collected; inside a
  /// transaction it is suppressed (see above).
  void MarkObject(Uid uid);
  void MarkGeneric(Uid uid);

  /// Publishes the given uids' current live states as one atomic commit:
  /// one clock tick, all records installed, then the watermark advances.
  /// Returns the commit timestamp (0 if the store is unconfigured or the
  /// sets are empty).  Duplicates are tolerated.
  uint64_t PublishBatch(const std::vector<Uid>& object_uids,
                        const std::vector<Uid>& generic_uids);

  // --- Read path -----------------------------------------------------------

  /// Newest committed timestamp whose records are fully visible.  Read-only
  /// transactions capture this as their read timestamp.
  uint64_t watermark() const {
    return watermark_.load(std::memory_order_acquire);
  }

  /// Ticks the clock once and publishes that (empty) instant as the new
  /// watermark.  Used by the online-DDL path (§10) to seal a schema-only
  /// change — one that rewrote no instances and therefore produced no
  /// records — at a timestamp snapshots can order against: readers at or
  /// above the returned ts see the new schema version, readers below it
  /// the old.  Returns 0 if the store is unconfigured.
  uint64_t AdvanceWatermark();

  /// The newest committed state of `uid` with commit_ts <= ts, or null if
  /// the object did not exist (or was deleted) as of `ts`.
  std::shared_ptr<const Object> GetAt(Uid uid, uint64_t ts) const;

  bool ExistsAt(Uid uid, uint64_t ts) const { return GetAt(uid, ts) != nullptr; }

  /// The registry entry (version list, user default) of generic `uid` as of
  /// `ts`; nullopt if the generic did not exist then.
  std::optional<std::pair<std::vector<Uid>, Uid>> GetGenericAt(
      Uid uid, uint64_t ts) const;

  /// Uids whose visible state at `ts` has exactly class `cls` (direct
  /// extent; schema-closure unions are the caller's job).  Sorted.
  std::vector<Uid> InstancesOfAt(ClassId cls, uint64_t ts) const;

  /// Every uid with a visible (non-tombstone) state at `ts`.  Sorted.
  std::vector<Uid> AllUidsAt(uint64_t ts) const;

  /// Every generic uid live at `ts`.  Sorted.
  std::vector<Uid> GenericsAt(uint64_t ts) const;

  /// Visits every record of every object chain (newest first within a
  /// chain), shard by shard under the shared latch.  Tombstone records are
  /// visited with `record.state == nullptr`.  Index construction seeds its
  /// versioned postings from this so readers pinned before the index was
  /// built still get complete candidate sets.
  void ForEachObjectRecord(
      const std::function<void(Uid, const ObjectRecord&)>& fn) const;

  // --- Reclamation ---------------------------------------------------------

  /// Drops every record shadowed by a newer record with commit_ts <=
  /// `min_active_ts`, and whole chains whose visible state at
  /// `min_active_ts` is a tombstone with nothing newer.  Visits only the
  /// chains on the trim queue — those that gained a second record or a
  /// tombstone since they were last clean — one chain's shard latch at a
  /// time, and queues again only those a reader pinned below their history
  /// still keeps from collapsing.  Safe to run concurrently with
  /// publication and readers; concurrent Trims run one after the other, so
  /// a pass visits everything queued before it.  Returns the number of
  /// records (object + generic) discarded, so the reclaimer can surface
  /// zero-progress passes; `chains_visited`, if given, receives the number
  /// of chains examined.
  size_t Trim(uint64_t min_active_ts, size_t* chains_visited = nullptr);

  /// Both take the commit latch, so no publication is in flight while the
  /// list changes: once RemoveListener returns, the listener is never
  /// called again.
  void AddListener(RecordStoreListener* listener);
  void RemoveListener(RecordStoreListener* listener);

  // --- Diagnostics ---------------------------------------------------------

  /// Total object records across all chains (tests bound this after Trim).
  size_t record_count() const;
  /// Number of object chains.
  size_t chain_count() const { return objects_.size(); }
  /// Total generic records across all chains, and the number of chains.
  size_t generic_record_count() const;
  size_t generic_chain_count() const { return generics_.size(); }
  /// Uids in the extent membership set of `cls` (live or not).
  size_t extent_member_count(ClassId cls) const;

 private:
  struct ObjectChain {
    std::shared_ptr<ObjectRecord> head;
    /// Class of the newest non-tombstone publication; lets the trimmer
    /// prune extent membership when it drops a dead chain.
    ClassId cls{0};
    /// Number of records in the chain (install increments, trim recounts);
    /// feeds the mvcc.chain_length histogram without walking the chain.
    uint32_t length = 0;
    /// The uid is on `trim_objects_` or in a running Trim's batch.  Set by
    /// install, cleared by Trim, both under the shard latch, so a chain is
    /// queued at most once.
    bool queued = false;
  };
  struct GenericChain {
    std::shared_ptr<GenericRecord> head;
    /// As ObjectChain::queued, for `trim_generics_`.
    bool queued = false;
  };

  struct TlsState {
    int txn_depth = 0;
    int batch_depth = 0;
    std::vector<Uid> batch_objects;
    std::vector<Uid> batch_generics;
  };
  /// Per-thread, per-store suppression/batch state.  Keyed by store so a
  /// thread driving two databases cannot cross-suppress; entries are erased
  /// once all depths return to zero, so address reuse after a store's
  /// destruction cannot inherit stale state.
  static std::unordered_map<const RecordStore*, TlsState>& TlsMap();
  TlsState& Tls() const;
  void MaybeReleaseTls() const;

  void InstallObject(Uid uid, std::shared_ptr<const Object> state,
                     uint64_t ts);
  void InstallGeneric(Uid uid,
                      std::optional<std::pair<std::vector<Uid>, Uid>> info,
                      uint64_t ts);

  LogicalClock* clock_ = nullptr;
  ObjectSource object_source_;
  GenericSource generic_source_;
  RedoSerializer redo_serialize_;
  RedoHook redo_hook_;

  /// Serializes publication so each commit's records become visible as a
  /// unit: records install, THEN the watermark advances past their
  /// timestamp.  A reader's timestamp is always a published watermark, so
  /// it can never observe half a commit.
  ///
  /// Rank kCommit — the §7 leaf rule, machine-checked: acquired only with
  /// nothing held except the coordinator latches ranked below it (the
  /// version registry publishes GenericRecords while holding its own
  /// latch); inside it, only the store's own chain shards, the listener
  /// list, the WAL queue, and the latches of the listeners themselves may
  /// be taken.
  Latch commit_mu_{"recordstore.commit", LatchRank::kCommit};
  std::atomic<uint64_t> watermark_{0};

  /// Serializes Trim, so a pass returns only after every chain queued
  /// before it was visited (ReclaimOnce stays deterministic beside the
  /// background reclaimer).
  Latch trim_mu_{"recordstore.trim", LatchRank::kRecordTrim};
  /// The trim queue: uids of chains that hold history or a tombstone.
  /// Installs append (each chain once, see ObjectChain::queued) and Trim
  /// swaps the lists out and puts back what it could not collapse.  Guarded
  /// by commit_mu_.
  std::vector<Uid> trim_objects_;
  std::vector<Uid> trim_generics_;

  ShardedMap<Uid, ObjectChain> objects_{"recordstore.objects.shard",
                                        LatchRank::kRecordChainShard};
  ShardedMap<Uid, GenericChain> generics_{"recordstore.generics.shard",
                                          LatchRank::kRecordChainShard};
  /// Uids ever published (non-tombstone) under each class; pruned on trim.
  /// A member may be dead or reclassified at any given ts — InstancesOfAt
  /// re-verifies through GetAt.
  ShardedMap<ClassId, std::unordered_set<Uid>> extent_members_{
      "recordstore.extents.shard", LatchRank::kRecordChainShard};

  /// Writers of `listeners_` hold commit_mu_ AND listeners_mu_; readers
  /// hold either (publication holds commit_mu_, Trim listeners_mu_).
  mutable Latch listeners_mu_{"recordstore.listeners",
                              LatchRank::kListenerList};
  std::vector<RecordStoreListener*> listeners_;

  // Registry-backed instrumentation (mvcc.* / query.*); null until
  // AttachMetrics, and every use is null-guarded so standalone stores pay
  // nothing.
  obs::Counter* c_publishes_ = nullptr;
  obs::Counter* c_records_published_ = nullptr;
  obs::Counter* c_records_trimmed_ = nullptr;
  obs::Counter* c_selects_at_ = nullptr;
  obs::Counter* c_select_at_candidates_ = nullptr;
  obs::Histogram* h_publish_us_ = nullptr;
  obs::Histogram* h_chain_length_ = nullptr;
  obs::TraceBuffer* trace_ = nullptr;
};

}  // namespace orion

#endif  // ORION_OBJECT_RECORD_STORE_H_
