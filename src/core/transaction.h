#ifndef ORION_CORE_TRANSACTION_H_
#define ORION_CORE_TRANSACTION_H_

#include <chrono>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/database.h"

namespace orion {

/// A transactional scope over the database: strict 2PL through the §7 lock
/// protocols, optional §6 access checks, and full rollback on abort.
///
/// Every mutating operation first acquires the appropriate locks (class
/// intention lock + instance lock, or a whole-composite lock via
/// `LockComposite`) and journals before-images of every object it will
/// touch.  `Abort()` — also invoked by the destructor if neither Commit nor
/// Abort ran — erases objects created by the transaction and restores every
/// journaled before-image, then releases all locks.  `Commit()` discards
/// the journal and releases the locks.
///
/// Scope notes: schema changes (DDL) are not transactional, matching
/// ORION's behaviour, but they ARE safe to run while transactions are in
/// flight (§10): every transaction registers each class it touches with the
/// database's `SchemaFence` before touching any instance of it, and a DDL
/// operation fences its affected class closure, drains the registered
/// conflicters, and bumps the schema epoch.  A transaction that runs into a
/// fence fails with the retryable `kSchemaConflict` — `Session::Run`
/// re-executes it against the new schema.  The §7 protocols this layers on
/// are "appropriate largely for conventional short transactions" (the paper
/// defers long-duration transactions to future work — see
/// LockInstance-based component locking for that style).
class TransactionContext {
 public:
  /// Starts a transaction.  `lock_timeout` bounds each lock wait (0 =
  /// try-lock).  If `user` is non-empty, every read checks Read access and
  /// every mutation checks Write access through the authorization
  /// subsystem before acquiring locks.
  explicit TransactionContext(Database* db,
                              std::chrono::milliseconds lock_timeout =
                                  std::chrono::milliseconds(0),
                              std::string user = "");
  ~TransactionContext();

  TransactionContext(const TransactionContext&) = delete;
  TransactionContext& operator=(const TransactionContext&) = delete;

  TxnId id() const { return txn_; }
  bool active() const { return active_; }

  // --- Reads -----------------------------------------------------------------

  /// Locks the instance for reading (IS on class, S on instance) and
  /// returns it.  An object covered by a composite read lock this
  /// transaction holds (see LockCompositeForRead) is read under that lock:
  /// no instance lock and no fence re-check.
  Result<const Object*> Read(Uid uid);

  /// Locks the whole composite object rooted at `root` for reading with
  /// the extended §7 protocol, then records the root and every component
  /// the lock covers — instances of the locked component classes reached
  /// from the root — so that later Reads of them take no further lock.
  Status LockCompositeForRead(Uid root);

  // --- Mutations (all journaled) ----------------------------------------------

  /// Creates an instance (IX on the class; parents locked X).
  Result<Uid> Make(const std::string& class_name,
                   const std::vector<ParentBinding>& parents = {},
                   const AttrValues& attrs = {});

  /// Locks `uid` for writing and assigns the attribute.
  Status SetAttribute(Uid uid, const std::string& attribute, Value value);

  /// Locks both objects for writing and attaches.
  Status MakeComponent(Uid child, Uid parent, const std::string& attribute);

  /// Locks both objects for writing and detaches.
  Status RemoveComponent(Uid child, Uid parent, const std::string& attribute);

  /// Locks the composite rooted at `uid` for writing and deletes it with
  /// the role-appropriate deletion rule.
  Status Delete(Uid uid);

  /// Derives a new version instance from `version` (§5), journaled.
  Result<Uid> Derive(Uid version);

  // --- Outcome ------------------------------------------------------------------

  /// Makes every change durable-in-memory and releases the locks.
  Status Commit();

  /// Restores every touched object to its before-image, removes created
  /// objects, restores the version registry, and releases the locks.
  Status Abort();

  // --- Two-phase commit across cells (§11) ------------------------------------

  /// Phase 1: runs every commit-time validation this participant can fail
  /// on — registers each journal-derived class with the schema fence and
  /// re-validates the touched set — without publishing anything.  The
  /// explicit registration is what makes the open-ended prepare→commit
  /// window safe: a DDL fence raised after a successful Prepare finds this
  /// transaction in its drain set and waits for phase 2 (Commit() can rely
  /// on timing instead; Prepare() cannot).  On refusal the participant
  /// aborts in full, exactly like Commit(), and surfaces the (retryable)
  /// error so the coordinator aborts the other participants.  After an OK
  /// Prepare, only CommitPrepared() or Abort() may follow — this
  /// participant can no longer fail by itself.
  Status Prepare();

  /// Phase 2: publishes the write set at this cell's next commit timestamp,
  /// releases the locks, and deregisters from the fence — the tail half of
  /// Commit().  Requires a successful Prepare().
  Status CommitPrepared();

  bool prepared() const { return prepared_; }

  /// §11 + §12: tags this participant with the coordinator's global
  /// transaction id.  A tagged Prepare() logs a durable prepare record
  /// (the full redo payload) before voting yes, and phase 2 publishes
  /// under a `commit2pc` header so recovery can match the two.  Set by
  /// ClusterTransaction before phase 1; 0 = not a 2PC participant.
  void set_gtid(uint64_t gtid) { gtid_ = gtid; }
  uint64_t gtid() const { return gtid_; }

  /// Number of distinct objects journaled so far.
  size_t journal_size() const { return journal_.size(); }

 private:
  Status RequireActive() const;
  /// The distinct classes of every journaled object (live state first,
  /// before-image as fallback) — the §10 commit-validation input.
  std::vector<ClassId> JournalClasses() const;
  /// The pipeline inputs derived from this transaction's journals; the
  /// write-set uid vectors are filled only when `with_write_set`
  /// (validation-only callers skip the copy).
  CommitRequest BuildCommitRequest(bool with_write_set) const;
  /// The tail shared by Commit() and CommitPrepared(): publishes the write
  /// set under one timestamp, releases locks, deregisters from the fence,
  /// and records the commit metrics.
  Status PublishAndRelease();
  /// True for uids minted by another cell: such objects are reachable only
  /// as reference-by-uid edges (§11), never locked or journaled here —
  /// their owning cell's transaction covers them.
  bool IsForeign(Uid uid) const;
  Status CheckAccess(Uid uid, bool write);
  Status LockWrite(Uid uid);
  /// §10: registers `cls` with the schema fence (kSchemaConflict if it is
  /// fenced by an in-flight DDL).  Cached per transaction, so the fence
  /// latch is taken at most once per (txn, class).
  Status CheckDml(ClassId cls);
  /// CheckDml for the class of `uid`, resolved from the committed record
  /// chain — an immutable, latched copy — never from the live table: an
  /// unregistered Peek could race a DDL sweep deleting the object.  A uid
  /// with no committed record belongs to this transaction (class already
  /// registered by Make/Derive) or does not exist; both pass.
  Status CheckDmlFor(Uid uid);
  /// Journals `uid` (before-image, or "did not exist") exactly once.
  /// Registers the uid's class with the schema fence first — the journal
  /// keys are exactly the write set, so this is what guarantees every
  /// journaled class is registered (the §10 commit backstop relies on it).
  Status Journal(Uid uid);
  /// Journals every object the deletion closure of `uid` will touch.
  Status JournalDeletion(Uid uid);
  /// Journals the version-registry entry of `generic` exactly once.
  void JournalGeneric(Uid generic);

  Database* db_;
  TxnId txn_;
  std::chrono::milliseconds timeout_;
  std::string user_;
  /// Engine metric handles and the begin timestamp (one clock read per
  /// transaction; commit/abort latency histograms measure from here).
  const EngineMetrics* em_;
  uint64_t start_us_;
  /// §10: schema epoch at begin; commit validation detects DDL completed
  /// in the window.
  uint64_t begin_epoch_;
  bool active_ = true;
  /// Set by a successful Prepare(); bars further operations and Commit().
  bool prepared_ = false;
  /// §13 causal identity, captured from the thread's ambient trace at
  /// begin: this transaction's span id (children parent to it) and the
  /// span to parent the outcome span to.  Zero outside a traced session.
  /// Re-installed via TraceContextScope at each outcome entry point —
  /// never held ambient across the open phase, because 2PC participants
  /// are driven interleaved from one coordinator thread.
  obs::TraceContext trace_ctx_{};
  uint64_t trace_parent_ = 0;
  /// Coordinator-assigned global transaction id (0 = single-cell commit).
  uint64_t gtid_ = 0;
  /// Classes already registered with the schema fence (txn-local cache).
  std::unordered_set<ClassId> touched_classes_;
  /// Objects covered by a composite read lock this transaction holds,
  /// sorted.
  std::vector<Uid> covered_;
  /// uid -> before-image; nullopt = the object did not exist before.
  std::unordered_map<Uid, std::optional<Object>> journal_;
  /// generic uid -> (versions, user default) before; nullopt = unregistered.
  std::unordered_map<Uid, std::optional<std::pair<std::vector<Uid>, Uid>>>
      generic_journal_;
};

}  // namespace orion

#endif  // ORION_CORE_TRANSACTION_H_
