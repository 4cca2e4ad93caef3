#include "core/transaction.h"

#include <algorithm>

#include "obs/trace.h"

namespace orion {

namespace {

/// The live table as the coverage walk of LockCompositeForRead sees it:
/// Peek without deferred catch-up (the walk holds only read locks, so it
/// must not rewrite an instance), restricted to what the composite lock
/// covers — the root and instances of the locked component classes.  An
/// instance of any other class (a subclass of an attribute's domain, or
/// the root's own class below the root) is outside the lock: the walk
/// neither records it nor descends through it.  Every instance the walk
/// accepts is appended to `covered`.
class CoverageView final : public ObjectView {
 public:
  CoverageView(ObjectManager& objects, Uid root,
               const std::vector<ComponentClassLock>& classes,
               std::vector<Uid>* covered)
      : objects_(&objects),
        schema_view_(objects.schema(), kSchemaLiveTs),
        root_(root),
        classes_(classes),
        covered_(covered) {}

  const Object* Lookup(Uid uid) const override {
    const Object* obj = objects_->Peek(uid);
    if (obj == nullptr ||
        (uid != root_ &&
         std::none_of(classes_.begin(), classes_.end(),
                      [&](const ComponentClassLock& c) {
                        return c.cls == obj->class_id();
                      }))) {
      return nullptr;
    }
    covered_->push_back(uid);
    return obj;
  }

  const SchemaView* schema() const override { return &schema_view_; }

  std::vector<Uid> Extent(ClassId cls) const override {
    return objects_->InstancesOfDeep(cls);
  }

 private:
  const ObjectManager* objects_;
  SchemaView schema_view_;
  Uid root_;
  const std::vector<ComponentClassLock>& classes_;
  std::vector<Uid>* covered_;
};

}  // namespace

TransactionContext::TransactionContext(Database* db,
                                       std::chrono::milliseconds lock_timeout,
                                       std::string user)
    : db_(db),
      txn_(db->locks().Begin()),
      timeout_(lock_timeout),
      user_(std::move(user)),
      em_(&db->engine_metrics()),
      start_us_(obs::NowMicros()),
      begin_epoch_(db->schema_fence().epoch()) {
  // §13: adopt the ambient trace (the session root, or a coordinator's
  // span) as this transaction's causal parent; zero when untraced.
  trace_ctx_ = obs::CaptureChildContext(&trace_parent_);
  em_->txn_begins->Inc();
  // §10: register with the schema fence so a DDL that fences a class this
  // transaction touches knows to wait for it.
  db_->schema_fence().BeginTxn(txn_);
  // While this transaction is open on this thread, in-place mutations do
  // not publish committed records; Commit() publishes the whole write set
  // under one timestamp and Abort() publishes nothing.
  db_->records().EnterTransactionScope();
}

TransactionContext::~TransactionContext() {
  if (active_) {
    // A destructor cannot propagate the abort status; Abort always leaves
    // the transaction finished, which is all teardown needs.
    (void)Abort();
  }
}

Status TransactionContext::RequireActive() const {
  if (!active_) {
    return Status::TransactionInvalid("transaction " + std::to_string(txn_) +
                                      " has finished");
  }
  if (prepared_) {
    return Status::TransactionInvalid(
        "transaction " + std::to_string(txn_) +
        " is prepared; only CommitPrepared or Abort may follow");
  }
  return Status::Ok();
}

bool TransactionContext::IsForeign(Uid uid) const {
  return CellTagOf(uid) != db_->cell_tag();
}

Status TransactionContext::CheckAccess(Uid uid, bool write) {
  if (user_.empty()) {
    return Status::Ok();
  }
  ORION_ASSIGN_OR_RETURN(
      bool allowed,
      db_->authz().CheckAccess(user_, uid,
                               write ? AuthType::kWrite : AuthType::kRead));
  if (!allowed) {
    return Status::AccessDenied("user '" + user_ + "' may not " +
                                (write ? "write" : "read") + " object " +
                                uid.ToString());
  }
  return Status::Ok();
}

Status TransactionContext::LockWrite(Uid uid) {
  return db_->protocol().LockInstance(txn_, uid, /*write=*/true, timeout_);
}

Status TransactionContext::CheckDml(ClassId cls) {
  if (touched_classes_.count(cls) > 0) {
    return Status::Ok();
  }
  ORION_RETURN_IF_ERROR(db_->schema_fence().CheckDmlAccess(txn_, cls));
  touched_classes_.insert(cls);
  return Status::Ok();
}

Status TransactionContext::CheckDmlFor(Uid uid) {
  std::shared_ptr<const Object> rec =
      db_->records().GetAt(uid, db_->records().watermark());
  if (rec == nullptr) {
    return Status::Ok();  // ours (already registered) or nonexistent
  }
  return CheckDml(rec->class_id());
}

Status TransactionContext::Journal(Uid uid) {
  if (journal_.count(uid) > 0) {
    return Status::Ok();
  }
  // Fence registration must precede the before-image copy: the copy
  // dereferences the live object, which only the drain protocol keeps safe
  // against a concurrent DDL sweep.
  ORION_RETURN_IF_ERROR(CheckDmlFor(uid));
  const Object* obj = db_->objects().Peek(uid);
  if (obj == nullptr) {
    journal_.emplace(uid, std::nullopt);
  } else {
    journal_.emplace(uid, *obj);
  }
  return Status::Ok();
}

void TransactionContext::JournalGeneric(Uid generic) {
  if (generic_journal_.count(generic) > 0) {
    return;
  }
  auto info = db_->versions().GenericInfoOf(generic);
  if (info.ok()) {
    generic_journal_.emplace(generic, *info);
  } else {
    generic_journal_.emplace(generic, std::nullopt);
  }
}

Status TransactionContext::JournalDeletion(Uid uid) {
  auto closure = db_->objects().ComputeDeletionClosure(uid);
  std::vector<Uid> doomed =
      closure.ok() ? *closure : std::vector<Uid>{uid};
  for (Uid d : doomed) {
    ORION_RETURN_IF_ERROR(Journal(d));
    Object* obj = db_->objects().Peek(d);
    if (obj == nullptr) {
      continue;
    }
    // Deleting d mutates its surviving parents (forward refs cleared), its
    // surviving components (backlinks removed), and — for versioned
    // objects — the generic bookkeeping on both sides.
    for (const ReverseRef& r : obj->reverse_refs()) {
      ORION_RETURN_IF_ERROR(Journal(r.parent));
    }
    auto comps = db_->objects().DirectComponents(d);
    if (comps.ok()) {
      for (const auto& [child, spec] : *comps) {
        ORION_RETURN_IF_ERROR(Journal(child));
        const Object* child_obj = db_->objects().Peek(child);
        if (child_obj != nullptr && child_obj->is_version()) {
          ORION_RETURN_IF_ERROR(Journal(child_obj->generic()));
        }
      }
    }
    if (obj->is_version()) {
      ORION_RETURN_IF_ERROR(Journal(obj->generic()));
      JournalGeneric(obj->generic());
    }
    if (obj->is_generic()) {
      JournalGeneric(d);
      // Deleting a generic also touches the holders of references to it
      // and may cascade to dependent generics; journal conservatively via
      // its generic refs.
      for (const GenericRef& g : obj->generic_refs()) {
        ORION_RETURN_IF_ERROR(Journal(g.parent));
        auto info = db_->versions().GenericInfoOf(g.parent);
        if (info.ok()) {
          JournalGeneric(g.parent);
          for (Uid v : info->first) {
            ORION_RETURN_IF_ERROR(Journal(v));
          }
        }
      }
      auto own = db_->versions().GenericInfoOf(d);
      if (own.ok()) {
        for (Uid v : own->first) {
          ORION_RETURN_IF_ERROR(JournalDeletion(v));
        }
      }
    }
  }
  return Status::Ok();
}

Result<const Object*> TransactionContext::Read(Uid uid) {
  ORION_RETURN_IF_ERROR(RequireActive());
  ORION_RETURN_IF_ERROR(CheckAccess(uid, /*write=*/false));
  // §7 a–c: a composite read lock covers its components implicitly, and
  // the root's fence registration covers every class below it (§10.3),
  // so a covered object needs neither an instance lock nor a fence check.
  if (!std::binary_search(covered_.begin(), covered_.end(), uid)) {
    ORION_RETURN_IF_ERROR(CheckDmlFor(uid));
    ORION_RETURN_IF_ERROR(
        db_->protocol().LockInstance(txn_, uid, /*write=*/false, timeout_));
    // Re-register after the S lock: the first committed record of a
    // just-created object may have landed between the pre-lock check
    // (which then saw nothing) and the lock grant.
    ORION_RETURN_IF_ERROR(CheckDmlFor(uid));
  }
  // §10 + §4.3: Access runs deferred-change catch-up, which MUTATES the
  // instance.  Under an S lock that would race other readers, so when
  // catch-up is (conservatively) needed, upgrade to X and journal the
  // before-image — an abort must restore the pre-catch-up state it
  // publishes nothing for.
  {
    const Object* peek = db_->objects().Peek(uid);
    if (peek != nullptr && db_->objects().CatchUpNeeded(peek)) {
      ORION_RETURN_IF_ERROR(LockWrite(uid));
      ORION_RETURN_IF_ERROR(Journal(uid));
    }
  }
  ORION_ASSIGN_OR_RETURN(Object * obj, db_->objects().Access(uid));
  return static_cast<const Object*>(obj);
}

Status TransactionContext::LockCompositeForRead(Uid root) {
  ORION_RETURN_IF_ERROR(RequireActive());
  ORION_RETURN_IF_ERROR(CheckAccess(root, /*write=*/false));
  // Registering the root covers the whole walk: any DDL whose sweep could
  // reach a component below `root` fences the root's class too (the
  // upward half of Database::AffectedClassClosure), so it either drains
  // this transaction or refuses it here.
  ORION_RETURN_IF_ERROR(CheckDmlFor(root));
  ORION_ASSIGN_OR_RETURN(
      std::vector<ComponentClassLock> classes,
      db_->protocol().LockComposite(txn_, root, /*write=*/false, timeout_));
  // Re-register after the lock, as Read does: the root's first committed
  // record may have landed while this transaction waited for S, and the
  // covered Reads below run no fence check of their own.
  ORION_RETURN_IF_ERROR(CheckDmlFor(root));
  // Under these locks no other transaction can change the composite's
  // structure, so one walk now fixes the covered set for the rest of the
  // transaction.
  Status walked =
      ComponentsOf(CoverageView(db_->objects(), root, classes, &covered_),
                   root)
          .status();
  std::sort(covered_.begin(), covered_.end());
  covered_.erase(std::unique(covered_.begin(), covered_.end()),
                 covered_.end());
  return walked;
}

Result<Uid> TransactionContext::Make(const std::string& class_name,
                                     const std::vector<ParentBinding>& parents,
                                     const AttrValues& attrs) {
  ORION_RETURN_IF_ERROR(RequireActive());
  ORION_ASSIGN_OR_RETURN(ClassId cls, db_->schema().FindClass(class_name));
  ORION_RETURN_IF_ERROR(CheckDml(cls));
  ORION_RETURN_IF_ERROR(db_->locks().Acquire(
      txn_, LockResource::Class(cls), LockMode::kIX, timeout_));
  for (const ParentBinding& pb : parents) {
    ORION_RETURN_IF_ERROR(CheckAccess(pb.parent, /*write=*/true));
    ORION_RETURN_IF_ERROR(LockWrite(pb.parent));
    ORION_RETURN_IF_ERROR(Journal(pb.parent));
  }
  // Bottom-up assembly mutates the referenced components too — and, for
  // versioned targets, the generic's reference bookkeeping.  A foreign
  // (cross-cell) target is a reference-by-uid edge: nothing on it mutates,
  // so it is neither locked nor journaled here.
  for (const auto& [name, value] : attrs) {
    for (Uid target : value.ReferencedUids()) {
      if (IsForeign(target)) {
        continue;
      }
      ORION_RETURN_IF_ERROR(LockWrite(target));
      ORION_RETURN_IF_ERROR(Journal(target));
      const Object* t = db_->objects().Peek(target);
      if (t != nullptr && (t->is_version() || t->is_generic())) {
        const Uid generic = t->is_version() ? t->generic() : target;
        ORION_RETURN_IF_ERROR(LockWrite(generic));
        ORION_RETURN_IF_ERROR(Journal(generic));
      }
    }
  }
  ORION_ASSIGN_OR_RETURN(Uid uid, db_->MakeRaw(class_name, parents, attrs));
  journal_.emplace(uid, std::nullopt);  // created: erase on abort
  const Object* obj = db_->objects().Peek(uid);
  if (obj != nullptr && obj->is_version()) {
    // make on a versionable class created a generic too.
    journal_.emplace(obj->generic(), std::nullopt);
    generic_journal_.emplace(obj->generic(), std::nullopt);
  }
  // The uid was minted inside this transaction, so no other transaction
  // can contend for it; the X lock only registers it for release.
  (void)db_->locks().Acquire(txn_, LockResource::Instance(uid), LockMode::kX,
                             timeout_);
  return uid;
}

Status TransactionContext::SetAttribute(Uid uid, const std::string& attribute,
                                        Value value) {
  ORION_RETURN_IF_ERROR(RequireActive());
  ORION_RETURN_IF_ERROR(CheckAccess(uid, /*write=*/true));
  ORION_RETURN_IF_ERROR(LockWrite(uid));
  ORION_RETURN_IF_ERROR(Journal(uid));
  // Composite assignment touches attached/detached targets and, for
  // versioned targets, their generics: X-lock each before journaling it
  // (the journal copies the object, so an unlocked copy would race with a
  // concurrent writer).  Foreign targets are reference-by-uid edges: no
  // state of theirs changes, so they are skipped (§11).
  Object* obj = db_->objects().Peek(uid);
  if (obj != nullptr) {
    for (Uid target : obj->Get(attribute).ReferencedUids()) {
      if (IsForeign(target)) {
        continue;
      }
      ORION_RETURN_IF_ERROR(LockWrite(target));
      ORION_RETURN_IF_ERROR(Journal(target));
      const Object* t = db_->objects().Peek(target);
      if (t != nullptr && t->is_version()) {
        ORION_RETURN_IF_ERROR(LockWrite(t->generic()));
        ORION_RETURN_IF_ERROR(Journal(t->generic()));
      }
    }
  }
  for (Uid target : value.ReferencedUids()) {
    if (IsForeign(target)) {
      continue;
    }
    ORION_RETURN_IF_ERROR(LockWrite(target));
    ORION_RETURN_IF_ERROR(Journal(target));
    const Object* t = db_->objects().Peek(target);
    if (t != nullptr && t->is_version()) {
      ORION_RETURN_IF_ERROR(LockWrite(t->generic()));
      ORION_RETURN_IF_ERROR(Journal(t->generic()));
    }
  }
  return db_->objects().SetAttribute(uid, attribute, std::move(value));
}

Status TransactionContext::MakeComponent(Uid child, Uid parent,
                                         const std::string& attribute) {
  ORION_RETURN_IF_ERROR(RequireActive());
  if (CellTagOf(child) != CellTagOf(parent)) {
    // §11 root-affinity invariant: a composite edge needs reverse
    // bookkeeping on the child, so composite hierarchies never span cells.
    return Status::InvalidArgument(
        "cannot attach " + child.ToString() + " to " + parent.ToString() +
        ": composite edges cannot cross cells (use a weak reference)");
  }
  ORION_RETURN_IF_ERROR(CheckAccess(parent, /*write=*/true));
  ORION_RETURN_IF_ERROR(LockWrite(parent));
  ORION_RETURN_IF_ERROR(LockWrite(child));
  ORION_RETURN_IF_ERROR(Journal(parent));
  ORION_RETURN_IF_ERROR(Journal(child));
  const Object* c = db_->objects().Peek(child);
  if (c != nullptr && (c->is_version() || c->is_generic())) {
    const Uid generic = c->is_version() ? c->generic() : child;
    ORION_RETURN_IF_ERROR(LockWrite(generic));
    ORION_RETURN_IF_ERROR(Journal(generic));
  }
  return db_->objects().MakeComponent(child, parent, attribute);
}

Status TransactionContext::RemoveComponent(Uid child, Uid parent,
                                           const std::string& attribute) {
  ORION_RETURN_IF_ERROR(RequireActive());
  ORION_RETURN_IF_ERROR(CheckAccess(parent, /*write=*/true));
  ORION_RETURN_IF_ERROR(LockWrite(parent));
  ORION_RETURN_IF_ERROR(LockWrite(child));
  ORION_RETURN_IF_ERROR(Journal(parent));
  ORION_RETURN_IF_ERROR(Journal(child));
  const Object* c = db_->objects().Peek(child);
  if (c != nullptr && (c->is_version() || c->is_generic())) {
    const Uid generic = c->is_version() ? c->generic() : child;
    ORION_RETURN_IF_ERROR(LockWrite(generic));
    ORION_RETURN_IF_ERROR(Journal(generic));
  }
  return db_->objects().RemoveComponent(child, parent, attribute);
}

Status TransactionContext::Delete(Uid uid) {
  ORION_RETURN_IF_ERROR(RequireActive());
  ORION_RETURN_IF_ERROR(CheckAccess(uid, /*write=*/true));
  // Registering the root covers the deletion walk below it (see
  // LockCompositeForRead for the closure argument).
  ORION_RETURN_IF_ERROR(CheckDmlFor(uid));
  ORION_ASSIGN_OR_RETURN(
      std::vector<ComponentClassLock> classes,
      db_->protocol().LockComposite(txn_, uid, /*write=*/true, timeout_));
  // The composite lock covers `uid` and the doomed components whose class
  // it names.  A component of another class — a subclass of an attribute's
  // domain, or the root's own class in a recursive hierarchy — is outside
  // it (see LockCompositeForRead), so X-lock it itself.  Deletion also
  // clears forward references in the *surviving parents* of every doomed
  // object — X-lock those too, or a concurrent writer on a parent races
  // with the detach.  Child-then-parent ordering can deadlock against
  // top-down writers; the lock manager detects that and the session layer
  // retries.
  auto closure = db_->objects().ComputeDeletionClosure(uid);
  if (closure.ok()) {
    for (Uid d : *closure) {
      const Object* obj = db_->objects().Peek(d);
      if (obj == nullptr) {
        continue;
      }
      if (d != uid && std::none_of(classes.begin(), classes.end(),
                                   [&](const ComponentClassLock& c) {
                                     return c.cls == obj->class_id();
                                   })) {
        ORION_RETURN_IF_ERROR(LockWrite(d));
        obj = db_->objects().Peek(d);  // a writer may have run while we waited
        if (obj == nullptr) {
          continue;
        }
      }
      for (const ReverseRef& r : obj->reverse_refs()) {
        ORION_RETURN_IF_ERROR(LockWrite(r.parent));
      }
      if (obj->is_version()) {
        // Deleting a version mutates the generic's bookkeeping too.
        ORION_RETURN_IF_ERROR(LockWrite(obj->generic()));
      }
    }
  }
  ORION_RETURN_IF_ERROR(JournalDeletion(uid));
  return db_->DeleteObjectRaw(uid);
}

Result<Uid> TransactionContext::Derive(Uid version) {
  ORION_RETURN_IF_ERROR(RequireActive());
  ORION_RETURN_IF_ERROR(CheckAccess(version, /*write=*/false));
  ORION_RETURN_IF_ERROR(CheckDmlFor(version));
  const Object* src = db_->objects().Peek(version);
  if (src == nullptr) {
    return Status::NotFound("object " + version.ToString());
  }
  ORION_RETURN_IF_ERROR(
      db_->protocol().LockInstance(txn_, version, /*write=*/false, timeout_));
  // Deriving mutates the generic's registry entry and re-attaches the copy
  // to the source's component targets: X-lock everything that changes.
  ORION_RETURN_IF_ERROR(LockWrite(src->generic()));
  JournalGeneric(src->generic());
  ORION_RETURN_IF_ERROR(Journal(src->generic()));
  auto comps = db_->objects().DirectComponents(version);
  if (comps.ok()) {
    for (const auto& [child, spec] : *comps) {
      ORION_RETURN_IF_ERROR(LockWrite(child));
      ORION_RETURN_IF_ERROR(Journal(child));
      const Object* c = db_->objects().Peek(child);
      if (c != nullptr && (c->is_version() || c->is_generic())) {
        const Uid generic = c->is_version() ? c->generic() : child;
        ORION_RETURN_IF_ERROR(LockWrite(generic));
        ORION_RETURN_IF_ERROR(Journal(generic));
      }
    }
  }
  ORION_ASSIGN_OR_RETURN(Uid derived, db_->versions().Derive(version));
  journal_.emplace(derived, std::nullopt);
  // Same as MakeObject: a just-derived uid cannot be contended.
  (void)db_->locks().Acquire(txn_, LockResource::Instance(derived),
                             LockMode::kX, timeout_);
  return derived;
}

std::vector<ClassId> TransactionContext::JournalClasses() const {
  std::unordered_set<ClassId> classes;
  for (const auto& [uid, before] : journal_) {
    const Object* obj = db_->objects().Peek(uid);
    if (obj != nullptr) {
      classes.insert(obj->class_id());
    } else if (before.has_value()) {
      classes.insert(before->class_id());
    }
  }
  return std::vector<ClassId>(classes.begin(), classes.end());
}

CommitRequest TransactionContext::BuildCommitRequest(bool with_write_set) const {
  CommitRequest req;
  req.txn = txn_;
  req.begin_epoch = begin_epoch_;
  // The journal keys are exactly the write set: every mutated, created, or
  // deleted object and registry entry was journaled before it was touched.
  req.classes = JournalClasses();
  if (with_write_set) {
    req.objects.reserve(journal_.size());
    for (const auto& [uid, before] : journal_) {
      req.objects.push_back(uid);
    }
    req.generics.reserve(generic_journal_.size());
    for (const auto& [uid, before] : generic_journal_) {
      req.generics.push_back(uid);
    }
  }
  return req;
}

Status TransactionContext::Commit() {
  ORION_RETURN_IF_ERROR(RequireActive());
  // §13: spans recorded below (WAL waits, the outcome) parent to this
  // transaction's span, not to whatever the thread was doing before.
  obs::TraceContextScope trace_scope(trace_ctx_);
  // §10 commit-time backstop, now pipeline stage 1: re-derive the touched
  // classes from the journal itself (the write set) and have the fence
  // validate them.  This is independent of the per-operation CheckDml
  // reports, so an op path that forgot its check still cannot publish
  // across a fence or an epoch bump.  On refusal the transaction aborts in
  // full and surfaces the retryable kSchemaConflict to the session loop.
  {
    Status fence_ok =
        db_->commit_pipeline().Validate(BuildCommitRequest(false));
    if (!fence_ok.ok()) {
      // The abort rollback outcome is subsumed by the schema conflict.
      (void)Abort();
      return fence_ok;
    }
  }
  return PublishAndRelease();
}

Status TransactionContext::Prepare() {
  ORION_RETURN_IF_ERROR(RequireActive());
  // §13: re-adopt this participant's span — the coordinator drives several
  // participants interleaved from one thread, so each re-installs its own
  // context at its outcome entry points.
  obs::TraceContextScope trace_scope(trace_ctx_);
  // Unlike Commit(), which publishes while still inside the validate→
  // publish timing window the fence protocol covers, a prepared
  // transaction publishes at an unbounded later point (after every other
  // participant prepares).  So phase 1 must REGISTER every journal class:
  // a fence that rises over one of them after this returns finds the class
  // in this transaction's touched set and drains — i.e. waits for
  // CommitPrepared or Abort — before its sweep.
  for (ClassId cls : JournalClasses()) {
    Status st = CheckDml(cls);
    if (!st.ok()) {
      // The fence refusal is the error to surface; rollback cannot fail.
      (void)Abort();
      return st;
    }
  }
  Status fence_ok =
      db_->commit_pipeline().Validate(BuildCommitRequest(false));
  if (!fence_ok.ok()) {
    // Same: the validation refusal outranks the (infallible) rollback.
    (void)Abort();
    return fence_ok;
  }
  // §12: a 2PC participant's yes-vote is a promise that survives a crash,
  // so before voting it logs a prepare record carrying the FULL redo
  // payload (staged from the live states its X locks still protect).
  // Recovery that finds the prepare without a matching commit2pc resolves
  // it from the cluster decision log.
  if (gtid_ != 0 && db_->commit_pipeline().has_sinks()) {
    const CommitRequest req = BuildCommitRequest(true);
    std::vector<RecordStore::StagedObject> staged_objects;
    std::vector<RecordStore::StagedGeneric> staged_generics;
    db_->records().StageForRedo(req.objects, req.generics, &staged_objects,
                                &staged_generics);
    const std::string record =
        RedoHeader(RedoTag{RedoKind::kCommit2pc, gtid_}, /*ts=*/0) +
        SerializeRedoBody(staged_objects, staged_generics);
    Status logged = db_->commit_pipeline().PrepareRecord(gtid_, record);
    if (!logged.ok()) {
      // Cannot promise durability — vote no and abort in full.
      (void)Abort();
      return logged;
    }
  }
  prepared_ = true;
  return Status::Ok();
}

Status TransactionContext::CommitPrepared() {
  if (!active_ || !prepared_) {
    return Status::TransactionInvalid(
        "transaction " + std::to_string(txn_) +
        (active_ ? " was not prepared" : " has finished"));
  }
  obs::TraceContextScope trace_scope(trace_ctx_);
  return PublishAndRelease();
}

Status TransactionContext::PublishAndRelease() {
  active_ = false;
  // Publish every touched uid's (post-mutation) live state as one commit —
  // BEFORE releasing the locks, so the record-store sources copy states this
  // transaction still exclusively owns.
  const CommitRequest req = BuildCommitRequest(true);
  db_->records().ExitTransactionScope();
  uint64_t commit_ts = 0;
  {
    // Tag the publication so the redo hook (deep inside the record store)
    // writes the right header: commit2pc for a 2PC phase 2, commit else.
    RedoTagScope redo_tag(RedoTag{
        gtid_ != 0 ? RedoKind::kCommit2pc : RedoKind::kCommit, gtid_});
    commit_ts = db_->commit_pipeline().Publish(req);
  }
  const size_t journaled = journal_.size() + generic_journal_.size();
  journal_.clear();
  generic_journal_.clear();
  Status released = db_->locks().Release(txn_);
  // Deregister only after publish + lock release: a draining DDL may sweep
  // the moment the last conflicter ends, and by then this commit must be
  // fully out of the closure's instances.
  db_->schema_fence().EndTxn(txn_);
  // Early lock release: Harden blocks on the group-commit fsync AFTER the
  // locks dropped.  Safe because the changelog is a commit-order prefix —
  // a crash that loses this commit also loses everything that read it
  // (which cannot have hardened either; it is later in the log).
  Status hardened = db_->commit_pipeline().Harden(commit_ts);
  if (prepared_ && gtid_ != 0) {
    // Phase 2 is on disk; the prepare record no longer pins its segment.
    db_->commit_pipeline().ResolvePrepared(gtid_);
  }
  em_->txn_commits->Inc();
  em_->txn_journal_size->Observe(journaled);
  const uint64_t dur_us = obs::NowMicros() - start_us_;
  em_->txn_commit_us->Observe(dur_us);
  obs::EmitSpan(&db_->trace(), "txn.commit", start_us_, dur_us, txn_,
                trace_ctx_, trace_parent_);
  return hardened.ok() ? released : hardened;
}

Status TransactionContext::Abort() {
  // Abort is legal at any point before the outcome is decided — including
  // after a successful Prepare (the coordinator aborts all participants
  // when one refuses), so it checks active_ directly.
  if (!active_) {
    return Status::TransactionInvalid("transaction " + std::to_string(txn_) +
                                      " has finished");
  }
  obs::TraceContextScope trace_scope(trace_ctx_);
  active_ = false;
  // Pass 1: remove objects created by this transaction.
  for (const auto& [uid, before] : journal_) {
    if (!before.has_value()) {
      db_->objects().EraseRaw(uid);
    }
  }
  // Pass 2: restore every before-image (covers deleted and mutated
  // objects, including all side effects on neighbours, because every
  // mutated neighbour was journaled too).
  for (const auto& [uid, before] : journal_) {
    if (before.has_value()) {
      db_->objects().OverwriteRaw(*before);
    }
  }
  // Pass 3: the version registry.
  for (const auto& [generic, before] : generic_journal_) {
    if (before.has_value()) {
      db_->versions().RestoreGeneric(generic, before->first, before->second);
    } else {
      db_->versions().ForgetGeneric(generic);
    }
  }
  journal_.clear();
  generic_journal_.clear();
  // The restores above ran inside the transaction scope, so none of them
  // published; leaving the scope without publishing makes the abort O(its
  // own write set) with no record-chain traffic at all.
  db_->records().ExitTransactionScope();
  Status released = db_->locks().Release(txn_);
  db_->schema_fence().EndTxn(txn_);
  if (prepared_ && gtid_ != 0) {
    // The decided-abort releases the prepare record's segment pin; the
    // record itself stays in the log and is presumed aborted on replay
    // (no commit2pc, no decision-log entry).
    db_->commit_pipeline().ResolvePrepared(gtid_);
  }
  em_->txn_aborts->Inc();
  const uint64_t dur_us = obs::NowMicros() - start_us_;
  em_->txn_abort_us->Observe(dur_us);
  obs::EmitSpan(&db_->trace(), "txn.abort", start_us_, dur_us, txn_,
                trace_ctx_, trace_parent_);
  return released;
}

}  // namespace orion
