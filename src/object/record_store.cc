#include "object/record_store.h"

#include <algorithm>
#include <unordered_map>

namespace orion {

namespace {

/// Where a trim cuts a chain: the newest record with commit_ts <= the
/// minimum active read timestamp (null if none), the number of records up
/// to and including it, and the chain's length.  Everything older than the
/// pivot is unreachable by any present or future reader.
template <typename Record>
struct Pivot {
  Record* record = nullptr;
  uint32_t kept = 0;
  uint32_t total = 0;
};

template <typename Record>
Pivot<Record> FindPivot(Record* head, uint64_t min_active_ts) {
  Pivot<Record> p;
  for (Record* r = head; r != nullptr; r = r->prev.get()) {
    ++p.total;
    if (p.record == nullptr) {
      ++p.kept;
      if (r->commit_ts <= min_active_ts) {
        p.record = r;
      }
    }
  }
  return p;
}

}  // namespace

std::unordered_map<const RecordStore*, RecordStore::TlsState>&
RecordStore::TlsMap() {
  thread_local std::unordered_map<const RecordStore*, TlsState> map;
  return map;
}

RecordStore::TlsState& RecordStore::Tls() const { return TlsMap()[this]; }

void RecordStore::MaybeReleaseTls() const {
  auto& map = TlsMap();
  auto it = map.find(this);
  if (it != map.end() && it->second.txn_depth == 0 &&
      it->second.batch_depth == 0) {
    map.erase(it);
  }
}

void RecordStore::Configure(LogicalClock* clock, ObjectSource object_source,
                            GenericSource generic_source) {
  clock_ = clock;
  object_source_ = std::move(object_source);
  generic_source_ = std::move(generic_source);
}

void RecordStore::AttachMetrics(obs::MetricsRegistry* metrics,
                                obs::TraceBuffer* trace) {
  if (metrics != nullptr) {
    c_publishes_ = &metrics->counter("mvcc.publishes");
    c_records_published_ = &metrics->counter("mvcc.records_published");
    c_records_trimmed_ = &metrics->counter("mvcc.records_trimmed");
    c_selects_at_ = &metrics->counter("query.selects_at");
    c_select_at_candidates_ = &metrics->counter("query.select_reverified");
    h_publish_us_ = &metrics->histogram("mvcc.publish_us");
    h_chain_length_ = &metrics->histogram("mvcc.chain_length");
  }
  trace_ = trace;
}

void RecordStore::EnterTransactionScope() { ++Tls().txn_depth; }

void RecordStore::ExitTransactionScope() {
  TlsState& tls = Tls();
  if (tls.txn_depth > 0) {
    --tls.txn_depth;
  }
  MaybeReleaseTls();
}

bool RecordStore::InTransactionScope() const {
  auto& map = TlsMap();
  auto it = map.find(this);
  return it != map.end() && it->second.txn_depth > 0;
}

RecordStore::Batch::Batch(RecordStore* store) : store_(store) {
  if (store_ != nullptr) {
    ++store_->Tls().batch_depth;
  }
}

RecordStore::Batch::~Batch() {
  if (store_ == nullptr) {
    return;
  }
  TlsState& tls = store_->Tls();
  if (--tls.batch_depth == 0) {
    std::vector<Uid> objects = std::move(tls.batch_objects);
    std::vector<Uid> generics = std::move(tls.batch_generics);
    tls.batch_objects.clear();
    tls.batch_generics.clear();
    store_->MaybeReleaseTls();
    if (!objects.empty() || !generics.empty()) {
      store_->PublishBatch(objects, generics);
    }
  }
}

uint64_t RecordStore::Batch::Close() {
  if (store_ == nullptr) {
    return 0;
  }
  TlsState& tls = store_->Tls();
  if (tls.batch_depth != 1) {
    return 0;  // nested: the outermost batch owns publication
  }
  std::vector<Uid> objects = std::move(tls.batch_objects);
  std::vector<Uid> generics = std::move(tls.batch_generics);
  tls.batch_objects.clear();
  tls.batch_generics.clear();
  if (objects.empty() && generics.empty()) {
    return 0;
  }
  return store_->PublishBatch(objects, generics);
}

uint64_t RecordStore::AdvanceWatermark() {
  if (clock_ == nullptr) {
    return 0;
  }
  LatchGuard commit(commit_mu_);
  const uint64_t ts = clock_->Tick();
  watermark_.store(ts, std::memory_order_release);
  return ts;
}

void RecordStore::MarkObject(Uid uid) {
  if (clock_ == nullptr || !uid.valid()) {
    return;
  }
  TlsState& tls = Tls();
  if (tls.txn_depth > 0) {
    MaybeReleaseTls();
    return;  // the transaction's commit publishes its journal
  }
  if (tls.batch_depth > 0) {
    tls.batch_objects.push_back(uid);
    return;
  }
  MaybeReleaseTls();
  PublishBatch({uid}, {});
}

void RecordStore::MarkGeneric(Uid uid) {
  if (clock_ == nullptr || !uid.valid()) {
    return;
  }
  TlsState& tls = Tls();
  if (tls.txn_depth > 0) {
    MaybeReleaseTls();
    return;
  }
  if (tls.batch_depth > 0) {
    tls.batch_generics.push_back(uid);
    return;
  }
  MaybeReleaseTls();
  PublishBatch({}, {uid});
}

void RecordStore::SetRedoSink(RedoSerializer serialize, RedoHook hook) {
  redo_serialize_ = std::move(serialize);
  redo_hook_ = std::move(hook);
}

void RecordStore::StageForRedo(const std::vector<Uid>& object_uids,
                               const std::vector<Uid>& generic_uids,
                               std::vector<StagedObject>* objects,
                               std::vector<StagedGeneric>* generics) const {
  std::vector<Uid> seen;
  for (Uid uid : object_uids) {
    if (std::find(seen.begin(), seen.end(), uid) != seen.end()) {
      continue;
    }
    seen.push_back(uid);
    std::optional<Object> live = object_source_(uid);
    std::shared_ptr<const Object> state;
    if (live.has_value()) {
      state = std::make_shared<const Object>(std::move(*live));
    } else if (!objects_.Contains(uid)) {
      continue;  // never-seen uid published as dead: nothing to record
    }
    objects->push_back(StagedObject{uid, std::move(state)});
  }
  seen.clear();
  for (Uid uid : generic_uids) {
    if (std::find(seen.begin(), seen.end(), uid) != seen.end()) {
      continue;
    }
    seen.push_back(uid);
    auto info = generic_source_(uid);
    if (!info.has_value() && !generics_.Contains(uid)) {
      continue;
    }
    generics->push_back(StagedGeneric{uid, std::move(info)});
  }
}

uint64_t RecordStore::PublishBatch(const std::vector<Uid>& object_uids,
                                   const std::vector<Uid>& generic_uids) {
  if (clock_ == nullptr || (object_uids.empty() && generic_uids.empty())) {
    return 0;
  }
  // Clock reads only when someone is listening: publication is a
  // heavyweight path (copies + commit_mu_), but unattached stores should
  // still pay nothing.
  const bool timed = h_publish_us_ != nullptr || trace_ != nullptr;
  const uint64_t start_us = timed ? obs::NowMicros() : 0;

  // Phase 1 — copy live states WITHOUT holding commit_mu_.  The copies are
  // race-free because the publisher still excludes other writers from every
  // uid it publishes (X locks at commit, or it is the mutating thread for
  // non-transactional publication).  Calling the sources outside commit_mu_
  // also keeps the lock order acyclic: the generic source takes
  // VersionManager::mu_, and VersionManager publishes while holding mu_, so
  // commit_mu_ must never be held when mu_ is acquired.
  std::vector<StagedObject> staged_objects;
  std::vector<StagedGeneric> staged_generics;
  StageForRedo(object_uids, generic_uids, &staged_objects, &staged_generics);

  // The redo body is a by-product of the staging pass: serialized here with
  // no latches held, handed to the hook under commit_mu_ once the timestamp
  // is known.
  std::string redo_body;
  const bool redo = redo_hook_ != nullptr &&
                    !(staged_objects.empty() && staged_generics.empty());
  if (redo) {
    redo_body = redo_serialize_(staged_objects, staged_generics);
  }

  // Phase 2 — install all records under one timestamp, then advance the
  // watermark.  A reader's timestamp is always a published watermark, so it
  // can never observe half a publication.
  const uint64_t records = staged_objects.size() + staged_generics.size();
  uint64_t ts = 0;
  {
    LatchGuard commit(commit_mu_);
    ts = clock_->Tick();
    for (StagedObject& so : staged_objects) {
      InstallObject(so.uid, std::move(so.state), ts);
    }
    for (StagedGeneric& sg : staged_generics) {
      InstallGeneric(sg.uid, std::move(sg.info), ts);
    }
    watermark_.store(ts, std::memory_order_release);
    if (redo) {
      // Still inside commit_mu_: the changelog receives records in exactly
      // the order commits became visible, so its on-disk order is a prefix
      // of history (DESIGN.md §12).
      redo_hook_(ts, std::move(redo_body));
    }
    for (RecordStoreListener* listener : listeners_) {
      listener->OnCommitPublished(ts);
    }
  }
  if (c_publishes_ != nullptr) {
    c_publishes_->Inc();
    c_records_published_->Add(records);
  }
  if (timed) {
    const uint64_t dur_us = obs::NowMicros() - start_us;
    if (h_publish_us_ != nullptr) {
      h_publish_us_->Observe(dur_us);
    }
    if (trace_ != nullptr) {
      trace_->Record("mvcc.publish", start_us, dur_us, records);
    }
  }
  return ts;
}

void RecordStore::InstallObject(Uid uid, std::shared_ptr<const Object> state,
                                uint64_t ts) {
  std::shared_ptr<const Object> before;
  uint32_t chain_len = 0;
  objects_.Update(uid, [&](ObjectChain& chain) {
    before = chain.head != nullptr ? chain.head->state : nullptr;
    auto record = std::make_shared<ObjectRecord>();
    record->commit_ts = ts;
    record->state = state;
    record->prev = chain.head;
    chain.head = std::move(record);
    if (state != nullptr) {
      chain.cls = state->class_id();
    }
    chain_len = ++chain.length;
    // History or a tombstone to reclaim: queue the chain for the trimmer
    // (the caller holds commit_mu_, which guards the queue).
    if (!chain.queued && (chain.head->prev != nullptr || state == nullptr)) {
      chain.queued = true;
      trim_objects_.push_back(uid);
    }
  });
  if (h_chain_length_ != nullptr) {
    h_chain_length_->Observe(chain_len);
  }
  if (state != nullptr) {
    extent_members_.Update(state->class_id(), [&](std::unordered_set<Uid>& s) {
      s.insert(uid);
    });
  }
  LatchGuard lg(listeners_mu_);
  for (RecordStoreListener* listener : listeners_) {
    listener->OnObjectPublished(uid, before.get(), state.get(), ts);
  }
}

void RecordStore::InstallGeneric(
    Uid uid, std::optional<std::pair<std::vector<Uid>, Uid>> info,
    uint64_t ts) {
  generics_.Update(uid, [&](GenericChain& chain) {
    auto record = std::make_shared<GenericRecord>();
    record->commit_ts = ts;
    record->live = info.has_value();
    if (info.has_value()) {
      record->versions = std::move(info->first);
      record->user_default = info->second;
    }
    record->prev = chain.head;
    chain.head = std::move(record);
    if (!chain.queued && (chain.head->prev != nullptr || !chain.head->live)) {
      chain.queued = true;
      trim_generics_.push_back(uid);
    }
  });
}

std::shared_ptr<const Object> RecordStore::GetAt(Uid uid, uint64_t ts) const {
  return objects_.View(
      uid,
      [&](const ObjectChain& chain) {
        for (const ObjectRecord* r = chain.head.get(); r != nullptr;
             r = r->prev.get()) {
          if (r->commit_ts <= ts) {
            return r->state;
          }
        }
        return std::shared_ptr<const Object>();
      },
      std::shared_ptr<const Object>());
}

std::optional<std::pair<std::vector<Uid>, Uid>> RecordStore::GetGenericAt(
    Uid uid, uint64_t ts) const {
  return generics_.View(
      uid,
      [&](const GenericChain& chain)
          -> std::optional<std::pair<std::vector<Uid>, Uid>> {
        for (const GenericRecord* r = chain.head.get(); r != nullptr;
             r = r->prev.get()) {
          if (r->commit_ts <= ts) {
            if (!r->live) {
              return std::nullopt;
            }
            return std::make_pair(r->versions, r->user_default);
          }
        }
        return std::nullopt;
      },
      std::optional<std::pair<std::vector<Uid>, Uid>>());
}

std::vector<Uid> RecordStore::InstancesOfAt(ClassId cls, uint64_t ts) const {
  std::vector<Uid> members;
  extent_members_.View(
      cls,
      [&](const std::unordered_set<Uid>& s) {
        members.assign(s.begin(), s.end());
        return true;
      },
      false);
  std::vector<Uid> out;
  for (Uid uid : members) {
    auto state = GetAt(uid, ts);
    if (state != nullptr && state->class_id() == cls) {
      out.push_back(uid);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Uid> RecordStore::AllUidsAt(uint64_t ts) const {
  std::vector<Uid> candidates;
  objects_.ForEach([&](Uid uid, const ObjectChain&) {
    candidates.push_back(uid);
  });
  std::vector<Uid> out;
  for (Uid uid : candidates) {
    if (ExistsAt(uid, ts)) {
      out.push_back(uid);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Uid> RecordStore::GenericsAt(uint64_t ts) const {
  std::vector<Uid> candidates;
  generics_.ForEach([&](Uid uid, const GenericChain&) {
    candidates.push_back(uid);
  });
  std::vector<Uid> out;
  for (Uid uid : candidates) {
    if (GetGenericAt(uid, ts).has_value()) {
      out.push_back(uid);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t RecordStore::Trim(uint64_t min_active_ts, size_t* chains_visited) {
  LatchGuard pass(trim_mu_);
  // Take the queue.  The uids stay marked `queued` until their chain has
  // been visited, so a publication meanwhile does not queue them twice.
  std::vector<Uid> objects;
  std::vector<Uid> generics;
  {
    LatchGuard commit(commit_mu_);
    objects.swap(trim_objects_);
    generics.swap(trim_generics_);
  }
  size_t trimmed = 0;
  // (uid, class) pairs whose whole chain died; extent membership is pruned
  // after the visits so no shard latch is held across the two maps.
  std::vector<std::pair<Uid, ClassId>> dead;
  std::vector<Uid> requeue_objects;
  std::vector<Uid> requeue_generics;

  for (Uid uid : objects) {
    // Whatever the visit cuts off is released here, after the shard latch.
    std::shared_ptr<ObjectRecord> garbage;
    objects_.UpdateOrErase(uid, [&](ObjectChain& chain) {
      const Pivot<ObjectRecord> p = FindPivot(chain.head.get(), min_active_ts);
      // A chain whose newest record is a tombstone at/below the minimum
      // will never be visible again: drop it entirely.
      if (p.record == chain.head.get() && p.record->state == nullptr) {
        dead.emplace_back(uid, chain.cls);
        trimmed += p.total;
        garbage = std::move(chain.head);
        return true;
      }
      if (p.record != nullptr) {
        garbage = std::move(p.record->prev);
      }
      trimmed += p.total - p.kept;
      chain.length = p.kept;  // recounted, so `length` stays exact
      if (p.kept > 1 || chain.head->state == nullptr) {
        requeue_objects.push_back(uid);  // a pinned reader still needs it
      } else {
        chain.queued = false;
      }
      return false;
    });
  }
  for (Uid uid : generics) {
    std::shared_ptr<GenericRecord> garbage;
    generics_.UpdateOrErase(uid, [&](GenericChain& chain) {
      const Pivot<GenericRecord> p =
          FindPivot(chain.head.get(), min_active_ts);
      if (p.record == chain.head.get() && !p.record->live) {
        trimmed += p.total;
        garbage = std::move(chain.head);
        return true;
      }
      if (p.record != nullptr) {
        garbage = std::move(p.record->prev);
      }
      trimmed += p.total - p.kept;
      if (p.kept > 1 || !chain.head->live) {
        requeue_generics.push_back(uid);
      } else {
        chain.queued = false;
      }
      return false;
    });
  }

  if (!dead.empty() || !requeue_objects.empty() ||
      !requeue_generics.empty()) {
    // Lock order matches InstallObject: commit_mu_, then the shard latches.
    LatchGuard commit(commit_mu_);
    trim_objects_.insert(trim_objects_.end(), requeue_objects.begin(),
                         requeue_objects.end());
    trim_generics_.insert(trim_generics_.end(), requeue_generics.begin(),
                          requeue_generics.end());
    // A publication may have re-created one of the dead uids (RestoreObject
    // / OverwriteRaw) since its chain was dropped, re-inserting both the
    // chain and its extent entry; erasing the entry then would make
    // InstancesOfAt miss a live object forever.  Publications install under
    // commit_mu_, so re-checking chain absence while holding it makes the
    // prune safe: an extent entry is only erased while its chain is
    // provably still gone.
    for (const auto& [uid, cls] : dead) {
      if (objects_.Contains(uid)) {
        continue;  // re-created; the new publication owns the extent entry
      }
      extent_members_.Update(cls, [uid = uid](std::unordered_set<Uid>& s) {
        s.erase(uid);
      });
    }
  }

  if (c_records_trimmed_ != nullptr && trimmed > 0) {
    c_records_trimmed_->Add(trimmed);
  }
  if (chains_visited != nullptr) {
    *chains_visited = objects.size() + generics.size();
  }

  LatchGuard lg(listeners_mu_);
  for (RecordStoreListener* listener : listeners_) {
    listener->OnTrim(min_active_ts);
  }
  return trimmed;
}

void RecordStore::AddListener(RecordStoreListener* listener) {
  LatchGuard commit(commit_mu_);
  LatchGuard lg(listeners_mu_);
  listeners_.push_back(listener);
}

void RecordStore::RemoveListener(RecordStoreListener* listener) {
  LatchGuard commit(commit_mu_);
  LatchGuard lg(listeners_mu_);
  listeners_.erase(
      std::remove(listeners_.begin(), listeners_.end(), listener),
      listeners_.end());
}

void RecordStore::ForEachObjectRecord(
    const std::function<void(Uid, const ObjectRecord&)>& fn) const {
  objects_.ForEach([&](Uid uid, const ObjectChain& chain) {
    for (const ObjectRecord* r = chain.head.get(); r != nullptr;
         r = r->prev.get()) {
      fn(uid, *r);
    }
  });
}

size_t RecordStore::record_count() const {
  size_t n = 0;
  objects_.ForEach([&](Uid, const ObjectChain& chain) {
    for (const ObjectRecord* r = chain.head.get(); r != nullptr;
         r = r->prev.get()) {
      ++n;
    }
  });
  return n;
}

size_t RecordStore::generic_record_count() const {
  size_t n = 0;
  generics_.ForEach([&](Uid, const GenericChain& chain) {
    for (const GenericRecord* r = chain.head.get(); r != nullptr;
         r = r->prev.get()) {
      ++n;
    }
  });
  return n;
}

size_t RecordStore::extent_member_count(ClassId cls) const {
  return extent_members_.View(
      cls, [](const std::unordered_set<Uid>& s) { return s.size(); },
      size_t{0});
}

}  // namespace orion
