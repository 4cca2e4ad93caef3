#include "query/index.h"

#include <algorithm>

namespace orion {

namespace {

std::string KeyOf(const Value& value) { return value.ToString(); }

/// The canonical keys a value contributes: one per non-null element for a
/// set, one for a non-null scalar, none for Nil.
std::vector<std::string> KeysOf(const Value& value) {
  std::vector<std::string> keys;
  if (value.is_null()) {
    return keys;
  }
  if (value.is_set()) {
    for (const Value& e : value.set()) {
      if (!e.is_null()) {
        keys.push_back(KeyOf(e));
      }
    }
    return keys;
  }
  keys.push_back(KeyOf(value));
  return keys;
}

}  // namespace

AttributeIndex::AttributeIndex(ObjectManager* objects, RecordStore* records,
                               ClassId cls, std::string attribute,
                               IndexMetrics metrics)
    : objects_(objects),
      records_(records),
      cls_(cls),
      attribute_(std::move(attribute)),
      metrics_(metrics) {
  if (records_ == nullptr) {
    return;
  }
  // Listen first, then seed, so no publication falls between the two.  The
  // scan visits a chain under its shard latch, which a publication's
  // install also takes before calling OnObjectPublished: either the scan
  // sees the new record, or the scan's postings exist before the callback
  // closes and opens them.  Seeded intervals start at 0, not at the
  // record's commit timestamp, so a reader pinned before the index was
  // created still finds every uid; the extra candidates for timestamps
  // that predate a value are harmless because every select re-verifies.
  records_->AddListener(this);
  Uid chain_uid = kNilUid;
  uint64_t newer_ts = kOpenTs;  // commit_ts of the record visited before
  records_->ForEachObjectRecord([&](Uid uid, const ObjectRecord& record) {
    if (uid != chain_uid) {
      chain_uid = uid;  // chains are visited newest record first
      newer_ts = kOpenTs;
    }
    const uint64_t remove_ts = newer_ts;
    newer_ts = record.commit_ts;
    if (record.state == nullptr || !Covers(*record.state)) {
      return;
    }
    LatchGuard g(mu_);
    for (const std::string& key : KeysOf(record.state->Get(attribute_))) {
      std::vector<Posting>& v = postings_[key];
      if (remove_ts == kOpenTs) {
        // A racing publication of this very record may already have opened
        // the posting at its commit timestamp; widen it instead of stacking
        // a duplicate.
        auto open = std::find_if(v.begin(), v.end(), [&](const Posting& p) {
          return p.uid == uid && p.remove_ts == kOpenTs;
        });
        if (open != v.end()) {
          open->add_ts = 0;
          continue;
        }
      }
      v.push_back(Posting{uid, 0, remove_ts});
      if (remove_ts != kOpenTs) {
        closed_.emplace_back(key, remove_ts);
      }
    }
  });
}

AttributeIndex::~AttributeIndex() {
  if (records_ != nullptr) {
    records_->RemoveListener(this);
  }
}

bool AttributeIndex::Covers(const Object& object) const {
  return objects_->schema()->IsSubclassOf(object.class_id(), cls_);
}

void AttributeIndex::OpenPosting(Uid uid, const std::string& key,
                                 uint64_t ts) {
  std::vector<Posting>& v = postings_[key];
  for (const Posting& p : v) {
    if (p.uid == uid && p.remove_ts == kOpenTs) {
      return;  // already open (seed/publication overlap); keep the earlier
    }
  }
  v.push_back(Posting{uid, ts, kOpenTs});
}

void AttributeIndex::ClosePosting(Uid uid, const std::string& key,
                                  uint64_t ts) {
  auto it = postings_.find(key);
  if (it == postings_.end()) {
    return;
  }
  for (Posting& p : it->second) {
    if (p.uid == uid && p.remove_ts == kOpenTs) {
      p.remove_ts = ts;
      closed_.emplace_back(key, ts);
      return;
    }
  }
}

std::vector<Uid> AttributeIndex::Lookup(const Value& value) const {
  if (metrics_.lookups != nullptr) {
    metrics_.lookups->Inc();
  }
  return Covering(value, kNowTs);
}

std::vector<Uid> AttributeIndex::LookupAt(const Value& value,
                                          uint64_t ts) const {
  if (metrics_.lookups_at != nullptr) {
    metrics_.lookups_at->Inc();
  }
  return Covering(value, ts);
}

std::vector<Uid> AttributeIndex::Covering(const Value& value,
                                          uint64_t ts) const {
  std::vector<Uid> out;
  {
    LatchGuard g(mu_);
    auto it = postings_.find(KeyOf(value));
    if (it == postings_.end()) {
      return out;
    }
    for (const Posting& p : it->second) {
      if (p.add_ts <= ts && ts < p.remove_ts) {
        out.push_back(p.uid);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

size_t AttributeIndex::entry_count() const {
  LatchGuard g(mu_);
  size_t n = 0;
  for (const auto& [key, v] : postings_) {
    n += static_cast<size_t>(
        std::count_if(v.begin(), v.end(), [](const Posting& p) {
          return p.remove_ts == kOpenTs;
        }));
  }
  return n;
}

size_t AttributeIndex::versioned_entry_count() const {
  LatchGuard g(mu_);
  size_t n = 0;
  for (const auto& [key, v] : postings_) {
    n += v.size();
  }
  return n;
}

void AttributeIndex::OnObjectPublished(Uid uid, const Object* before,
                                       const Object* after,
                                       uint64_t commit_ts) {
  const Object* classed = after != nullptr ? after : before;
  if (classed == nullptr || !Covers(*classed)) {
    return;
  }
  std::vector<std::string> old_keys =
      before != nullptr ? KeysOf(before->Get(attribute_))
                        : std::vector<std::string>{};
  std::vector<std::string> new_keys =
      after != nullptr ? KeysOf(after->Get(attribute_))
                       : std::vector<std::string>{};
  LatchGuard g(mu_);
  for (const std::string& key : old_keys) {
    if (std::find(new_keys.begin(), new_keys.end(), key) == new_keys.end()) {
      ClosePosting(uid, key, commit_ts);
    }
  }
  for (const std::string& key : new_keys) {
    if (std::find(old_keys.begin(), old_keys.end(), key) == old_keys.end()) {
      OpenPosting(uid, key, commit_ts);
    }
  }
}

void AttributeIndex::OnTrim(uint64_t min_active_ts) {
  size_t vacuumed = 0;
  {
    LatchGuard g(mu_);
    auto due = std::partition(
        closed_.begin(), closed_.end(),
        [&](const std::pair<std::string, uint64_t>& c) {
          return c.second > min_active_ts;
        });
    std::vector<std::string> keys;
    for (auto c = due; c != closed_.end(); ++c) {
      keys.push_back(std::move(c->first));
    }
    closed_.erase(due, closed_.end());
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    for (const std::string& key : keys) {
      auto it = postings_.find(key);
      if (it == postings_.end()) {
        continue;
      }
      std::vector<Posting>& v = it->second;
      const size_t before = v.size();
      v.erase(std::remove_if(v.begin(), v.end(),
                             [&](const Posting& p) {
                               return p.remove_ts != kOpenTs &&
                                      p.remove_ts <= min_active_ts;
                             }),
              v.end());
      vacuumed += before - v.size();
      if (v.empty()) {
        postings_.erase(it);
      }
    }
  }
  if (metrics_.postings_vacuumed != nullptr && vacuumed > 0) {
    metrics_.postings_vacuumed->Add(vacuumed);
  }
}

Status IndexManager::CreateIndex(ClassId cls, const std::string& attribute) {
  const SchemaManager* schema = objects_->schema();
  if (schema->GetClass(cls) == nullptr) {
    return Status::NotFound("class id " + std::to_string(cls));
  }
  auto spec = schema->ResolveAttribute(cls, attribute);
  if (!spec.ok()) {
    return spec.status();
  }
  auto exists = [&] {
    return std::any_of(indexes_.begin(), indexes_.end(),
                       [&](const std::unique_ptr<AttributeIndex>& index) {
                         return index->cls() == cls &&
                                index->attribute() == attribute;
                       });
  };
  auto duplicate = [&] {
    return Status::AlreadyExists("index on (" + schema->GetClass(cls)->name +
                                 ", " + attribute + ") already exists");
  };
  {
    LatchGuard g(mu_);
    if (exists()) {
      return duplicate();
    }
  }
  // Built outside the latch: the seed scans the record chains and
  // registers a listener.  A concurrent CreateIndex for the same pair may
  // win meanwhile, so the duplicate check is repeated before inserting.
  auto index = std::make_unique<AttributeIndex>(objects_, records_, cls,
                                                attribute, metrics_);
  {
    LatchGuard g(mu_);
    if (!exists()) {
      indexes_.push_back(std::move(index));
      return Status::Ok();
    }
  }
  return duplicate();  // `index` is destroyed here, outside the latch
}

Status IndexManager::DropIndex(ClassId cls, const std::string& attribute) {
  std::unique_ptr<AttributeIndex> dropped;
  {
    LatchGuard g(mu_);
    auto it = std::find_if(indexes_.begin(), indexes_.end(),
                           [&](const std::unique_ptr<AttributeIndex>& index) {
                             return index->cls() == cls &&
                                    index->attribute() == attribute;
                           });
    if (it == indexes_.end()) {
      return Status::NotFound("no such index");
    }
    dropped = std::move(*it);
    indexes_.erase(it);
  }
  return Status::Ok();  // `dropped` unregisters outside the latch
}

const AttributeIndex* IndexManager::FindIndex(
    ClassId cls, const std::string& attribute) const {
  const SchemaManager* schema = objects_->schema();
  const AttributeIndex* best = nullptr;
  LatchGuard g(mu_);
  for (const auto& index : indexes_) {
    if (index->attribute() != attribute) {
      continue;
    }
    // The index covers `cls` if it was built on `cls` or a superclass.
    if (schema->IsSubclassOf(cls, index->cls())) {
      if (best == nullptr || schema->IsSubclassOf(index->cls(), best->cls())) {
        best = index.get();  // prefer the most specific covering index
      }
    }
  }
  return best;
}

}  // namespace orion
