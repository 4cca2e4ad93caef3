#include "notify/notification_manager.h"

#include <algorithm>
#include <deque>

#include "query/object_view.h"

namespace orion {

namespace {

/// Composite parents of a state: reverse composite references plus, for a
/// generic instance, its generic references (§5.3).
std::vector<Uid> CompositeParents(const Object* obj) {
  std::vector<Uid> out;
  if (obj == nullptr) {
    return out;
  }
  for (const ReverseRef& r : obj->reverse_refs()) {
    out.push_back(r.parent);
  }
  for (const GenericRef& g : obj->generic_refs()) {
    out.push_back(g.parent);
  }
  return out;
}

/// Attributes whose value differs between two committed states, sorted
/// (an absent value reads as Nil).
std::vector<std::string> ChangedAttributes(const Object* before,
                                           const Object& after) {
  std::vector<std::string> out;
  for (const auto& [name, value] : after.values()) {
    if ((before == nullptr ? Value() : before->Get(name)) != value) {
      out.push_back(name);
    }
  }
  if (before != nullptr) {
    for (const auto& [name, value] : before->values()) {
      if (!value.is_null() && after.values().count(name) == 0) {
        out.push_back(name);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::string_view ChangeKindName(ChangeKind kind) {
  switch (kind) {
    case ChangeKind::kUpdated:
      return "updated";
    case ChangeKind::kDeleted:
      return "deleted";
  }
  return "?";
}

NotificationManager::NotificationManager(ObjectManager* objects)
    : objects_(objects), records_(objects->record_store()) {
  records_->AddListener(this);
}

NotificationManager::~NotificationManager() {
  records_->RemoveListener(this);
}

Status NotificationManager::Subscribe(const std::string& subscriber,
                                      Uid object, bool include_components) {
  if (subscriber.empty()) {
    return Status::InvalidArgument("subscriber name must not be empty");
  }
  if (!records_->ExistsAt(object, records_->watermark())) {
    return Status::NotFound("object " + object.ToString());
  }
  LatchGuard g(mu_);
  for (const Subscription& s : subscriptions_) {
    if (s.subscriber == subscriber && s.root == object) {
      return Status::AlreadyExists("already subscribed");
    }
  }
  subscriptions_.push_back(
      Subscription{subscriber, object, include_components});
  return Status::Ok();
}

Status NotificationManager::Unsubscribe(const std::string& subscriber,
                                        Uid object) {
  LatchGuard g(mu_);
  auto it = std::find_if(subscriptions_.begin(), subscriptions_.end(),
                         [&](const Subscription& s) {
                           return s.subscriber == subscriber &&
                                  s.root == object;
                         });
  if (it == subscriptions_.end()) {
    return Status::NotFound("no such subscription");
  }
  subscriptions_.erase(it);
  return Status::Ok();
}

std::vector<ChangeEvent> NotificationManager::Drain(
    const std::string& subscriber) {
  LatchGuard g(mu_);
  auto it = queues_.find(subscriber);
  if (it == queues_.end()) {
    return {};
  }
  std::vector<ChangeEvent> out = std::move(it->second);
  queues_.erase(it);
  return out;
}

size_t NotificationManager::Pending(const std::string& subscriber) const {
  LatchGuard g(mu_);
  auto it = queues_.find(subscriber);
  return it == queues_.end() ? 0 : it->second.size();
}

bool NotificationManager::IsFlagged(const std::string& subscriber,
                                    Uid object) const {
  LatchGuard g(mu_);
  auto it = flags_.find(subscriber);
  return it != flags_.end() && it->second.count(object) > 0;
}

void NotificationManager::ClearFlag(const std::string& subscriber,
                                    Uid object) {
  LatchGuard g(mu_);
  auto it = flags_.find(subscriber);
  if (it != flags_.end()) {
    it->second.erase(object);
  }
}

void NotificationManager::OnObjectPublished(Uid uid, const Object* before,
                                            const Object* after,
                                            uint64_t commit_ts) {
  (void)commit_ts;
  if (after == nullptr && before == nullptr) {
    return;
  }
  pending_.push_back(Change{
      uid, after == nullptr, CompositeParents(before),
      after == nullptr ? std::vector<std::string>{}
                       : ChangedAttributes(before, *after)});
}

std::vector<std::unordered_set<Uid>> NotificationManager::AncestorsOf(
    const std::vector<Change>& changes, uint64_t commit_ts) const {
  // The chains at commit_ts hold the hierarchy after the commit (no newer
  // commit can install while the commit latch is held, and a chain's newest
  // record is never trimmed).  The hierarchy before it differs only in the
  // objects this commit published, whose earlier parents are in `changes`.
  SnapshotView view(*records_, *objects_->schema(), commit_ts);
  std::unordered_map<Uid, const Change*> published;
  for (const Change& c : changes) {
    published.emplace(c.uid, &c);
  }
  std::vector<std::unordered_set<Uid>> out(changes.size());
  for (size_t i = 0; i < changes.size(); ++i) {
    const bool before = changes[i].deleted;
    std::deque<Uid> frontier{changes[i].uid};
    while (!frontier.empty()) {
      const Uid cur = frontier.front();
      frontier.pop_front();
      auto it = published.find(cur);
      for (Uid parent : before && it != published.end()
                            ? it->second->before_parents
                            : CompositeParents(view.Lookup(cur))) {
        if (out[i].insert(parent).second) {
          frontier.push_back(parent);
        }
      }
    }
  }
  return out;
}

void NotificationManager::OnCommitPublished(uint64_t commit_ts) {
  const std::vector<Change> changes = std::move(pending_);
  pending_.clear();
  bool composite = false;
  {
    LatchGuard g(mu_);
    if (changes.empty() || subscriptions_.empty()) {
      return;
    }
    composite = std::any_of(subscriptions_.begin(), subscriptions_.end(),
                            [](const Subscription& s) {
                              return s.include_components;
                            });
  }
  const std::vector<std::unordered_set<Uid>> ancestors =
      composite ? AncestorsOf(changes, commit_ts)
                : std::vector<std::unordered_set<Uid>>(changes.size());
  LatchGuard g(mu_);
  for (size_t i = 0; i < changes.size(); ++i) {
    const Change& c = changes[i];
    for (const Subscription& s : subscriptions_) {
      if (c.uid != s.root &&
          !(s.include_components && ancestors[i].count(s.root) > 0)) {
        continue;
      }
      auto deliver = [&](ChangeKind kind, const std::string& attribute) {
        queues_[s.subscriber].push_back(
            ChangeEvent{++next_seq_, c.uid, s.root, kind, attribute});
        flags_[s.subscriber].insert(s.root);
      };
      if (c.deleted) {
        deliver(ChangeKind::kDeleted, "");
      }
      for (const std::string& attribute : c.attributes) {
        deliver(ChangeKind::kUpdated, attribute);
      }
    }
  }
  // A deleted root takes its subscriptions with it.
  std::erase_if(subscriptions_, [&](const Subscription& s) {
    return std::any_of(changes.begin(), changes.end(), [&](const Change& c) {
      return c.deleted && c.uid == s.root;
    });
  });
}

}  // namespace orion
