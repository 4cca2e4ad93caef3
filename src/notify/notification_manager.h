#ifndef ORION_NOTIFY_NOTIFICATION_MANAGER_H_
#define ORION_NOTIFY_NOTIFICATION_MANAGER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/latch.h"
#include "object/object_manager.h"
#include "object/record_store.h"

namespace orion {

/// Kind of change observed on a watched object.
enum class ChangeKind {
  kUpdated = 0,  // an attribute value changed
  kDeleted,      // the object was deleted
};

std::string_view ChangeKindName(ChangeKind kind);

/// One delivered change event (message-based notification).
struct ChangeEvent {
  uint64_t seq = 0;          // global delivery order
  Uid object;                // the object that changed
  Uid subscription_root;     // the watched object the event reached through
  ChangeKind kind = ChangeKind::kUpdated;
  std::string attribute;     // for kUpdated
};

/// Change notification in the style the paper cites as [CHOU88] ("Versions
/// and Change Notification in an Object-Oriented Database System"),
/// extended to composite objects: a subscription on the root of a
/// composite object may cover every component, so a change deep in the
/// part hierarchy notifies the owner of the whole design.
///
/// Both of CHOU88's mechanisms are provided:
///  * flag-based: the watched object is marked changed; the subscriber
///    polls `IsFlagged` and clears with `ClearFlag`;
///  * message-based: events queue per subscriber and are read with
///    `Drain`.
///
/// Events are derived from the record store's committed publication stream
/// only, so uncommitted and aborted work never notifies.  A published state
/// yields one kUpdated event per attribute whose value differs from the
/// previous committed state, and a tombstone yields kDeleted; a
/// republication that changes no value (reverse-reference bookkeeping,
/// schema catch-up, version derivation) is silent.
///
/// Composite reach resolves against committed state: a change reaches a
/// composite subscription when the subscription root is an ancestor of the
/// changed object in the committed part hierarchy — after the commit for an
/// update, before it for a deletion (so a cascade still reaches the owner
/// of the deleted design).  A tombstone of a subscription's root delivers
/// its kDeleted event and then drops the subscription.
///
/// Thread-safety: every member function may be called from any thread.
/// Subscriptions, queues and flags sit behind one leaf latch
/// (kNotifications).  Every commit whose OnCommitPublished starts after
/// Subscribe returns is delivered to the new subscription.
class NotificationManager : public RecordStoreListener {
 public:
  /// Listens to `objects`' record store, which must be attached.
  explicit NotificationManager(ObjectManager* objects);
  ~NotificationManager() override;

  NotificationManager(const NotificationManager&) = delete;
  NotificationManager& operator=(const NotificationManager&) = delete;

  /// Subscribes `subscriber` to changes of `object`, which must exist in
  /// committed state; with `include_components` the subscription covers
  /// the whole composite object rooted there (current and future
  /// components).
  Status Subscribe(const std::string& subscriber, Uid object,
                   bool include_components);

  /// Removes the subscription.
  Status Unsubscribe(const std::string& subscriber, Uid object);

  /// Message-based: removes and returns the queued events of `subscriber`
  /// in delivery order.
  std::vector<ChangeEvent> Drain(const std::string& subscriber);

  /// Number of queued events for `subscriber`.
  size_t Pending(const std::string& subscriber) const;

  /// Flag-based: true if the subscription root `object` has seen a change
  /// since the last ClearFlag.
  bool IsFlagged(const std::string& subscriber, Uid object) const;
  void ClearFlag(const std::string& subscriber, Uid object);

  // --- RecordStoreListener ---------------------------------------------------
  void OnObjectPublished(Uid uid, const Object* before, const Object* after,
                         uint64_t commit_ts) override;
  void OnCommitPublished(uint64_t commit_ts) override;

 private:
  struct Subscription {
    std::string subscriber;
    Uid root;
    bool include_components = false;
  };

  /// One published record, reduced to what event derivation needs.
  struct Change {
    Uid uid;
    bool deleted = false;
    std::vector<Uid> before_parents;      // composite parents before
    std::vector<std::string> attributes;  // attributes whose value changed
  };

  /// Composite ancestors of each change's object in the committed
  /// hierarchy at `commit_ts` — before the commit for a deletion.  Reads
  /// the record chains, so it runs with no latch of this manager held.
  std::vector<std::unordered_set<Uid>> AncestorsOf(
      const std::vector<Change>& changes, uint64_t commit_ts) const;

  ObjectManager* objects_;
  RecordStore* records_;

  /// The current publication's changes.  Filled by OnObjectPublished and
  /// consumed by OnCommitPublished; both run under the record store's
  /// commit latch, which orders one publication's callbacks before the
  /// next one's, so this needs no latch of its own.
  std::vector<Change> pending_;

  mutable Latch mu_{"notify.state", LatchRank::kNotifications};
  /// Everything below is guarded by mu_.
  std::vector<Subscription> subscriptions_;
  std::unordered_map<std::string, std::vector<ChangeEvent>> queues_;
  /// (subscriber, root) pairs currently flagged.
  std::unordered_map<std::string, std::unordered_set<Uid>> flags_;
  uint64_t next_seq_ = 0;
};

}  // namespace orion

#endif  // ORION_NOTIFY_NOTIFICATION_MANAGER_H_
