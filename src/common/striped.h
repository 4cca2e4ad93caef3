#ifndef ORION_COMMON_STRIPED_H_
#define ORION_COMMON_STRIPED_H_

#include <array>
#include <cstddef>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/latch.h"

namespace orion {

/// Default stripe fan-out for the sharded containers.  16 ways keeps
/// contention negligible at the 8-thread scale the ablation suite measures
/// while the per-instance footprint stays small (16 shared latches).
inline constexpr size_t kDefaultStripes = 16;

/// A fixed array of reader-writer latches addressed by key hash.
///
/// This is the "sharded mutex map keyed by Uid" of the threading model
/// (DESIGN.md §6): a latch protects the *structure* it stripes (hash-map
/// buckets, page chains), not the logical object state — isolation between
/// transactions is the lock manager's job.  Latches are leaf-level: no code
/// may block on a lock-manager wait while holding one.
template <typename Key, size_t kStripes = kDefaultStripes,
          typename Hash = std::hash<Key>>
class StripedMutexMap {
 public:
  explicit StripedMutexMap(const char* name = "striped.shard",
                           LatchRank rank = LatchRank::kTableShard) {
    for (SharedLatch& s : stripes_) {
      s.SetDebugInfo(name, rank);
    }
  }

  SharedLatch& For(const Key& key) { return stripes_[Index(key)]; }
  SharedLatch& AtStripe(size_t i) { return stripes_[i]; }

  size_t Index(const Key& key) const { return Hash{}(key) % kStripes; }

  static constexpr size_t stripe_count() { return kStripes; }

 private:
  mutable std::array<SharedLatch, kStripes> stripes_;
};

/// A hash map striped `kStripes` ways, each shard an independent
/// `unordered_map` under its own reader-writer latch.
///
/// Node-based storage gives pointer stability: a `Mapped*` obtained from
/// `Find` stays valid across concurrent inserts/erases of *other* keys.
/// The pointer's pointee is NOT latched after `Find` returns — callers rely
/// on the logical lock protocol (S/X instance locks) to serialize access to
/// one mapped value, exactly as a page latch protects the slot directory
/// but not the record contents.
///
/// Whole-map operations (`ForEach`, `Keys`) latch shards one at a time in
/// index order; they see a consistent per-shard snapshot, not a global one,
/// which is all the extent scans and diagnostics need.  No two shard
/// latches are ever held together, so all shards share one latch name and
/// rank (`LatchRank::kTableShard` unless the owner places them elsewhere,
/// e.g. the record store's chains under `kRecordChainShard`).
template <typename Key, typename Mapped, size_t kStripes = kDefaultStripes,
          typename Hash = std::hash<Key>>
class ShardedMap {
 public:
  explicit ShardedMap(const char* name = "table.shard",
                      LatchRank rank = LatchRank::kTableShard) {
    for (Shard& s : shards_) {
      s.mu.SetDebugInfo(name, rank);
    }
  }

  /// Pointer to the mapped value, or nullptr.  Shared latch for the lookup
  /// only; see the class comment for the pointee's lifetime contract.
  Mapped* Find(const Key& key) {
    Shard& s = ShardFor(key);
    SharedLatchReadGuard g(s.mu);
    auto it = s.map.find(key);
    return it == s.map.end() ? nullptr : &it->second;
  }
  const Mapped* Find(const Key& key) const {
    const Shard& s = ShardFor(key);
    SharedLatchReadGuard g(s.mu);
    auto it = s.map.find(key);
    return it == s.map.end() ? nullptr : &it->second;
  }

  bool Contains(const Key& key) const {
    const Shard& s = ShardFor(key);
    SharedLatchReadGuard g(s.mu);
    return s.map.count(key) > 0;
  }

  /// Inserts `(key, value)` if absent.  Returns (pointer, inserted).
  template <typename... Args>
  std::pair<Mapped*, bool> Emplace(const Key& key, Args&&... args) {
    Shard& s = ShardFor(key);
    SharedLatchWriteGuard g(s.mu);
    auto [it, inserted] =
        s.map.try_emplace(key, std::forward<Args>(args)...);
    return {&it->second, inserted};
  }

  bool Erase(const Key& key) {
    Shard& s = ShardFor(key);
    SharedLatchWriteGuard g(s.mu);
    return s.map.erase(key) > 0;
  }

  /// Removes and returns the mapped value, or nullopt.
  std::optional<Mapped> Take(const Key& key) {
    Shard& s = ShardFor(key);
    SharedLatchWriteGuard g(s.mu);
    auto it = s.map.find(key);
    if (it == s.map.end()) {
      return std::nullopt;
    }
    std::optional<Mapped> out(std::move(it->second));
    s.map.erase(it);
    return out;
  }

  /// Runs `fn(Mapped&)` under the shard's exclusive latch,
  /// default-constructing the value if absent (read-modify-write on small
  /// mapped values, e.g. extent sets).
  template <typename Fn>
  auto Update(const Key& key, Fn fn) {
    Shard& s = ShardFor(key);
    SharedLatchWriteGuard g(s.mu);
    return fn(s.map[key]);
  }

  /// Runs `fn(const Mapped&)` under the shard's shared latch; returns
  /// `fallback` if the key is absent.
  template <typename Fn, typename R>
  R View(const Key& key, Fn fn, R fallback) const {
    const Shard& s = ShardFor(key);
    SharedLatchReadGuard g(s.mu);
    auto it = s.map.find(key);
    return it == s.map.end() ? fallback : fn(it->second);
  }

  /// Visits every entry, shard by shard in index order, under the shard's
  /// shared latch.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Shard& s : shards_) {
      SharedLatchReadGuard g(s.mu);
      for (const auto& [k, v] : s.map) {
        fn(k, v);
      }
    }
  }

  /// Runs `fn(Mapped&)` under the shard's exclusive latch if `key` is
  /// present, and erases the entry when `fn` returns true.  The
  /// visit-then-erase decision is atomic with respect to every other writer
  /// of the key (the record-chain trimmer relies on this).
  template <typename Fn>
  void UpdateOrErase(const Key& key, Fn fn) {
    Shard& s = ShardFor(key);
    SharedLatchWriteGuard g(s.mu);
    auto it = s.map.find(key);
    if (it != s.map.end() && fn(it->second)) {
      s.map.erase(it);
    }
  }

  size_t size() const {
    size_t n = 0;
    for (const Shard& s : shards_) {
      SharedLatchReadGuard g(s.mu);
      n += s.map.size();
    }
    return n;
  }

  bool empty() const { return size() == 0; }

 private:
  struct Shard {
    mutable SharedLatch mu;
    std::unordered_map<Key, Mapped, Hash> map;
  };

  Shard& ShardFor(const Key& key) {
    return shards_[Hash{}(key) % kStripes];
  }
  const Shard& ShardFor(const Key& key) const {
    return shards_[Hash{}(key) % kStripes];
  }

  std::array<Shard, kStripes> shards_;
};

}  // namespace orion

#endif  // ORION_COMMON_STRIPED_H_
