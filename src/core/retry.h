#ifndef ORION_CORE_RETRY_H_
#define ORION_CORE_RETRY_H_

// The one retry policy of the engine (DESIGN.md §6): which outcomes are
// retried, how long to back off, and the loop that re-runs an attempt.
// `Session::Run`, `ClusterSession::Run` (both through `RunWithRetries` in
// core/session.h) and `rpc::Client`'s pipelined batch all drive `Retry`.

#include <chrono>
#include <cstdint>

#include "common/status.h"
#include "obs/metrics.h"

namespace orion {

/// The retry budget and backoff shape of one caller.
struct RetryPolicy {
  /// Attempts after the first before the loop gives up.
  int max_retries = 0;
  /// See `BackoffDelay`.
  std::chrono::microseconds backoff_base{0};
  std::chrono::microseconds backoff_cap{0};
  /// Non-null: every backoff sleep adds its length (µs) here.
  obs::Counter* backoff_us = nullptr;
};

/// Registry counters of a transaction retry loop (the `session.*` family),
/// resolved once in the registry of the `Database` or `Cluster` driven.
struct SessionCounters {
  obs::Counter* commits = nullptr;
  obs::Counter* retries = nullptr;
  obs::Counter* failures = nullptr;
  obs::Counter* backoff_us = nullptr;

  static SessionCounters Register(obs::MetricsRegistry& registry);
};

/// True for the conflict outcomes a retry absorbs: kDeadlock (lock-manager
/// victim), kLockTimeout, and kSchemaConflict (§10: re-running sees the
/// post-DDL schema).
bool IsRetryable(const Status& status);

/// The jittered delay before retry `attempt` (0-based) for a raw jitter
/// draw `draw`: `b/2 + b * (draw % 100) / 100` with
/// `b = min(base << min(attempt, 12), cap)`, so it lies in [b/2, 3b/2).
/// Pure; `Backoff` supplies the draw.
std::chrono::microseconds BackoffDelay(const RetryPolicy& policy, int attempt,
                                       uint64_t draw);

/// Sleeps `BackoffDelay(policy, attempt, <next jitter>)` and adds it to
/// `policy.backoff_us`.  The jitter stream is per OS thread, so two
/// callers that collided do not re-collide in lockstep.
void Backoff(const RetryPolicy& policy, int attempt);

/// The retry loop: runs `attempt(n)` for n = 0, 1, ... and, while it
/// returns true ("retry wanted"), backs off `Backoff(policy, n)` before
/// the next run.  Returns false once an attempt wants no retry, true when
/// `policy.max_retries` retries are spent and the last attempt still
/// wanted one.  The caller counts a retry when `attempt` sees n > 0.
template <typename Attempt>
bool Retry(const RetryPolicy& policy, Attempt&& attempt) {
  for (int n = 0; attempt(n); ++n) {
    if (n >= policy.max_retries) {
      return true;
    }
    Backoff(policy, n);
  }
  return false;
}

}  // namespace orion

#endif  // ORION_CORE_RETRY_H_
