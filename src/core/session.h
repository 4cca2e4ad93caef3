#ifndef ORION_CORE_SESSION_H_
#define ORION_CORE_SESSION_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "core/read_transaction.h"
#include "core/retry.h"
#include "core/transaction.h"
#include "obs/trace.h"

namespace orion {

/// Tuning knobs for one worker-thread session.
struct SessionOptions {
  /// Per-lock wait bound inside each transaction attempt.  Zero turns every
  /// acquisition into a try-lock (no blocking), which under contention
  /// shifts all conflict handling onto the retry loop.
  std::chrono::milliseconds lock_timeout{50};
  /// Retry budget: conflict aborts absorbed before `Run` gives up with
  /// kTimeout.
  int max_retries = 16;
  /// First backoff.  The un-jittered delay doubles per retry until it
  /// reaches `backoff_cap`; each sleep is then jittered into [x/2, 3x/2)
  /// of it, so the longest sleep is just under 1.5x `backoff_cap`.
  std::chrono::microseconds backoff_base{100};
  std::chrono::microseconds backoff_cap{20000};
  /// Non-empty: run transactions with §6 authorization checks as this user.
  std::string user;
};

/// Outcome counters of one session (single-threaded access: a session
/// belongs to exactly one worker thread).  Every increment is mirrored into
/// the database's `session.*` registry counters, which is where the
/// cross-session aggregate lives.
struct SessionStats {
  uint64_t commits = 0;
  uint64_t retries = 0;    ///< deadlock/timeout aborts that were retried
  uint64_t failures = 0;   ///< Run() calls that gave up or hit a real error
};

/// A per-worker-thread handle for driving one shared `Database`.
///
/// This is the layer that maps OS threads onto the paper's transactions
/// (DESIGN.md §6): each worker owns a Session; `Run` brackets the closure
/// in a `TransactionContext`, commits on success, and — when the lock
/// manager refuses a wait with `kDeadlock` (the requester is the victim) or
/// gives up with `kLockTimeout` — aborts, backs off exponentially with
/// jitter, and re-runs the closure.  Strict 2PL plus full before-image
/// rollback make the retry safe: an aborted attempt leaves no trace.
///
/// A Session is NOT thread-safe; create one per thread.  The Database it
/// drives is.
///
/// Pooled reuse across OS threads (the RPC server's `rpc::SessionPool`)
/// is safe under hand-off synchronization: a Session object keeps NO
/// thread-affine state between `Run` calls.  The backoff jitter RNG is
/// deliberately `thread_local` (per OS thread, not per session — see
/// `Backoff` in core/retry.h), so a session that hops threads between
/// requests just draws from the new thread's stream; and the §13 ambient
/// trace context is installed and restored *inside* `Run` by its
/// `TraceRoot`, so nothing ambient leaks past a `Run` return.  The only
/// requirement is the usual one for any non-thread-safe object: the
/// hand-off from one thread to the next must happen-before the next use
/// (the pool's latch provides this), and at most one thread uses the
/// session at a time.
class Session {
 public:
  explicit Session(Database* db, SessionOptions options = {});

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Runs `fn` transactionally.  `fn` returning OK commits; a retryable
  /// conflict (`IsRetryable`: kDeadlock / kLockTimeout / kSchemaConflict,
  /// from `fn` or from the commit) aborts and retries up to the
  /// `max_retries` budget, after which `Run` returns kTimeout; any
  /// other error aborts and is returned as-is.  `fn` must be safe to
  /// re-execute (it sees a rolled-back database).
  Status Run(const std::function<Status(TransactionContext&)>& fn);

  /// Opens a lock-free read-only transaction at the current commit
  /// watermark: repeatable reads with no locks and no retry loop.  The
  /// returned transaction is independent of this session's retry state and
  /// may outlive it.
  ReadTransaction BeginReadOnly() { return ReadTransaction(db_); }

  const SessionStats& stats() const { return stats_; }
  Database* db() { return db_; }
  const SessionOptions& options() const { return options_; }

 private:
  Database* db_;
  SessionOptions options_;
  SessionStats stats_;
};

/// The transaction retry contract shared by `Session::Run` and
/// `ClusterSession::Run`: opens a "session.run" trace root on `trace`, runs
/// `fn` in a fresh `Txn(owner, lock_timeout, user)` per attempt, commits on
/// OK, aborts otherwise, and re-runs retryable outcomes through `Retry`.
/// Every outcome lands in `stats` and in `counters`.  Templated on the
/// transaction type so the hot path pays no extra indirection.
template <typename Txn, typename Owner>
Status RunWithRetries(Owner* owner, obs::TraceBuffer& trace,
                      const SessionOptions& options, SessionStats& stats,
                      const SessionCounters& counters,
                      const std::function<Status(Txn&)>& fn) {
  // §13 root span: every span the attempts record (txn outcomes, lock
  // waits, WAL waits, 2PC prepares) parents into this trace's tree.  A
  // failed run is marked so the flight recorder retains the whole tree.
  obs::TraceRoot trace_root(&trace, "session.run");
  const RetryPolicy policy{options.max_retries, options.backoff_base,
                           options.backoff_cap, counters.backoff_us};
  Status result;
  const bool exhausted = Retry(policy, [&](int attempt) {
    if (attempt > 0) {
      ++stats.retries;
      counters.retries->Inc();
    }
    Txn txn(owner, options.lock_timeout, options.user);
    result = fn(txn);
    if (result.ok()) {
      result = txn.Commit();
    } else {
      // The loop keeps the operation's own status; abort-on-abort still
      // finishes the transaction.
      (void)txn.Abort();
    }
    return IsRetryable(result);
  });
  if (result.ok()) {
    ++stats.commits;
    counters.commits->Inc();
    return result;
  }
  ++stats.failures;
  counters.failures->Inc();
  trace_root.MarkError();
  if (!exhausted) {
    return result;
  }
  return Status::Timeout("session retry budget (" +
                         std::to_string(options.max_retries) +
                         ") exhausted; last conflict: " + result.message());
}

}  // namespace orion

#endif  // ORION_CORE_SESSION_H_
