#ifndef ORION_CELL_CLUSTER_SESSION_H_
#define ORION_CELL_CLUSTER_SESSION_H_

#include <functional>

#include "cell/cluster_transaction.h"
#include "core/session.h"

namespace orion {

/// The cluster counterpart of `Session`: one per worker thread, same
/// options, same retry loop (`RunWithRetries`).  `Run` brackets the
/// closure in a `ClusterTransaction`; conflict outcomes (`IsRetryable`)
/// from any participating cell — including a 2PC prepare refusal — abort
/// every participant, back off, and re-run the closure.  Outcomes count
/// into the cluster registry's `session.*` counters.
///
/// Not thread-safe; create one per thread.  The Cluster it drives is.
/// Like `Session`, a ClusterSession keeps no thread-affine state between
/// `Run` calls (thread-local jitter RNG; ambient trace context scoped
/// inside `Run`), so pooled reuse across OS threads is safe under the
/// pool's hand-off synchronization — see the invariant note on `Session`.
class ClusterSession {
 public:
  explicit ClusterSession(Cluster* cluster, SessionOptions options = {});

  ClusterSession(const ClusterSession&) = delete;
  ClusterSession& operator=(const ClusterSession&) = delete;

  Status Run(const std::function<Status(ClusterTransaction&)>& fn);

  const SessionStats& stats() const { return stats_; }
  Cluster* cluster() { return cluster_; }
  const SessionOptions& options() const { return options_; }

 private:
  Cluster* cluster_;
  SessionOptions options_;
  SessionStats stats_;
};

}  // namespace orion

#endif  // ORION_CELL_CLUSTER_SESSION_H_
