#include "cell/cluster_session.h"

namespace orion {

ClusterSession::ClusterSession(Cluster* cluster, SessionOptions options)
    : cluster_(cluster), options_(options) {}

Status ClusterSession::Run(
    const std::function<Status(ClusterTransaction&)>& fn) {
  // The root span goes on the CLUSTER's trace buffer: a cross-cell
  // commit's spans (per-cell prepares, each cell's WAL wait, the decision)
  // collect into one tree, not scattered across per-cell rings.
  return RunWithRetries(cluster_, cluster_->trace(), options_, stats_,
                        cluster_->cluster_metrics().session, fn);
}

}  // namespace orion
