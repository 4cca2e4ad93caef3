#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".";
};

/// read_large and update_hot: one in-process Database.
RunResult RunInProcess(const Options& opt);
/// wire_durable: a durable 2-cell Cluster behind rpc::Server.
RunResult RunWire(const Options& opt);

/// Phases of one run.  Clients read the phase before each operation:
/// a warm-up that is not measured, the untraced window the end-to-end
/// metrics come from, the traced window the per-layer metrics come from
/// (traced runs only), and stop.
enum Phase : int { kWarm = 0, kUntraced = 1, kTraced = 2, kStop = 3 };

/// The untraced window is cut into slices of this length.  Each end-to-end
/// metric is the median of its per-slice values, so a burst of CPU steal
/// on the shared host that hits a minority of slices does not move it.
inline constexpr double kSliceS = 1.0;

/// The window bookkeeping of one closed-loop client.
struct ClientState {
  explicit ClientState(uint32_t index) : tracer(index) {}
  Tracer tracer;
  int cpu = -1;  // the CPU the client thread is pinned to; -1: not pinned
  std::vector<ClientLog> slices;  // untraced window, one log per slice
  ClientLog traced;
};

/// Times and CPU of the windows a run measured.
struct Windows {
  std::vector<double> slice_s;
  std::vector<double> slice_cpu_us;
  double untraced_s = 0;
  double traced_s = 0;
  /// Peak resident set at the end of the untraced window: set-up and the
  /// run, without the gates and the recovery that follow.
  double peak_rss_mb = 0;
};

/// Runs one client thread per entry of `clients` through the phases, with
/// the calling thread stepping them: warm-up, then the untraced window of
/// `--seconds`.  A traced run splits `--seconds` in two: an untraced half,
/// the baseline of the tracing overhead, then a traced half in which one op
/// in `trace_every` per client is traced.  `op(i)` runs one operation of
/// client i and returns (is_read, ok).  `around_traced(true/false)` runs
/// just before and after the traced window (Stats() snapshots).
Windows RunLoop(const Options& opt, const std::vector<ClientState*>& clients,
                int trace_every,
                const std::function<std::pair<bool, bool>(int)>& op,
                const std::function<void(bool)>& around_traced);

/// The CPUs this process may run on, in ascending order.
std::vector<int> AllowedCpus();
/// Pins thread `tid` (0: the calling thread) to `cpu`, or to every allowed
/// CPU if `cpu` < 0.
void PinThread(int cpu, int tid = 0);
/// The ids of this process's threads.
std::vector<int> ThreadIds();

/// Median wall time of five calls of `fn`, in ms.  Used after the window
/// to time public `Database::ReclaimOnce()` passes: the walk over every
/// record chain that the background reclaimer repeats every 20 ms.
double MedianMs(const std::function<void()>& fn);

/// Everything the per-layer metrics are computed from.
struct LayerInputs {
  std::vector<const Tracer*> tracers;
  const Delta* delta = nullptr;
  double window_s = 0;
  double untraced_ops_s = 0;
  double traced_ops_s = 0;
  double reclaim_pass_ms = 0;
  // wire_durable only.
  std::vector<double> encode_ns;  // request builder + EncodeFrame, per call
  uint64_t client_retries = 0;
  uint64_t wire_calls = 0;
  double wal_bytes = 0;
  double recovery_s = 0;
};

/// Fills `r` from a finished run: the end-to-end metrics of the untraced
/// window and the op accounting, and in a traced run the per-layer metrics
/// from `in` (its tracers, throughputs and window are filled here) and the
/// span dump.  `setup_s` holds the timed set-ups; their median is reported.
void Finish(const Options& opt, const std::vector<ClientState*>& clients,
            const Windows& w, std::vector<double> setup_s, LayerInputs in,
            RunResult& r);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
