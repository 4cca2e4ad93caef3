#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared pieces of the composite-object benchmark: the clock, the seeded
// generator, latency samples, the benchmark-side span recorder, counter
// deltas over `Stats()` snapshots, and the metric list every workload
// fills in.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64: every input the benchmark generates comes from one of these,
/// seeded from `--seed`, so a seed fixes the object base and the op stream
/// of each client.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  bool Percent(uint32_t pct) { return Below(100) < pct; }

 private:
  uint64_t state_;
};

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double Quantile(std::vector<double> v, double q);

/// Quantile of a `Stats()` histogram delta, interpolated inside the
/// power-of-two bucket that holds it (the engine's histograms keep only
/// bucket counts).
double HistQuantile(const orion::obs::HistogramSnapshot& h, double q);

// --- Spans recorded from the benchmark's side of each layer boundary -------

/// Span names.  The prefix before the first '.' names the repository module
/// the span wraps (`op` is the benchmark's own per-operation root).
enum class Name : uint16_t {
  kOpRead,           // read_large: ComponentsOf + Get of each component
  kOpAncestors,      // read_large: AncestorsOf(leaf)
  kOpUpdate,         // a Session::Run that sets attributes
  kOpCompositeRead,  // update_hot: 2PL composite read
  kOpMake,           // update_hot: churn, make a leaf
  kOpDelete,         // update_hot: churn, delete a leaf
  kOpWireGet,
  kOpWireSet,
  kOpWireTxnCross,   // wire txn whose sets touch both cells
  kOpWireTxnSingle,  // wire txn whose sets stay in one cell
  kReadBegin,        // ReadTransaction construction
  kReadEnd,          // ReadTransaction destruction
  kComponentsOf,
  kAncestorsOf,
  kGet,              // ReadTransaction::Get over every component of one read
  kSessionRun,
  kSessionClosure,
  kCompositeLock,    // TransactionContext::LockCompositeForRead
  kTxnRead,          // TransactionContext::Read over every component
  kTxnSet,
  kMake,
  kDelete,
  kRpcEncode,        // wire.h request builder
  kRpcCall,          // Client::Call
  kRpcDecode,        // wire.h Parse*Response
  kCount,
};

const char* NameOf(Name name);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t op = 0;       // op id, unique within the run
  uint32_t id = 0;       // index in the owning thread's span list, plus 1
  uint32_t parent = 0;   // id of the enclosing span on this thread, 0 = none
  uint32_t items = 0;    // objects the call handled (Get/Read loops, results)
  Name name = Name::kOpRead;
};

/// One client thread's span recorder.  Spans stay in memory until the run
/// ends; `on` is false outside a traced window, and then every span call is
/// a branch and nothing more.
class Tracer {
 public:
  explicit Tracer(uint32_t thread) : thread_(thread) {}

  bool on = false;

  uint32_t Open(Name name) {
    spans_.push_back(Span{.start_ns = NowNs(),
                          .op = op_,
                          .id = static_cast<uint32_t>(spans_.size() + 1),
                          .parent = depth_ == 0 ? 0 : stack_[depth_ - 1],
                          .name = name});
    stack_[depth_++] = spans_.back().id;
    return spans_.back().id;
  }
  void Close(uint32_t id, uint32_t items) {
    Span& s = spans_[id - 1];
    s.end_ns = NowNs();
    s.items = items;
    --depth_;
  }
  /// Starts a new operation; its spans share the returned op id.
  void NextOp() { op_ = (static_cast<uint64_t>(thread_) << 40) | ++ops_; }

  const std::vector<Span>& spans() const { return spans_; }
  void Reserve(size_t n) { spans_.reserve(n); }

 private:
  uint32_t thread_;
  uint64_t ops_ = 0;
  uint64_t op_ = 0;
  std::vector<Span> spans_;
  uint32_t stack_[16] = {};
  int depth_ = 0;
};

/// RAII span; a no-op when the tracer is off.
class Scope {
 public:
  Scope(Tracer& t, Name name) : t_(t), id_(t.on ? t.Open(name) : 0) {}
  ~Scope() {
    if (id_ != 0) {
      t_.Close(id_, items_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void set_items(uint32_t n) { items_ = n; }

 private:
  Tracer& t_;
  uint32_t id_;
  uint32_t items_ = 0;
};

/// Per-name span durations (µs) gathered from every tracer.
std::map<Name, std::vector<double>> DurationsUs(
    const std::vector<const Tracer*>& tracers);

/// Writes every span as one tab-separated line:
/// thread op id parent name start_ns end_ns items.
bool DumpSpans(const std::string& path,
               const std::vector<const Tracer*>& tracers);

// --- Counter deltas over Stats() snapshots ----------------------------------

/// `end - start` of two `Stats()` snapshots, with gauges read at `end`.
class Delta {
 public:
  Delta(const orion::obs::MetricsSnapshot& start,
        const orion::obs::MetricsSnapshot& end)
      : d_(end.DeltaSince(start)) {}

  double Count(const std::string& name) const;
  /// Sum of a gauge over every cell (`name` or `name|cell=<tag>`).
  double GaugeSum(const std::string& name) const;
  const orion::obs::HistogramSnapshot& Hist(const std::string& name) const;
  double HistMean(const std::string& name) const;

 private:
  orion::obs::MetricsSnapshot d_;
};

/// `num / den`, or 0 when the base is empty.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- Results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Samples behind a timing (0 for counts and ratios).
  size_t samples = 0;
};

/// What a workload run hands back to main: the metrics of the mode it ran
/// in, the op accounting, provenance facts, and gate failures.
struct RunResult {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::string>> facts;
  std::vector<std::string> gate_failures;

  void Add(std::string name, double value, std::string unit,
           size_t samples = 0) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit),
                             samples});
  }
  void Fact(std::string key, std::string value) {
    facts.emplace_back(std::move(key), std::move(value));
  }
};

/// Adds `<prefix>.p50` and `<prefix>.p99` (or only p50) of `v`.
void AddQuantiles(RunResult& r, const std::string& prefix,
                  const std::vector<double>& v, const std::string& unit,
                  bool with_p99 = true);

/// Process user+sys CPU time in µs, and peak resident set in MiB.
double CpuUs();
double PeakRssMb();

/// The closed-loop window bookkeeping every workload shares: latencies of
/// reads and writes, completed and failed ops, per client thread.
struct ClientLog {
  std::vector<double> read_us;
  std::vector<double> write_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
