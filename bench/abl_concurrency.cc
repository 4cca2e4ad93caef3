// ABL-8: multi-threaded throughput — N OS threads drive one Database
// through per-thread Sessions, measuring committed ops/sec at 1/2/4/8
// threads on two topologies and three §7 locking strategies:
//
//   topology   partitioned — each worker owns a private composite root
//              contended   — all workers mutate one shared root
//   strategy   mco         — extended protocol (LockComposite, Figure 8)
//              root-only   — the [GARZ88] alternative (RootLock)
//              instance    — plain class/instance granularity locks
//
// A manual std::thread harness (not benchmark::ThreadRange) keeps fixture
// setup race-free and lets us print one ops/sec table plus the lock
// manager's contention counters (waits / deadlocks / timeouts / session
// retries) per cell.  On a single-core host the interesting signal is the
// *relative* cost of contention and strategy, not parallel speedup.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "core/transaction.h"
#include "workloads.h"

namespace orion::bench {
namespace {

constexpr int kOpsPerThread = 300;
constexpr int kPartsPerRoot = 8;

enum class Topology { kPartitioned, kContended };
enum class Strategy { kMco, kRootOnly, kInstance };

const char* Name(Topology t) {
  return t == Topology::kPartitioned ? "partitioned" : "contended";
}
const char* Name(Strategy s) {
  switch (s) {
    case Strategy::kMco:
      return "mco";
    case Strategy::kRootOnly:
      return "root-only";
    default:
      return "instance";
  }
}

struct Fixture {
  Database db;
  ClassId node = kInvalidClass;
  ClassId part = kInvalidClass;
  std::vector<Uid> roots;                 // one per worker (or one shared)
  std::vector<std::vector<Uid>> parts;    // parts[worker][i]

  Fixture(int threads, Topology topology) {
    part = *db.MakeClass(ClassSpec{
        .name = "Part", .attributes = {WeakAttr("N", "integer")}});
    node = *db.MakeClass(ClassSpec{
        .name = "Node",
        .attributes = {WeakAttr("Counter", "integer"),
                       CompositeAttr("Parts", "Part", /*exclusive=*/true,
                                     /*dependent=*/true, /*is_set=*/true)}});
    const int n_roots = topology == Topology::kPartitioned ? threads : 1;
    parts.resize(threads);
    for (int r = 0; r < n_roots; ++r) {
      roots.push_back(
          *db.Make("Node", {}, {{"Counter", Value::Integer(0)}}));
    }
    for (int t = 0; t < threads; ++t) {
      Uid root = roots[topology == Topology::kPartitioned ? t : 0];
      for (int i = 0; i < kPartsPerRoot; ++i) {
        parts[t].push_back(*db.objects().Make(
            part, {{root, "Parts"}}, {{"N", Value::Integer(i)}}));
      }
    }
  }

  Uid RootFor(int worker, Topology topology) const {
    return roots[topology == Topology::kPartitioned ? worker : 0];
  }
};

// Compiler barrier without dragging benchmark.h into the hot loop.
template <typename T>
inline void KeepAlive(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

// One worker's op mix: read-mostly traversal of its composite plus
// attribute writes, bracketed by the chosen locking strategy.
uint64_t Worker(Fixture& fx, Topology topology, Strategy strategy,
                int worker) {
  SessionOptions opts;
  opts.lock_timeout = std::chrono::milliseconds(200);
  opts.max_retries = 128;
  Session session(&fx.db, opts);
  const Uid root = fx.RootFor(worker, topology);
  Rng rng(0x9e3779b9u * static_cast<uint32_t>(worker + 1));
  uint64_t committed = 0;
  for (int i = 0; i < kOpsPerThread; ++i) {
    const Uid target = fx.parts[worker][rng.Below(kPartsPerRoot)];
    const bool write = rng.Percent(60);  // 60/40 write/read mix
    Status s = session.Run([&](TransactionContext& txn) -> Status {
      switch (strategy) {
        case Strategy::kMco:
          // Extended protocol: one composite lock covers the whole
          // hierarchy; the write touches a component directly afterwards.
          ORION_RETURN_IF_ERROR(
              write ? fx.db.protocol()
                          .LockComposite(txn.id(), root, /*write=*/true,
                                         session.options().lock_timeout)
                          .status()
                    : txn.LockCompositeForRead(root));
          break;
        case Strategy::kRootOnly:
          // [GARZ88]: lock the roots of every composite containing the
          // component being accessed.
          ORION_RETURN_IF_ERROR(fx.db.protocol().RootLock(
              txn.id(), target, write, session.options().lock_timeout));
          break;
        case Strategy::kInstance:
          break;  // plain instance locks taken by Read/SetAttribute below
      }
      if (write) {
        return txn.SetAttribute(target, "N",
                                Value::Integer(static_cast<int64_t>(i)));
      }
      ORION_ASSIGN_OR_RETURN(const Object* obj, txn.Read(target));
      KeepAlive(obj);
      return Status::Ok();
    });
    if (s.ok()) {
      ++committed;
    }
  }
  return committed;
}

struct Cell {
  double ops_per_sec = 0;
  uint64_t committed = 0;
  uint64_t waits = 0;
  uint64_t deadlocks = 0;
  uint64_t timeouts = 0;
};

Cell RunCell(int threads, Topology topology, Strategy strategy) {
  Fixture fx(threads, topology);
  std::vector<uint64_t> committed(threads, 0);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&fx, topology, strategy, t, &committed] {
      committed[t] = Worker(fx, topology, strategy, t);
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  Cell cell;
  for (uint64_t c : committed) {
    cell.committed += c;
  }
  cell.ops_per_sec = elapsed > 0 ? cell.committed / elapsed : 0;
  const LockManagerStats stats = fx.db.locks().stats();
  cell.waits = stats.waits;
  cell.deadlocks = stats.deadlocks;
  cell.timeouts = stats.timeouts;
  return cell;
}

// --- read/write mix sweep: MVCC vs S-lock readers -------------------------
//
// The PR-2 question: how much throughput does the lock-free read path buy
// on a *contended* composite root?  Readers either (a) bracket each read in
// a transaction that takes the §7 composite read locks, or (b) open a
// ReadTransaction at the commit watermark and resolve against the record
// chains with no locks at all.  Writers are identical in both cells, so
// any delta is the read path.

enum class ReaderPath { kSLock, kMvcc };

const char* Name(ReaderPath p) {
  return p == ReaderPath::kSLock ? "s-lock" : "mvcc";
}

struct MixCell {
  double ops_per_sec = 0;
  uint64_t committed = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t waits = 0;
  uint64_t timeouts = 0;
  uint64_t read_lock_grants = 0;   // lock-manager grants in a read mode
  uint64_t write_lock_grants = 0;
  /// Engine metrics delta across the measured region (setup excluded):
  /// every counter/histogram of the cell's private Database.
  Database::StatsSnapshot stats;
  /// §13 Chrome-trace export of the cell's trace buffer, captured after the
  /// workers quiesce (so every retained tree is complete).
  std::string trace_json;
};

uint64_t CounterOf(const Database::StatsSnapshot& s, const char* name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

uint64_t MixWorker(Fixture& fx, ReaderPath reader, int write_pct, int worker,
                   int ops, uint64_t* reads, uint64_t* writes) {
  SessionOptions opts;
  opts.lock_timeout = std::chrono::milliseconds(200);
  opts.max_retries = 128;
  Session session(&fx.db, opts);
  const Uid root = fx.RootFor(worker, Topology::kContended);
  Rng rng(0x243f6a88u * static_cast<uint32_t>(worker + 1));
  uint64_t committed = 0;
  for (int i = 0; i < ops; ++i) {
    const Uid target = fx.parts[worker][rng.Below(kPartsPerRoot)];
    if (rng.Percent(static_cast<uint32_t>(write_pct))) {
      Status s = session.Run([&](TransactionContext& txn) -> Status {
        return txn.SetAttribute(target, "N",
                                Value::Integer(static_cast<int64_t>(i)));
      });
      if (s.ok()) {
        ++committed;
        ++*writes;
      }
    } else if (reader == ReaderPath::kSLock) {
      Status s = session.Run([&](TransactionContext& txn) -> Status {
        ORION_RETURN_IF_ERROR(txn.LockCompositeForRead(root));
        ORION_ASSIGN_OR_RETURN(const Object* obj, txn.Read(target));
        KeepAlive(obj);
        return Status::Ok();
      });
      if (s.ok()) {
        ++committed;
        ++*reads;
      }
    } else {
      ReadTransaction rtxn = session.BeginReadOnly();
      auto obj = rtxn.Get(target);
      if (obj.ok()) {
        KeepAlive(*obj);
        ++committed;
        ++*reads;
      }
    }
  }
  return committed;
}

MixCell RunMixCell(int threads, ReaderPath reader, int write_pct, int ops) {
  Fixture fx(threads, Topology::kContended);
  std::vector<uint64_t> committed(threads, 0);
  std::vector<uint64_t> reads(threads, 0), writes(threads, 0);
  const Database::StatsSnapshot base = fx.db.Stats();
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&fx, reader, write_pct, t, ops, &committed, &reads,
                          &writes] {
      committed[t] =
          MixWorker(fx, reader, write_pct, t, ops, &reads[t], &writes[t]);
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  MixCell cell;
  for (int t = 0; t < threads; ++t) {
    cell.committed += committed[t];
    cell.reads += reads[t];
    cell.writes += writes[t];
  }
  cell.ops_per_sec = elapsed > 0 ? cell.committed / elapsed : 0;
  cell.stats = fx.db.Stats().DeltaSince(base);
  cell.trace_json = fx.db.trace().ToChromeTraceJson();
  cell.waits = CounterOf(cell.stats, "lock.waits");
  cell.timeouts = CounterOf(cell.stats, "lock.timeouts");
  cell.read_lock_grants = CounterOf(cell.stats, "lock.read_acquisitions");
  cell.write_lock_grants = CounterOf(cell.stats, "lock.write_acquisitions");
  return cell;
}

void RunMixSweep(int ops_per_thread, const char* json_path,
                 const char* prom_path, const char* metrics_json_path,
                 const char* trace_path) {
  std::printf("\n=== read/write mix: MVCC vs S-lock readers (contended "
              "root) ===\n");
  std::printf("%d ops/thread; reads hit a shared composite; writers "
              "X-lock components.\n\n",
              ops_per_thread);
  std::printf("%-6s %-8s %8s %12s %10s %8s %9s %11s %11s\n", "mix",
              "reader", "threads", "ops/sec", "committed", "waits",
              "timeouts", "read-locks", "write-locks");
  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"abl_concurrency_read_mix\",\n"
       << "  \"ops_per_thread\": " << ops_per_thread << ",\n"
       << "  \"cells\": [";
  bool first = true;
  Database::StatsSnapshot last_stats;
  std::string last_trace;
  for (int write_pct : {5, 50}) {
    const std::string mix =
        std::to_string(100 - write_pct) + "/" + std::to_string(write_pct);
    for (int threads : {1, 2, 4, 8}) {
      double slock_ops = 0;
      for (ReaderPath reader : {ReaderPath::kSLock, ReaderPath::kMvcc}) {
        const MixCell cell =
            RunMixCell(threads, reader, write_pct, ops_per_thread);
        if (reader == ReaderPath::kSLock) {
          slock_ops = cell.ops_per_sec;
        }
        std::printf("%-6s %-8s %8d %12.0f %10llu %8llu %9llu %11llu "
                    "%11llu\n",
                    mix.c_str(), Name(reader), threads, cell.ops_per_sec,
                    static_cast<unsigned long long>(cell.committed),
                    static_cast<unsigned long long>(cell.waits),
                    static_cast<unsigned long long>(cell.timeouts),
                    static_cast<unsigned long long>(cell.read_lock_grants),
                    static_cast<unsigned long long>(cell.write_lock_grants));
        json << (first ? "" : ",") << "\n    {\"mix\": \"" << mix
             << "\", \"reader\": \"" << Name(reader)
             << "\", \"threads\": " << threads << ", \"ops_per_sec\": "
             << static_cast<uint64_t>(cell.ops_per_sec)
             << ", \"committed\": " << cell.committed
             << ", \"reads\": " << cell.reads
             << ", \"writes\": " << cell.writes
             << ", \"waits\": " << cell.waits
             << ", \"timeouts\": " << cell.timeouts
             << ", \"read_lock_grants\": " << cell.read_lock_grants
             << ", \"write_lock_grants\": " << cell.write_lock_grants
             << ", \"metrics\": {"
             << "\"txn_commits\": " << CounterOf(cell.stats, "txn.commits")
             << ", \"txn_aborts\": " << CounterOf(cell.stats, "txn.aborts")
             << ", \"read_txns\": " << CounterOf(cell.stats, "mvcc.read_txns")
             << ", \"lock_waits\": " << CounterOf(cell.stats, "lock.waits")
             << ", \"session_retries\": "
             << CounterOf(cell.stats, "session.retries")
             << ", \"session_backoff_us\": "
             << CounterOf(cell.stats, "session.backoff_us")
             << ", \"records_published\": "
             << CounterOf(cell.stats, "mvcc.records_published")
             << ", \"records_trimmed\": "
             << CounterOf(cell.stats, "mvcc.records_trimmed")
             << "}}";
        last_stats = cell.stats;
        last_trace = cell.trace_json;
        first = false;
        if (reader == ReaderPath::kMvcc && slock_ops > 0) {
          std::printf("%-6s %-8s %8d %11.2fx  (mvcc / s-lock)\n",
                      mix.c_str(), "speedup", threads,
                      cell.ops_per_sec / slock_ops);
        }
      }
    }
  }
  json << "\n  ]\n}\n";
  // The last cell's full metrics delta in both exposition formats — the CI
  // checker cross-validates these against each other and the bench JSON.
  if (prom_path != nullptr) {
    std::ofstream(prom_path) << last_stats.ToPrometheus();
  }
  if (metrics_json_path != nullptr) {
    std::ofstream(metrics_json_path) << last_stats.ToJson();
  }
  // The last cell's span trees (§13): metrics_check --trace validates the
  // export's shape and orion_trace proves every tree is connected.
  if (trace_path != nullptr) {
    std::ofstream(trace_path) << last_trace;
  }
  std::printf("\nWrote %s%s%s%s%s.\nMVCC readers resolve against the "
              "committed record chains at a fixed timestamp: zero read-mode "
              "lock grants, no waits, no retries — writers keep the §7 "
              "X-lock discipline either way.\n",
              json_path, prom_path != nullptr ? ", " : "",
              prom_path != nullptr ? prom_path : "",
              metrics_json_path != nullptr ? ", " : "",
              metrics_json_path != nullptr ? metrics_json_path : "");
}

}  // namespace
}  // namespace orion::bench

int main(int argc, char** argv) {
  using namespace orion::bench;
  // --smoke: a ~1k-op sanity pass for the sanitizer CI legs.
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  if (smoke) {
    RunMixSweep(/*ops_per_thread=*/32, "BENCH_concurrency.json",
                "BENCH_concurrency_metrics.prom",
                "BENCH_concurrency_metrics.json",
                "BENCH_concurrency_trace.json");
    return 0;
  }
  std::printf("=== ABL-8: concurrent throughput ===\n");
  std::printf("%d ops/thread, %d parts/root, 60%% writes; single Database, "
              "one Session per thread.\n\n",
              kOpsPerThread, kPartsPerRoot);
  std::printf("%-12s %-10s %8s %12s %10s %8s %10s %9s\n", "topology",
              "strategy", "threads", "ops/sec", "committed", "waits",
              "deadlocks", "timeouts");
  for (Topology topology : {Topology::kPartitioned, Topology::kContended}) {
    for (Strategy strategy :
         {Strategy::kMco, Strategy::kRootOnly, Strategy::kInstance}) {
      for (int threads : {1, 2, 4, 8}) {
        const Cell cell = RunCell(threads, topology, strategy);
        std::printf("%-12s %-10s %8d %12.0f %10llu %8llu %10llu %9llu\n",
                    Name(topology), Name(strategy), threads,
                    cell.ops_per_sec,
                    static_cast<unsigned long long>(cell.committed),
                    static_cast<unsigned long long>(cell.waits),
                    static_cast<unsigned long long>(cell.deadlocks),
                    static_cast<unsigned long long>(cell.timeouts));
      }
    }
  }
  std::printf("\nMCO locking pays one composite lock per transaction and "
              "serializes whole hierarchies; root-only behaves likewise but "
              "must lock ALL containing roots of the touched component; "
              "instance locking admits finer interleavings at the price of "
              "per-object lock traffic and deadlock-driven retries.\n");
  RunMixSweep(/*ops_per_thread=*/400, "BENCH_concurrency.json",
              "BENCH_concurrency_metrics.prom",
              "BENCH_concurrency_metrics.json",
              "BENCH_concurrency_trace.json");
  return 0;
}
