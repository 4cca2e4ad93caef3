// Observability layer tests: the obs primitives in isolation (striped
// counters, log-scale histograms, the seqlock trace ring, exporter golden
// output) and the engine-wide wiring (Database::Stats() deltas matching the
// work actually done, lock-wait and reclaim instrumentation, the
// PageAccessTracker shim).  The multi-threaded suites run under
// ThreadSanitizer via ci.sh stage 2 — suite names contain "Observability"
// to match its ctest regex.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/session.h"
#include "lock/lock_manager.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace orion {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::HistogramSnapshot;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::Span;
using obs::TraceBuffer;
using obs::TraceEvent;
using std::chrono::milliseconds;

// --- counters / gauges ----------------------------------------------------

TEST(ObservabilityCounterTest, AddAndIncSumAcrossShards) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(ObservabilityCounterTest, EightThreadIncrementsAllLand) {
  constexpr int kThreads = 8;
  constexpr int kIncs = 20000;
  Counter c;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kIncs; ++i) {
        c.Inc();
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kIncs);
}

TEST(ObservabilityGaugeTest, LastWriterWins) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0);
  g.Set(7);
  g.Set(-3);
  EXPECT_EQ(g.Value(), -3);
}

// --- histograms -----------------------------------------------------------

TEST(ObservabilityHistogramTest, BucketAssignmentAndBounds) {
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(UINT64_MAX), 64u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(0), 0u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(1), 1u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(2), 3u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(3), 7u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(64), UINT64_MAX);
  // Every value falls in the bucket whose bound brackets it.
  for (uint64_t v : {0ull, 1ull, 2ull, 63ull, 64ull, 12345ull}) {
    const size_t b = Histogram::BucketOf(v);
    EXPECT_LE(v, HistogramSnapshot::BucketUpperBound(b));
    if (b > 0) {
      EXPECT_GT(v, HistogramSnapshot::BucketUpperBound(b - 1));
    }
  }
}

TEST(ObservabilityHistogramTest, CountSumMeanPercentiles) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) {
    h.Observe(v);
  }
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.sum, 5050u);
  EXPECT_EQ(snap.Mean(), 50u);
  // Nearest-rank percentiles report the containing bucket's upper bound:
  // the 50th observation is 50 (bucket [32,63]), the 99th is 99 ([64,127]).
  EXPECT_EQ(snap.Percentile(50), 63u);
  EXPECT_EQ(snap.Percentile(99), 127u);
  EXPECT_EQ(snap.Percentile(0), 1u);
  EXPECT_EQ(HistogramSnapshot{}.Percentile(50), 0u);
}

TEST(ObservabilityHistogramTest, EightThreadObservationsAllLand) {
  constexpr int kThreads = 8;
  constexpr int kObs = 5000;
  Histogram h;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kObs; ++i) {
        h.Observe(static_cast<uint64_t>(t) + 1);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kObs);
  // sum of (t+1) for t in [0,8) = 36, times kObs observations each.
  EXPECT_EQ(snap.sum, 36u * kObs);
}

// --- registry and snapshots -----------------------------------------------

TEST(ObservabilityRegistryTest, LookupIsIdempotentAndStable) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.count");
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&reg.counter("x.count"), &reg.counter("y.count"));
  EXPECT_NE(static_cast<void*>(&reg.gauge("x.level")),
            static_cast<void*>(&reg.histogram("x.lat_us")));
}

TEST(ObservabilityRegistryTest, SnapshotCoversAllKinds) {
  MetricsRegistry reg;
  reg.counter("a.count").Add(3);
  reg.gauge("a.level").Set(-5);
  reg.histogram("a.lat_us").Observe(9);
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("a.count"), 3u);
  EXPECT_EQ(snap.gauges.at("a.level"), -5);
  EXPECT_EQ(snap.histograms.at("a.lat_us").count, 1u);
  EXPECT_EQ(snap.histograms.at("a.lat_us").sum, 9u);
}

TEST(ObservabilityRegistryTest, DeltaSinceSubtractsCountersKeepsGauges) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  Histogram& h = reg.histogram("h");
  c.Add(5);
  g.Set(10);
  h.Observe(4);
  const MetricsSnapshot base = reg.Snapshot();
  c.Add(7);
  g.Set(3);
  h.Observe(4);
  h.Observe(9);
  const MetricsSnapshot delta = reg.Snapshot().DeltaSince(base);
  EXPECT_EQ(delta.counters.at("c"), 7u);
  EXPECT_EQ(delta.gauges.at("g"), 3);  // gauges keep the current reading
  EXPECT_EQ(delta.histograms.at("h").count, 2u);
  EXPECT_EQ(delta.histograms.at("h").sum, 13u);
  EXPECT_EQ(delta.histograms.at("h").buckets[Histogram::BucketOf(4)], 1u);
  EXPECT_EQ(delta.histograms.at("h").buckets[Histogram::BucketOf(9)], 1u);
}

// --- exporters ------------------------------------------------------------

/// One registry whose exact exposition both golden tests assert against.
MetricsSnapshot GoldenSnapshot() {
  MetricsRegistry reg;
  reg.counter("test.count").Add(3);
  reg.gauge("test.level").Set(-2);
  Histogram& h = reg.histogram("test.lat_us");
  h.Observe(0);
  h.Observe(1);
  h.Observe(5);
  return reg.Snapshot();
}

TEST(ObservabilityExportTest, PrometheusGolden) {
  const char* expected =
      "# TYPE orion_test_count counter\n"
      "orion_test_count 3\n"
      "# TYPE orion_test_level gauge\n"
      "orion_test_level -2\n"
      "# TYPE orion_test_lat_us histogram\n"
      "orion_test_lat_us_bucket{le=\"0\"} 1\n"
      "orion_test_lat_us_bucket{le=\"1\"} 2\n"
      "orion_test_lat_us_bucket{le=\"3\"} 2\n"
      "orion_test_lat_us_bucket{le=\"7\"} 3\n"
      "orion_test_lat_us_bucket{le=\"+Inf\"} 3\n"
      "orion_test_lat_us_sum 6\n"
      "orion_test_lat_us_count 3\n";
  EXPECT_EQ(GoldenSnapshot().ToPrometheus(), expected);
}

TEST(ObservabilityExportTest, JsonGolden) {
  const char* expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"test.count\": 3\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"test.level\": -2\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"test.lat_us\": {\"count\": 3, \"sum\": 6, \"mean\": 2, "
      "\"p50\": 1, \"p95\": 7, \"p99\": 7, "
      "\"buckets\": {\"0\": 1, \"1\": 1, \"7\": 1}}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(GoldenSnapshot().ToJson(), expected);
}

TEST(ObservabilityExportTest, EmptySnapshotStaysWellFormed) {
  const MetricsSnapshot empty;
  EXPECT_EQ(empty.ToPrometheus(), "");
  EXPECT_EQ(empty.ToJson(),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n"
            "  \"histograms\": {}\n}\n");
}

// --- trace ring -----------------------------------------------------------

TEST(ObservabilityTraceTest, RecordAndReadBackOldestFirst) {
  TraceBuffer buf(8);
  EXPECT_EQ(buf.capacity(), 8u);
  buf.Record("ev.a", 10, 2, 100);
  buf.Record("ev.b", 20, 4, 200);
  const std::vector<TraceEvent> events = buf.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "ev.a");
  EXPECT_EQ(events[0].start_us, 10u);
  EXPECT_EQ(events[0].duration_us, 2u);
  EXPECT_EQ(events[0].tag, 100u);
  EXPECT_GT(events[0].thread_id, 0u);
  EXPECT_STREQ(events[1].name, "ev.b");
  EXPECT_EQ(buf.recorded(), 2u);
  EXPECT_EQ(buf.dropped(), 0u);
}

TEST(ObservabilityTraceTest, WraparoundKeepsNewestEvents) {
  TraceBuffer buf(8);
  for (uint64_t i = 0; i < 20; ++i) {
    buf.Record("ev.wrap", i, 1, i);
  }
  EXPECT_EQ(buf.recorded(), 20u);
  EXPECT_EQ(buf.dropped(), 12u);
  const std::vector<TraceEvent> events = buf.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].tag, 12 + i);  // survivors, oldest first
  }
}

TEST(ObservabilityTraceTest, SpanRecordsOnDestruction) {
  TraceBuffer buf(8);
  {
    Span span(&buf, "span.test", 7);
    span.set_tag(9);
    EXPECT_EQ(buf.Snapshot().size(), 0u);  // nothing until the span closes
  }
  const std::vector<TraceEvent> events = buf.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "span.test");
  EXPECT_EQ(events[0].tag, 9u);
}

TEST(ObservabilityTraceTest, NullBufferSpanIsFree) {
  Span span(nullptr, "span.null");
  EXPECT_EQ(span.elapsed_us(), 0u);  // no clock reads on the null path
}

// Writers hammer a tiny ring while readers snapshot continuously: every
// event a snapshot returns must be internally consistent (its fields all
// belong to one Record call) — the seqlock must never hand back a torn
// slot.  This is the test TSan watches most closely.
TEST(ObservabilityTraceTest, ConcurrentWritersNeverTearSnapshots) {
  constexpr int kWriters = 4;
  constexpr uint64_t kEvents = 20000;
  static const char* const kNames[kWriters] = {"trace.w0", "trace.w1",
                                               "trace.w2", "trace.w3"};
  TraceBuffer buf(64);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&buf, &stop, &torn] {
      while (!stop.load(std::memory_order_acquire)) {
        for (const TraceEvent& ev : buf.Snapshot()) {
          const uint64_t writer = ev.tag >> 32;
          const uint64_t seq = ev.tag & 0xffffffffu;
          if (writer >= kWriters || ev.name != kNames[writer] ||
              ev.start_us != seq || ev.duration_us != seq + writer) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (uint64_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&buf, w] {
      for (uint64_t i = 0; i < kEvents; ++i) {
        buf.Record(kNames[w], i, i + w, (w << 32) | i);
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(buf.recorded(), kWriters * kEvents);
  EXPECT_EQ(buf.dropped(), kWriters * kEvents - buf.capacity());
}

// --- engine wiring --------------------------------------------------------

class ObservabilityEngineTest : public ::testing::Test {
 protected:
  ObservabilityEngineTest() {
    cls_ = *db_.MakeClass(
        ClassSpec{.name = "Obs", .attributes = {WeakAttr("N", "integer")}});
  }

  SessionOptions ContendedOptions() {
    SessionOptions opts;
    opts.lock_timeout = milliseconds(250);
    opts.max_retries = 64;
    return opts;
  }

  Database db_;
  ClassId cls_;
};

// Single-threaded, so every delta is exact: five commits must show up as
// five begins, five commits, five publish batches, five commit-latency and
// journal-size observations; two read transactions as two read_txns.
TEST_F(ObservabilityEngineTest, StatsDeltaMatchesWorkDone) {
  const Database::StatsSnapshot base = db_.Stats();

  Session session(&db_);
  Uid root;
  ASSERT_TRUE(session
                  .Run([&](TransactionContext& txn) -> Status {
                    ORION_ASSIGN_OR_RETURN(
                        root, txn.Make("Obs", {}, {{"N", Value::Integer(0)}}));
                    return Status::Ok();
                  })
                  .ok());
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(session
                    .Run([&](TransactionContext& txn) -> Status {
                      return txn.SetAttribute(root, "N", Value::Integer(i));
                    })
                    .ok());
  }
  {
    ReadTransaction reader = session.BeginReadOnly();
    EXPECT_TRUE(reader.Get(root).ok());
  }
  {
    ReadTransaction reader(&db_);
    EXPECT_TRUE(reader.Exists(root));
  }

  const Database::StatsSnapshot delta = db_.Stats().DeltaSince(base);
  EXPECT_EQ(delta.counters.at("txn.begins"), 5u);
  EXPECT_EQ(delta.counters.at("txn.commits"), 5u);
  EXPECT_EQ(delta.counters.at("txn.aborts"), 0u);
  EXPECT_EQ(delta.counters.at("session.commits"), 5u);
  EXPECT_EQ(delta.counters.at("session.retries"), 0u);
  EXPECT_EQ(delta.counters.at("mvcc.read_txns"), 2u);
  EXPECT_EQ(delta.counters.at("mvcc.publishes"), 5u);
  EXPECT_GE(delta.counters.at("mvcc.records_published"), 5u);
  EXPECT_EQ(delta.histograms.at("txn.commit_us").count, 5u);
  EXPECT_EQ(delta.histograms.at("txn.journal_size").count, 5u);
  EXPECT_GE(delta.histograms.at("mvcc.chain_length").count, 5u);
  EXPECT_EQ(session.stats().commits, 5u);

  const Database::StatsSnapshot now = db_.Stats();
  EXPECT_GT(now.gauges.at("mvcc.watermark"), 0);
  EXPECT_GE(now.gauges.at("mvcc.chains"), 1);
  EXPECT_EQ(now.gauges.at("lock.grants_held"), 0);  // strict 2PL drained

  // The commits also left "txn.commit" spans in the trace ring.
  size_t commit_spans = 0;
  for (const TraceEvent& ev : db_.trace().Snapshot()) {
    if (std::string_view(ev.name) == "txn.commit") {
      ++commit_spans;
    }
  }
  EXPECT_GE(commit_spans, 5u);
}

// A blocked-then-granted acquisition must register exactly one wait, one
// wait-time observation, and a "lock.wait" span.
TEST_F(ObservabilityEngineTest, LockWaitFeedsHistogramAndTrace) {
  MetricsRegistry reg;
  TraceBuffer trace(64);
  LockManager lm(&reg, &trace);
  const LockResource res = LockResource::Instance(Uid{42});

  const TxnId a = lm.Begin();
  const TxnId b = lm.Begin();
  ASSERT_TRUE(lm.Acquire(a, res, LockMode::kX).ok());

  Status blocked = Status::Ok();
  std::thread waiter([&] {
    blocked = lm.Acquire(b, res, LockMode::kX, milliseconds(2000));
  });
  std::this_thread::sleep_for(milliseconds(30));
  ASSERT_TRUE(lm.Release(a).ok());
  waiter.join();
  EXPECT_TRUE(blocked.ok());
  ASSERT_TRUE(lm.Release(b).ok());

  const LockManagerStats stats = lm.stats();
  EXPECT_EQ(stats.acquisitions, 2u);
  EXPECT_EQ(stats.write_acquisitions, 2u);
  EXPECT_EQ(stats.waits, 1u);
  EXPECT_EQ(stats.deadlocks, 0u);
  EXPECT_EQ(stats.timeouts, 0u);

  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("lock.waits"), 1u);
  EXPECT_EQ(snap.histograms.at("lock.wait_us").count, 1u);
  EXPECT_GT(snap.histograms.at("lock.wait_us").sum, 0u);

  size_t wait_spans = 0;
  for (const TraceEvent& ev : trace.Snapshot()) {
    if (std::string_view(ev.name) == "lock.wait") {
      ++wait_spans;
    }
  }
  EXPECT_EQ(wait_spans, 1u);
}

// Reclamation: overwriting one object six times leaves dead versions that
// some pass (ours or the background reclaimer's — both land in the same
// counters) must trim; a pass over a clean store counts as a zero pass.
TEST_F(ObservabilityEngineTest, ReclaimPassesFeedCountersAndGauges) {
  Session session(&db_);
  Uid root;
  ASSERT_TRUE(session
                  .Run([&](TransactionContext& txn) -> Status {
                    ORION_ASSIGN_OR_RETURN(
                        root, txn.Make("Obs", {}, {{"N", Value::Integer(0)}}));
                    return Status::Ok();
                  })
                  .ok());

  const Database::StatsSnapshot base = db_.Stats();
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(session
                    .Run([&](TransactionContext& txn) -> Status {
                      return txn.SetAttribute(root, "N", Value::Integer(i));
                    })
                    .ok());
  }
  (void)db_.ReclaimOnce();
  const Database::StatsSnapshot delta = db_.Stats().DeltaSince(base);
  EXPECT_GE(delta.counters.at("reclaim.passes"), 1u);
  EXPECT_GE(delta.counters.at("mvcc.records_trimmed"), 1u);
  EXPECT_GT(db_.Stats().gauges.at("reclaim.min_active_ts"), 0);

  // With nothing left to trim, every further pass is a zero pass.
  const Database::StatsSnapshot quiet = db_.Stats();
  (void)db_.ReclaimOnce();
  const Database::StatsSnapshot quiet_delta = db_.Stats().DeltaSince(quiet);
  EXPECT_GE(quiet_delta.counters.at("reclaim.passes"), 1u);
  EXPECT_EQ(quiet_delta.counters.at("reclaim.passes"),
            quiet_delta.counters.at("reclaim.zero_passes"));
  EXPECT_EQ(db_.Stats().gauges.at("reclaim.last_trimmed"), 0);
  // ...and visits no chain: a pass costs what changed, not the store.
  EXPECT_EQ(quiet_delta.counters.at("reclaim.chains_visited"), 0u);

  // A thousand updates of one object queue its chain once, so no pass
  // visits more than that one chain, and the next pass collapses it.
  const Database::StatsSnapshot busy = db_.Stats();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(db_.objects().SetAttribute(root, "N", Value::Integer(i)).ok());
  }
  (void)db_.ReclaimOnce();
  const Database::StatsSnapshot busy_delta = db_.Stats().DeltaSince(busy);
  EXPECT_GE(busy_delta.counters.at("reclaim.chains_visited"), 1u);
  EXPECT_LE(busy_delta.counters.at("reclaim.chains_visited"),
            busy_delta.counters.at("reclaim.passes"));
  EXPECT_EQ(db_.records().record_count(), db_.records().chain_count());
}

// The tracker's Reset() is a baseline offset over the monotonic registry
// counter: the per-experiment view rewinds, the engine-wide total must not.
TEST_F(ObservabilityEngineTest, PageTrackerShimResetsWithoutRewindingTotals) {
  Uid u = *db_.Make("Obs", {}, {{"N", Value::Integer(1)}});
  PageAccessTracker& tracker = db_.store().tracker();

  tracker.Reset();
  EXPECT_EQ(tracker.total_touches(), 0u);
  EXPECT_EQ(tracker.distinct_pages(), 0u);

  (void)db_.objects().Access(u);
  (void)db_.objects().Access(u);
  EXPECT_GE(tracker.total_touches(), 2u);
  EXPECT_GE(tracker.distinct_pages(), 1u);

  const uint64_t total = db_.Stats().counters.at("storage.page_touches");
  EXPECT_GE(total, 2u);
  tracker.Reset();
  EXPECT_EQ(tracker.total_touches(), 0u);
  EXPECT_EQ(db_.Stats().counters.at("storage.page_touches"), total);
  EXPECT_EQ(db_.Stats().gauges.at("storage.distinct_pages"), 0);
}

// Eight writer threads (private root each, plus one contended shared
// object) race against a thread calling Stats()/ToPrometheus()/ToJson() in
// a loop.  TSan checks the snapshot path for races; afterwards the registry
// deltas must reconcile exactly with the per-session outcome counters.
TEST_F(ObservabilityEngineTest, StatsIsRaceFreeUnderConcurrentWorkers) {
  constexpr int kWorkers = 8;
  constexpr int kOps = 30;

  std::vector<Uid> roots;
  for (int t = 0; t < kWorkers; ++t) {
    roots.push_back(*db_.Make("Obs", {}, {{"N", Value::Integer(0)}}));
  }
  const Uid shared = *db_.Make("Obs", {}, {{"N", Value::Integer(0)}});
  const Database::StatsSnapshot base = db_.Stats();

  std::atomic<bool> done{false};
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> retries{0};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> monotonicity_violations{0};

  std::thread stats_reader([&] {
    uint64_t prev_commits = 0;
    while (!done.load(std::memory_order_acquire)) {
      Database::StatsSnapshot snap = db_.Stats();
      const uint64_t commits = snap.counters.at("txn.commits");
      if (commits < prev_commits) {
        monotonicity_violations.fetch_add(1, std::memory_order_relaxed);
      }
      prev_commits = commits;
      // Exporters must also be safe while workers mutate the cells.
      (void)snap.ToPrometheus();
      (void)snap.ToJson();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&, t] {
      Session session(&db_, ContendedOptions());
      for (int i = 0; i < kOps; ++i) {
        const Status s = session.Run([&](TransactionContext& txn) -> Status {
          ORION_RETURN_IF_ERROR(
              txn.SetAttribute(roots[t], "N", Value::Integer(i)));
          return txn.SetAttribute(shared, "N", Value::Integer(i));
        });
        if (s.ok()) {
          committed.fetch_add(1, std::memory_order_relaxed);
        }
        if (i % 3 == 0) {
          ReadTransaction reader = session.BeginReadOnly();
          (void)reader.Exists(shared);
          reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
      retries.fetch_add(session.stats().retries, std::memory_order_relaxed);
      failures.fetch_add(session.stats().failures, std::memory_order_relaxed);
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  done.store(true, std::memory_order_release);
  stats_reader.join();

  EXPECT_EQ(monotonicity_violations.load(), 0u);
  const Database::StatsSnapshot delta = db_.Stats().DeltaSince(base);
  EXPECT_EQ(delta.counters.at("session.commits"), committed.load());
  EXPECT_EQ(delta.counters.at("session.retries"), retries.load());
  EXPECT_EQ(delta.counters.at("session.failures"), failures.load());
  EXPECT_EQ(delta.counters.at("txn.commits"), committed.load());
  EXPECT_EQ(delta.counters.at("txn.begins"),
            delta.counters.at("txn.commits") +
                delta.counters.at("txn.aborts"));
  EXPECT_EQ(delta.counters.at("mvcc.read_txns"), reads.load());
  EXPECT_EQ(db_.Stats().gauges.at("lock.grants_held"), 0);
}

// The engine's own exposition must carry every subsystem's series.
TEST_F(ObservabilityEngineTest, EngineExpositionNamesAllSubsystems) {
  const std::string prom = db_.Stats().ToPrometheus();
  for (const char* needle :
       {"# TYPE orion_txn_commits counter", "orion_lock_acquisitions",
        "orion_mvcc_publishes", "orion_session_commits",
        "orion_reclaim_passes", "orion_storage_placements",
        "orion_index_lookups", "orion_query_selects_at",
        "# TYPE orion_mvcc_watermark gauge",
        "# TYPE orion_txn_commit_us histogram"}) {
    EXPECT_NE(prom.find(needle), std::string::npos) << needle;
  }
  const std::string json = db_.Stats().ToJson();
  for (const char* needle : {"\"counters\"", "\"gauges\"", "\"histograms\"",
                             "\"txn.commits\"", "\"lock.wait_us\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace orion
