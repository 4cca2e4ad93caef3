// FIG-7: compatibility matrix for granularity + exclusive composite object
// locking (paper Figure 7), plus the protocol-level payoff it encodes.
//
// Artifact: regenerates the 8x8 matrix (derivation in DESIGN.md — the
// scan is illegible; every entry follows a stated prose constraint, pinned
// by tests/lock_mode_test.cc).
//
// Measurements: locking a whole composite object with the §7 protocol
// (constant number of locks: root class + root + component classes) versus
// classical per-object granularity locking (one lock per component), over
// growing composite sizes — the shape the protocol was designed for.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "workloads.h"

namespace orion::bench {
namespace {

void BM_CompositeProtocolLock(benchmark::State& state) {
  Database db;
  FleetWorkload fleet =
      BuildFleet(db, /*num_vehicles=*/4,
                 /*parts_per_vehicle=*/static_cast<int>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    TxnId txn = db.locks().Begin();
    Status s = db.protocol()
                   .LockComposite(txn,
                                  fleet.vehicles[i++ % fleet.vehicles.size()],
                                  /*write=*/false)
                   .status();
    benchmark::DoNotOptimize(s);
    (void)db.locks().Release(txn);
  }
  state.counters["locks_per_access"] =
      static_cast<double>(db.locks().total_acquisitions()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_CompositeProtocolLock)
    ->Arg(4)
    ->Arg(64)
    ->Arg(512)
    ->Iterations(5000);

void BM_PerObjectGranularityLock(benchmark::State& state) {
  // Baseline: lock the root and every component individually (IS on the
  // classes, S on each instance).
  Database db;
  FleetWorkload fleet =
      BuildFleet(db, /*num_vehicles=*/4,
                 /*parts_per_vehicle=*/static_cast<int>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    TxnId txn = db.locks().Begin();
    const size_t v = i++ % fleet.vehicles.size();
    Status s = db.protocol().LockInstance(txn, fleet.vehicles[v], false);
    benchmark::DoNotOptimize(s);
    for (Uid part : fleet.parts[v]) {
      Status p = db.protocol().LockInstance(txn, part, false);
      benchmark::DoNotOptimize(p);
    }
    (void)db.locks().Release(txn);
  }
  state.counters["locks_per_access"] =
      static_cast<double>(db.locks().total_acquisitions()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_PerObjectGranularityLock)
    ->Arg(4)
    ->Arg(64)
    ->Arg(512)
    ->Iterations(5000);

void BM_ConcurrentWritersDifferentComposites(benchmark::State& state) {
  // The matrix row the protocol exists for: IXO-IXO compatible, so writers
  // of different composites of one hierarchy never block.  Each iteration
  // is a pair of writer lock cycles that would serialize under naive
  // class-level X locking.
  Database db;
  FleetWorkload fleet = BuildFleet(db, /*num_vehicles=*/2,
                                   /*parts_per_vehicle=*/8);
  for (auto _ : state) {
    TxnId t1 = db.locks().Begin();
    TxnId t2 = db.locks().Begin();
    Status a =
        db.protocol().LockComposite(t1, fleet.vehicles[0], true).status();
    Status b =
        db.protocol().LockComposite(t2, fleet.vehicles[1], true).status();
    benchmark::DoNotOptimize(a);
    benchmark::DoNotOptimize(b);
    if (!a.ok() || !b.ok()) {
      state.SkipWithError("writers on different composites must not block");
      break;
    }
    (void)db.locks().Release(t1);
    (void)db.locks().Release(t2);
  }
}
BENCHMARK(BM_ConcurrentWritersDifferentComposites)->Iterations(20000);

}  // namespace
}  // namespace orion::bench

int main(int argc, char** argv) {
  std::printf("%s\n", orion::RenderFigure7Matrix().c_str());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
