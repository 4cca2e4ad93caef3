// ABL-4: §7 — three ways to lock composite objects, compared.
//
//   A. extended composite protocol (this paper): root class + root
//      instance + one lock per component *class* — O(classes);
//   B. [GARZ88] root locking: one lock per root of the touched component —
//      O(roots), but over-locks entire composites and "cannot be used for
//      shared composite references";
//   C. per-object 2PL: one lock per touched object — O(objects).
//
// Measurements: lock acquisitions and time per whole-composite access for
// each strategy, plus the false-conflict rate of root locking on a shared
// corpus (disjoint writers that still collide).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "workloads.h"

namespace orion::bench {
namespace {

void PrintScenario() {
  Database db;
  FleetWorkload fleet = BuildFleet(db, /*num_vehicles=*/8,
                                   /*parts_per_vehicle=*/64);
  auto locks_for = [&](auto&& fn) {
    const uint64_t before = db.locks().total_acquisitions();
    TxnId txn = db.locks().Begin();
    fn(txn);
    (void)db.locks().Release(txn);
    return db.locks().total_acquisitions() - before;
  };
  const uint64_t composite = locks_for([&](TxnId txn) {
    (void)db.protocol().LockComposite(txn, fleet.vehicles[0], false);
  });
  const uint64_t rootlock = locks_for([&](TxnId txn) {
    (void)db.protocol().RootLock(txn, fleet.parts[0][0], false);
  });
  const uint64_t perobject = locks_for([&](TxnId txn) {
    (void)db.protocol().LockInstance(txn, fleet.vehicles[0], false);
    for (Uid part : fleet.parts[0]) {
      (void)db.protocol().LockInstance(txn, part, false);
    }
  });
  std::printf("=== ABL-4: locks acquired to read one 64-part composite ===\n");
  std::printf("  extended composite protocol: %llu locks (O(classes))\n",
              static_cast<unsigned long long>(composite));
  std::printf("  [GARZ88] root locking:       %llu locks per component "
              "access (O(roots))\n",
              static_cast<unsigned long long>(rootlock));
  std::printf("  per-object 2PL:              %llu locks (O(components))\n",
              static_cast<unsigned long long>(perobject));

  // The Figure 5 false conflict, constructed explicitly: documents A and B
  // share one section.  Writer 1 updates a paragraph of the SHARED section
  // (its roots are {A, B}); writer 2 updates a paragraph of B's PRIVATE
  // section (roots {B}).  The objects are disjoint, yet root locking makes
  // them collide on B.  Without sharing, the same pair never conflicts.
  auto false_conflict = [](bool share) {
    Database db2;
    ClassId para = *db2.MakeClass(ClassSpec{.name = "P"});
    ClassId sec = *db2.MakeClass(ClassSpec{
        .name = "S",
        .attributes = {CompositeAttr("Content", "P", false, true, true)}});
    ClassId doc = *db2.MakeClass(ClassSpec{
        .name = "D",
        .attributes = {CompositeAttr("Sections", "S", false, true, true)}});
    Uid a = *db2.objects().Make(doc, {}, {});
    Uid b = *db2.objects().Make(doc, {}, {});
    std::vector<ParentBinding> section_parents = {{a, "Sections"}};
    if (share) {
      section_parents.push_back({b, "Sections"});
    }
    Uid maybe_shared_sec = *db2.objects().Make(sec, section_parents, {});
    Uid private_sec = *db2.objects().Make(sec, {{b, "Sections"}}, {});
    Uid p1 =
        *db2.objects().Make(para, {{maybe_shared_sec, "Content"}}, {});
    Uid p2 = *db2.objects().Make(para, {{private_sec, "Content"}}, {});
    TxnId t1 = db2.locks().Begin();
    TxnId t2 = db2.locks().Begin();
    Status s1 = db2.protocol().RootLock(t1, p1, true);
    Status s2 = db2.protocol().RootLock(t2, p2, true);
    const bool conflicted = !(s1.ok() && s2.ok());
    (void)db2.locks().Release(t1);
    (void)db2.locks().Release(t2);
    return conflicted;
  };
  std::printf("  root-locking two writers on DISJOINT paragraphs of "
              "documents A and B:\n");
  std::printf("    no shared section:   conflict = %s\n",
              false_conflict(false) ? "yes" : "no");
  std::printf("    one shared section:  conflict = %s   <- false conflict\n",
              false_conflict(true) ? "yes" : "no");
  std::printf("  [paper: with shared references the algorithm implicitly "
              "locks unrelated composites]\n\n");
}

void BM_StrategyCompositeProtocol(benchmark::State& state) {
  Database db;
  FleetWorkload fleet =
      BuildFleet(db, 8, static_cast<int>(state.range(0)));
  size_t v = 0;
  for (auto _ : state) {
    TxnId txn = db.locks().Begin();
    Status s = db.protocol()
                   .LockComposite(
                       txn, fleet.vehicles[v++ % fleet.vehicles.size()], false)
                   .status();
    benchmark::DoNotOptimize(s);
    (void)db.locks().Release(txn);
  }
}
BENCHMARK(BM_StrategyCompositeProtocol)->Arg(16)->Arg(256)->Iterations(5000);

void BM_StrategyRootLock(benchmark::State& state) {
  Database db;
  FleetWorkload fleet =
      BuildFleet(db, 8, static_cast<int>(state.range(0)));
  size_t v = 0;
  for (auto _ : state) {
    TxnId txn = db.locks().Begin();
    // Access every part through root locks (locks the root once, then
    // each accessed instance).
    const size_t i = v++ % fleet.vehicles.size();
    for (Uid part : fleet.parts[i]) {
      Status s = db.protocol().RootLock(txn, part, false);
      benchmark::DoNotOptimize(s);
    }
    (void)db.locks().Release(txn);
  }
}
BENCHMARK(BM_StrategyRootLock)->Arg(16)->Arg(256)->Iterations(500);

void BM_StrategyPerObject(benchmark::State& state) {
  Database db;
  FleetWorkload fleet =
      BuildFleet(db, 8, static_cast<int>(state.range(0)));
  size_t v = 0;
  for (auto _ : state) {
    TxnId txn = db.locks().Begin();
    const size_t i = v++ % fleet.vehicles.size();
    Status s = db.protocol().LockInstance(txn, fleet.vehicles[i], false);
    benchmark::DoNotOptimize(s);
    for (Uid part : fleet.parts[i]) {
      Status p = db.protocol().LockInstance(txn, part, false);
      benchmark::DoNotOptimize(p);
    }
    (void)db.locks().Release(txn);
  }
}
BENCHMARK(BM_StrategyPerObject)->Arg(16)->Arg(256)->Iterations(500);

}  // namespace
}  // namespace orion::bench

int main(int argc, char** argv) {
  orion::bench::PrintScenario();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
