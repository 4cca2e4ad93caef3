// FIG-8 (and Figure 9): the compatibility matrix extended with the
// shared-composite modes ISOS/IXOS/SIXOS, and the paper's three worked
// locking examples replayed on the Figure 9 object graph.
//
// Artifact: the 11x11 matrix, plus the example replay — "examples 1 and 2
// are compatible, while example 3 is incompatible with both 1 and 2."
//
// Measurements: lock cycles under the shared modes, and the
// reader-capacity difference the prose states: several readers and one
// writer on a shared-reference component class versus several readers AND
// writers on an exclusive-reference one.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "workloads.h"

namespace orion::bench {
namespace {

/// The Figure 9 graph.
struct Fig9 {
  Database db;
  ClassId i_cls, j_cls, k_cls, c_cls, w_cls;
  Uid inst_i, inst_i2, inst_j, inst_k;

  Fig9() {
    w_cls = *db.MakeClass(ClassSpec{.name = "W"});
    c_cls = *db.MakeClass(ClassSpec{
        .name = "C",
        .attributes = {CompositeAttr("Ws", "W", /*exclusive=*/true,
                                     /*dependent=*/false, /*is_set=*/true)}});
    i_cls = *db.MakeClass(ClassSpec{
        .name = "I",
        .attributes = {CompositeAttr("Cs", "C", /*exclusive=*/true,
                                     /*dependent=*/false, /*is_set=*/true)}});
    j_cls = *db.MakeClass(ClassSpec{
        .name = "J",
        .attributes = {CompositeAttr("Cs", "C", /*exclusive=*/false,
                                     /*dependent=*/false, /*is_set=*/true)}});
    k_cls = *db.MakeClass(ClassSpec{
        .name = "K",
        .attributes = {CompositeAttr("Cs", "C", /*exclusive=*/false,
                                     /*dependent=*/false, /*is_set=*/true)}});
    inst_i = *db.objects().Make(i_cls, {}, {});
    inst_i2 = *db.objects().Make(i_cls, {}, {});
    inst_j = *db.objects().Make(j_cls, {}, {});
    inst_k = *db.objects().Make(k_cls, {}, {});
    Uid c1 = *db.objects().Make(c_cls, {{inst_i, "Cs"}}, {});
    Uid c2 = *db.objects().Make(
        c_cls, {{inst_j, "Cs"}, {inst_k, "Cs"}}, {});
    (void)*db.objects().Make(w_cls, {{c1, "Ws"}}, {});
    (void)*db.objects().Make(w_cls, {{c2, "Ws"}}, {});
  }
};

void PrintScenario() {
  std::printf("%s\n", orion::RenderFigure8Matrix().c_str());
  Fig9 f;
  TxnId t1 = f.db.locks().Begin();
  TxnId t2 = f.db.locks().Begin();
  TxnId t3 = f.db.locks().Begin();
  Status ex1 =
      f.db.protocol().LockComposite(t1, f.inst_i, /*write=*/true).status();
  Status ex2 =
      f.db.protocol().LockComposite(t2, f.inst_k, /*write=*/false).status();
  Status ex3 =
      f.db.protocol().LockComposite(t3, f.inst_j, /*write=*/true).status();
  std::printf("Figure 9 replay:\n");
  std::printf("  example 1 (update composite at Instance[i]): %s\n",
              ex1.ok() ? "granted" : ex1.ToString().c_str());
  std::printf("  example 2 (read composite at Instance[k]):   %s   "
              "[paper: compatible with 1]\n",
              ex2.ok() ? "granted" : ex2.ToString().c_str());
  std::printf("  example 3 (update composite at Instance[j]): %s\n",
              ex3.ok() ? "granted" : ex3.ToString().c_str());
  std::printf("  [paper: example 3 is incompatible with both 1 and 2]\n\n");
}

void BM_SharedCompositeReadCycle(benchmark::State& state) {
  Fig9 f;
  for (auto _ : state) {
    TxnId txn = f.db.locks().Begin();
    Status s = f.db.protocol().LockComposite(txn, f.inst_k, false).status();
    benchmark::DoNotOptimize(s);
    (void)f.db.locks().Release(txn);
  }
}
BENCHMARK(BM_SharedCompositeReadCycle)->Iterations(20000);

void BM_ReaderCapacityExclusiveVsShared(benchmark::State& state) {
  // How many concurrent composite lockers (1 writer + k readers) can the
  // class-level modes admit?  With exclusive references the writer and all
  // readers coexist (IXO/ISO); with shared references the writer excludes
  // the readers (IXOS/ISOS).  The counter reports admitted lockers per
  // round; the time covers the admission attempts.
  const bool shared = state.range(0) == 1;
  Fig9 f;
  // Writer and readers always target *different* composite objects that
  // share component class C; only the reference kind differs.
  const Uid writer_root = shared ? f.inst_j : f.inst_i;
  const Uid reader_root = shared ? f.inst_k : f.inst_i2;
  uint64_t admitted = 0, rounds = 0;
  for (auto _ : state) {
    std::vector<TxnId> txns;
    TxnId writer = f.db.locks().Begin();
    txns.push_back(writer);
    if (f.db.protocol().LockComposite(writer, writer_root, true).ok()) {
      ++admitted;
    }
    for (int r = 0; r < 4; ++r) {
      TxnId reader = f.db.locks().Begin();
      txns.push_back(reader);
      // Readers of a *different* composite that shares the class C.
      if (f.db.protocol().LockComposite(reader, reader_root, false).ok()) {
        ++admitted;
      }
    }
    ++rounds;
    for (TxnId t : txns) {
      (void)f.db.locks().Release(t);
    }
  }
  state.counters["admitted_per_round"] =
      static_cast<double>(admitted) / static_cast<double>(rounds);
}
BENCHMARK(BM_ReaderCapacityExclusiveVsShared)
    ->Arg(0)  // exclusive-reference component class
    ->Arg(1)  // shared-reference component class
    ->Iterations(5000);

}  // namespace
}  // namespace orion::bench

int main(int argc, char** argv) {
  orion::bench::PrintScenario();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
