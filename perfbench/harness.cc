// The closed-loop harness every workload shares: the client threads and
// their phases, the end-to-end metrics, and the per-layer metrics.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "workloads.h"

namespace perfbench {

namespace {

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

void SleepFor(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/// Adds every per-layer metric; a layer the workload does not reach reads 0.
void AddPerLayer(RunResult& r, const LayerInputs& in) {
  const Delta& d = *in.delta;
  auto dur = DurationsUs(in.tracers);
  auto of = [&dur](Name n) -> const std::vector<double>& { return dur[n]; };
  auto count = [&dur](std::initializer_list<Name> names) {
    double n = 0;
    for (Name name : names) {
      n += static_cast<double>(dur[name].size());
    }
    return n;
  };

  // One pass over the span lists for the values that need a span's items
  // or its parent.
  std::vector<double> get_ns;
  std::vector<double> commit_self_us;
  std::vector<double> txn_cross_us;
  std::vector<double> txn_single_us;
  double objects_read = 0;
  for (const Tracer* t : in.tracers) {
    const std::vector<Span>& spans = t->spans();
    std::vector<int> closures(spans.size() + 1, 0);
    std::vector<int64_t> closure_ns(spans.size() + 1, 0);
    for (const Span& s : spans) {
      const int64_t ns = s.end_ns - s.start_ns;
      switch (s.name) {
        case Name::kGet:
          if (s.items > 0) {
            get_ns.push_back(static_cast<double>(ns) / s.items);
          }
          break;
        case Name::kComponentsOf:
        case Name::kAncestorsOf:
          objects_read += s.items;
          break;
        case Name::kSessionClosure:
          ++closures[s.parent];
          closure_ns[s.parent] += ns;
          break;
        case Name::kRpcCall: {
          const Name op = spans[s.parent - 1].name;
          if (op == Name::kOpWireTxnCross) {
            txn_cross_us.push_back(static_cast<double>(ns) / 1000.0);
          } else if (op == Name::kOpWireTxnSingle) {
            txn_single_us.push_back(static_cast<double>(ns) / 1000.0);
          }
          break;
        }
        default:
          break;
      }
    }
    // Commit self time: a Run that needed exactly one closure attempt,
    // minus that attempt (no backoff inside).
    for (const Span& s : spans) {
      if (s.name == Name::kSessionRun && closures[s.id] == 1) {
        commit_self_us.push_back(
            static_cast<double>(s.end_ns - s.start_ns - closure_ns[s.id]) /
            1000.0);
      }
    }
  }

  // query
  AddQuantiles(r, "query.components_of_us", of(Name::kComponentsOf), "us");
  AddQuantiles(r, "query.ancestors_of_us", of(Name::kAncestorsOf), "us");
  AddQuantiles(r, "query.get_ns", get_ns, "ns", false);
  r.Add("query.objects_per_read",
        Ratio(objects_read, count({Name::kOpRead, Name::kOpAncestors,
                                   Name::kOpCompositeRead})),
        "objects/read");

  // core (MVCC) and object (reclaim)
  AddQuantiles(r, "mvcc.read_begin_us", of(Name::kReadBegin), "us", false);
  r.Add("mvcc.records_per_object",
        Ratio(d.GaugeSum("mvcc.records"), d.GaugeSum("mvcc.chains")),
        "records/object");
  r.Add("mvcc.chain_length.mean", d.HistMean("mvcc.chain_length"),
        "records");
  const double passes = d.Count("reclaim.passes");
  r.Add("reclaim.passes_per_s", Ratio(passes, in.window_s), "1/s");
  r.Add("reclaim.trimmed_per_pass",
        Ratio(d.Count("mvcc.records_trimmed"), passes), "records/pass");
  r.Add("reclaim.pass_ms", in.reclaim_pass_ms, "ms");

  // core (session and commit)
  const double runs = count({Name::kSessionRun});
  AddQuantiles(r, "session.run_us", of(Name::kSessionRun), "us");
  AddQuantiles(r, "session.closure_us", of(Name::kSessionClosure), "us",
               false);
  r.Add("session.attempts_per_run",
        Ratio(count({Name::kSessionClosure}), runs), "attempts/run");
  r.Add("session.backoff_us_per_run",
        Ratio(d.Count("session.backoff_us"),
              d.Count("session.commits") + d.Count("session.failures")),
        "us/run");
  AddQuantiles(r, "core.commit_self_us", commit_self_us, "us");
  r.Add("txn.journal_size.mean", d.HistMean("txn.journal_size"), "objects");

  // lock (per 2PL transaction attempt: txn.begins)
  const double txns = d.Count("txn.begins");
  AddQuantiles(r, "lock.composite_read_us", of(Name::kCompositeLock), "us",
               false);
  AddQuantiles(r, "txn.set_us", of(Name::kTxnSet), "us", false);
  r.Add("lock.acquisitions_per_txn",
        Ratio(d.Count("lock.acquisitions"), txns), "locks/txn");
  r.Add("lock.waits_per_txn", Ratio(d.Count("lock.waits"), txns),
        "waits/txn");
  r.Add("lock.wait_us_per_txn",
        Ratio(static_cast<double>(d.Hist("lock.wait_us").sum), txns),
        "us/txn");
  r.Add("lock.deadlocks_per_ktxn",
        Ratio(1000 * d.Count("lock.deadlocks"), txns), "1/ktxn");
  r.Add("lock.timeouts_per_ktxn",
        Ratio(1000 * d.Count("lock.timeouts"), txns), "1/ktxn");

  // object (rules)
  AddQuantiles(r, "object.make_us", of(Name::kMake), "us", false);
  AddQuantiles(r, "object.delete_us", of(Name::kDelete), "us", false);

  // rpc (per request frame the server decoded: rpc.requests)
  const double requests = d.Count("rpc.requests");
  const std::vector<double>& calls = of(Name::kRpcCall);
  AddQuantiles(r, "rpc.call_us", calls, "us");
  const double server_p50 = HistQuantile(d.Hist("rpc.request_us"), 0.5);
  r.Add("rpc.server_us.p50", server_p50, "us",
        d.Hist("rpc.request_us").count);
  r.Add("rpc.transport_us.p50",
        calls.empty() ? 0 : std::max(0.0, Quantile(calls, 0.5) - server_p50),
        "us", calls.size());
  r.Add("rpc.encode_ns", Quantile(in.encode_ns, 0.5), "ns",
        in.encode_ns.size());
  std::vector<double> decode_ns = of(Name::kRpcDecode);
  for (double& v : decode_ns) {
    v *= 1000.0;
  }
  r.Add("rpc.decode_ns", Quantile(decode_ns, 0.5), "ns", decode_ns.size());
  r.Add("rpc.bytes_in_per_op", Ratio(d.Count("rpc.bytes_in"), requests),
        "B/op");
  r.Add("rpc.bytes_out_per_op", Ratio(d.Count("rpc.bytes_out"), requests),
        "B/op");
  r.Add("rpc.shed_frac", Ratio(d.Count("rpc.shed"), requests), "ratio");
  r.Add("rpc.client_retries_per_op",
        Ratio(static_cast<double>(in.client_retries),
              static_cast<double>(in.wire_calls)),
        "retries/op");

  // cell (per cluster transaction: cell.txn.single + cell.txn.cross)
  const double cross = d.Count("cell.txn.cross");
  r.Add("cell.txn_cross_frac", Ratio(cross, cross + d.Count("cell.txn.single")),
        "ratio");
  AddQuantiles(r, "cell.txn_cross_us", txn_cross_us, "us", false);
  AddQuantiles(r, "cell.txn_single_us", txn_single_us, "us", false);
  r.Add("cell.2pc_prepare_us.p50",
        HistQuantile(d.Hist("cell.2pc.prepare_us"), 0.5), "us",
        d.Hist("cell.2pc.prepare_us").count);

  // wal (per cell commit: txn.commits)
  const double commits = d.Count("txn.commits");
  r.Add("wal.fsyncs_per_commit", Ratio(d.Count("wal.fsyncs"), commits),
        "fsyncs/commit");
  r.Add("wal.group_size.mean", d.HistMean("wal.group_size"), "records");
  r.Add("wal.fsync_us.p50", HistQuantile(d.Hist("wal.fsync_us"), 0.5), "us",
        d.Hist("wal.fsync_us").count);
  r.Add("wal.bytes_per_commit", Ratio(in.wal_bytes, commits), "B/commit");
  r.Add("wal.recovery_s", in.recovery_s, "s");

  // The benchmark's own tracing cost.
  r.Add("trace.overhead_frac",
        Ratio(in.untraced_ops_s - in.traced_ops_s, in.untraced_ops_s),
        "ratio");
}

}  // namespace

Windows RunLoop(const Options& opt, const std::vector<ClientState*>& clients,
                int trace_every,
                const std::function<std::pair<bool, bool>(int)>& op,
                const std::function<void(bool)>& around_traced) {
  const double window_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const int slices = std::max(1, static_cast<int>(window_s / kSliceS + 0.5));
  std::atomic<int> phase{kWarm};
  std::atomic<int> slice{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients.size(); ++i) {
    ClientState* c = clients[i];
    c->slices.assign(slices, ClientLog{});
    if (opt.trace) {
      c->tracer.Reserve(1 << 20);
    }
    threads.emplace_back([&, c, i] {
      if (c->cpu >= 0) {
        PinThread(c->cpu);
      }
      uint64_t n = 0;
      for (;;) {
        const int ph = phase.load(std::memory_order_acquire);
        if (ph == kStop) {
          return;
        }
        ClientLog* log = ph == kUntraced ? &c->slices[slice.load()]
                         : ph == kTraced ? &c->traced
                                         : nullptr;
        c->tracer.on = ph == kTraced && n++ % trace_every == 0;
        if (c->tracer.on) {
          c->tracer.NextOp();
        }
        const int64_t t0 = NowNs();
        const auto [is_read, ok] = op(static_cast<int>(i));
        if (log != nullptr) {
          (is_read ? log->read_us : log->write_us)
              .push_back(static_cast<double>(NowNs() - t0) / 1000.0);
          ++log->attempted;
          log->failed += ok ? 0 : 1;
        }
      }
    });
  }

  Windows w;
  // Warm-up: caches fill, the reclaimer cycles, and the first updates
  // replace freshly populated records (read_large's throughput fell over
  // its first seconds).
  SleepFor(opt.smoke ? 0.2 : 3.0);
  int64_t t0 = NowNs();
  double cpu0 = CpuUs();
  phase.store(kUntraced, std::memory_order_release);
  for (int k = 0; k < slices; ++k) {
    SleepFor(window_s / slices);
    slice.store(std::min(k + 1, slices - 1));
    if (k + 1 == slices) {
      phase.store(kWarm, std::memory_order_release);
    }
    const int64_t t1 = NowNs();
    const double cpu1 = CpuUs();
    w.slice_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    w.slice_cpu_us.push_back(cpu1 - cpu0);
    w.untraced_s += w.slice_s.back();
    t0 = t1;
    cpu0 = cpu1;
  }
  w.peak_rss_mb = PeakRssMb();
  if (opt.trace) {
    around_traced(true);
    t0 = NowNs();
    phase.store(kTraced, std::memory_order_release);
    SleepFor(window_s);
    phase.store(kStop, std::memory_order_release);
    w.traced_s = SecondsSince(t0);
    around_traced(false);
  }
  phase.store(kStop, std::memory_order_release);
  for (std::thread& t : threads) {
    t.join();
  }
  return w;
}

namespace {

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Done(const ClientLog& l) {
  return static_cast<double>(l.attempted - l.failed);
}

/// The end-to-end metrics: each is the median of its per-slice values.
void AddEndToEnd(RunResult& r, const std::vector<ClientState*>& clients,
                 const Windows& w, double setup_s) {
  std::vector<double> tput, rp50, rp90, rp99, wp50, wp90, wp99, cpu;
  size_t reads = 0;
  size_t writes = 0;
  for (size_t k = 0; k < w.slice_s.size(); ++k) {
    ClientLog all;
    for (const ClientState* c : clients) {
      const ClientLog& l = c->slices[k];
      all.read_us.insert(all.read_us.end(), l.read_us.begin(), l.read_us.end());
      all.write_us.insert(all.write_us.end(), l.write_us.begin(),
                          l.write_us.end());
      all.attempted += l.attempted;
      all.failed += l.failed;
    }
    tput.push_back(Done(all) / w.slice_s[k]);
    rp50.push_back(Quantile(all.read_us, 0.50));
    rp90.push_back(Quantile(all.read_us, 0.90));
    rp99.push_back(Quantile(all.read_us, 0.99));
    wp50.push_back(Quantile(all.write_us, 0.50));
    wp90.push_back(Quantile(all.write_us, 0.90));
    wp99.push_back(Quantile(all.write_us, 0.99));
    cpu.push_back(Ratio(w.slice_cpu_us[k], Done(all)));
    reads += all.read_us.size();
    writes += all.write_us.size();
    r.attempted += all.attempted;
    r.failed += all.failed;
  }
  r.Add("throughput_ops_s", Median(tput), "1/s", r.attempted);
  r.Add("read_p50_us", Median(rp50), "us", reads);
  r.Add("read_p90_us", Median(rp90), "us", reads);
  r.Add("read_p99_us", Median(rp99), "us", reads);
  r.Add("write_p50_us", Median(wp50), "us", writes);
  r.Add("write_p90_us", Median(wp90), "us", writes);
  r.Add("write_p99_us", Median(wp99), "us", writes);
  r.Add("cpu_us_per_op", Median(cpu), "us", r.attempted);
  r.Add("failed_frac",
        Ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
        "ratio", r.attempted);
  r.Add("setup_s", setup_s, "s");
  r.Add("peak_rss_mb", w.peak_rss_mb, "MiB");
}

}  // namespace

std::vector<int> AllowedCpus() {
  // Read once, before any thread is pinned.
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) {
          out.push_back(c);
        }
      }
    }
    return out;
  }();
  return cpus;
}

void PinThread(int cpu, int tid) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= 0) {
    CPU_SET(cpu, &set);
  } else {
    for (int c : AllowedCpus()) {
      CPU_SET(c, &set);
    }
  }
  sched_setaffinity(tid, sizeof(set), &set);
}

std::vector<int> ThreadIds() {
  std::vector<int> tids;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    tids.push_back(std::atoi(e.path().filename().c_str()));
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

double MedianMs(const std::function<void()>& fn) {
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    const int64_t t0 = NowNs();
    fn();
    ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  return Median(std::move(ms));
}

void Finish(const Options& opt, const std::vector<ClientState*>& clients,
            const Windows& w, std::vector<double> setup_s, LayerInputs in,
            RunResult& r) {
  AddEndToEnd(r, clients, w, Median(std::move(setup_s)));
  r.Fact("slices", std::to_string(w.slice_s.size()) + " x " +
                       std::to_string(static_cast<int>(kSliceS * 1000)) +
                       " ms");
  if (!opt.trace) {
    return;
  }
  double traced_done = 0;
  for (const ClientState* c : clients) {
    in.tracers.push_back(&c->tracer);
    traced_done += Done(c->traced);
    r.attempted += c->traced.attempted;
    r.failed += c->traced.failed;
  }
  double untraced_done = 0;
  for (const ClientState* c : clients) {
    for (const ClientLog& l : c->slices) {
      untraced_done += Done(l);
    }
  }
  in.window_s = w.traced_s;
  in.untraced_ops_s = Ratio(untraced_done, w.untraced_s);
  in.traced_ops_s = Ratio(traced_done, w.traced_s);
  AddPerLayer(r, in);
  const std::string path = opt.out_dir + "/spans-" + opt.workload + ".tsv";
  if (!DumpSpans(path, in.tracers)) {
    r.gate_failures.push_back("could not write " + path);
  }
  r.Fact("span_dump", path);
}

}  // namespace perfbench
