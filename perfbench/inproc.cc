// read_large and update_hot: closed-loop clients driving one in-process
// Database through Session::Run and ReadTransaction.

#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "base.h"
#include "core/session.h"
#include "query/traversal.h"
#include "workloads.h"

namespace perfbench {

using orion::Database;
using orion::ReadTransaction;
using orion::Session;
using orion::Status;
using orion::TransactionContext;
using orion::Uid;
using orion::Value;

namespace {

struct Config {
  bool hot = false;      // update_hot's mix; read_large's otherwise
  int roots = 0;
  int threads = 0;
  int hot_roots = 0;     // update_hot: the hot set, roots [0, hot_roots)
  uint32_t hot_pct = 0;  // update_hot: share of transactions on the hot set
  int setups = 0;        // set-ups timed (odd); the last one is measured
  int trace_every = 1;   // traced window: one op in this many is traced
  bool pin = false;      // clients and the reclaimer each on a core of its own
};

Config ConfigFor(const Options& opt) {
  // Clients leave one core to the engine's background reclaimer, whose
  // passes over a large base run nearly back to back: with a client on
  // every core, the p99s measured the scheduler (80 us in one run, 3 ms in
  // the next on a 4-core host).
  const int threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 2);
  if (opt.workload == "read_large") {
    // Its readers wait behind the reclaimer's shard sweeps, which run
    // nearly back to back on a base this size; with each client and the
    // reclaimer pinned to a core of its own, runs were ~10% faster than
    // unpinned ones on a 4-core host.
    return Config{.roots = opt.smoke ? 512 : 16384,
                  .threads = threads,
                  .setups = 3,
                  .trace_every = 8,
                  .pin = true};
  }
  return Config{.hot = true,
                .roots = opt.smoke ? 128 : 1024,
                .threads = threads,
                .hot_roots = 8,
                .hot_pct = 80,
                .setups = 5,
                .trace_every = 4};
}

constexpr uint32_t kSharePct = 10;

/// One database with its generated base.
struct Instance {
  std::unique_ptr<Database> db;
  Base base;
};

/// `reclaimer_cpu` >= 0 pins the database's reclaimer thread, which
/// inherits the affinity of the thread that constructs the database.
Instance Setup(const Config& cfg, uint64_t seed, int reclaimer_cpu) {
  PinThread(reclaimer_cpu);
  Instance in{std::make_unique<Database>(), {}};
  PinThread(-1);
  for (const orion::ClassSpec& spec : Schema()) {
    if (!in.db->MakeClass(spec).ok()) {
      std::fprintf(stderr, "perfbench: schema setup failed\n");
      std::exit(2);
    }
  }
  Session session(in.db.get());
  auto run = [&session](const auto& fn) { return session.Run(fn); };
  const Status s = Populate<TransactionContext>(Plan(cfg.roots, kSharePct, seed),
                                                run, &in.base);
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: populate failed: %s\n",
                 s.ToString().c_str());
    std::exit(2);
  }
  return in;
}

/// One closed-loop client: its own Session and generator.
struct Client : ClientState {
  Client(Database* db, uint64_t seed, uint32_t thread)
      : ClientState(thread), session(db), rng(seed) {}

  Session session;
  Rng rng;
  // update_hot churn: leaves this client made and has not deleted yet.
  std::vector<std::pair<Uid, int>> made;
  bool make_next = true;
  int64_t value = 0;
};

class Runner {
 public:
  Runner(const Config& cfg, Instance& in) : cfg_(cfg), db_(*in.db), b_(in.base) {}

  /// Runs one op; returns (is_read, ok).
  std::pair<bool, bool> Op(Client& c) {
    const int r = PickRoot(c);
    const uint64_t p = c.rng.Below(100);
    if (!cfg_.hot) {
      if (p < 60) {
        return {true, ReadComposite(c, r)};
      }
      if (p < 90) {
        return {true, Ancestors(c, r)};
      }
      return {false, Update(c, r, 1)};
    }
    if (p < 60) {
      return {false, Update(c, r, 3)};
    }
    if (p < 85) {
      return {true, LockedRead(c, r)};
    }
    return {false, Churn(c, r)};
  }

 private:
  int PickRoot(Client& c) {
    if (cfg_.hot && c.rng.Percent(cfg_.hot_pct)) {
      return static_cast<int>(c.rng.Below(cfg_.hot_roots));
    }
    return static_cast<int>(c.rng.Below(cfg_.roots));
  }

  /// MVCC: ComponentsOf(root), then Get of each component.
  bool ReadComposite(Client& c, int r) {
    Scope op(c.tracer, Name::kOpRead);
    std::optional<ReadTransaction> rt;
    {
      Scope s(c.tracer, Name::kReadBegin);
      rt.emplace(&db_);
    }
    bool ok = true;
    std::vector<Uid> comps;
    {
      Scope s(c.tracer, Name::kComponentsOf);
      auto got = rt->ComponentsOf(b_.roots[r]);
      ok = got.ok();
      if (ok) {
        comps = std::move(*got);
      }
      s.set_items(comps.size());
    }
    {
      Scope s(c.tracer, Name::kGet);
      for (Uid u : comps) {
        ok = rt->Get(u).ok() && ok;
      }
      s.set_items(comps.size());
    }
    Scope s(c.tracer, Name::kReadEnd);
    rt.reset();
    return ok;
  }

  /// MVCC: AncestorsOf(a random leaf of root r) over the snapshot view,
  /// through the reverse references (§2.4).
  bool Ancestors(Client& c, int r) {
    Scope op(c.tracer, Name::kOpAncestors);
    const Uid leaf =
        b_.Member(r, 1 + kFanout + c.rng.Below(kFanout * kFanout));
    std::optional<ReadTransaction> rt;
    {
      Scope s(c.tracer, Name::kReadBegin);
      rt.emplace(&db_);
    }
    bool ok = true;
    {
      Scope s(c.tracer, Name::kAncestorsOf);
      auto got = orion::AncestorsOf(rt->view(), leaf);
      ok = got.ok() && !got->empty();
      s.set_items(ok ? got->size() : 0);
    }
    Scope s(c.tracer, Name::kReadEnd);
    rt.reset();
    return ok;
  }

  /// 2PL: set `W` on `n` distinct objects of root r's hierarchy.
  bool Update(Client& c, int r, int n) {
    Scope op(c.tracer, Name::kOpUpdate);
    int picked[kObjectsPerRoot];
    for (int i = 0; i < kObjectsPerRoot; ++i) {
      picked[i] = i;
    }
    for (int i = 0; i < n; ++i) {  // partial Fisher-Yates
      std::swap(picked[i], picked[i + c.rng.Below(kObjectsPerRoot - i)]);
    }
    const int64_t v = ++c.value;
    return Run(c, [&](TransactionContext& txn) -> Status {
      for (int i = 0; i < n; ++i) {
        Scope s(c.tracer, Name::kTxnSet);
        ORION_RETURN_IF_ERROR(
            txn.SetAttribute(b_.Member(r, picked[i]), kWeight,
                             Value::Integer(v)));
      }
      return Status::Ok();
    });
  }

  /// 2PL composite read (§7): lock the composite for reading, list its
  /// components, read each.
  bool LockedRead(Client& c, int r) {
    Scope op(c.tracer, Name::kOpCompositeRead);
    return Run(c, [&](TransactionContext& txn) -> Status {
      {
        Scope s(c.tracer, Name::kCompositeLock);
        ORION_RETURN_IF_ERROR(txn.LockCompositeForRead(b_.roots[r]));
      }
      std::vector<Uid> comps;
      {
        Scope s(c.tracer, Name::kComponentsOf);
        ORION_ASSIGN_OR_RETURN(comps,
                               orion::ComponentsOf(db_.objects(), b_.roots[r]));
        s.set_items(comps.size());
      }
      Scope s(c.tracer, Name::kTxnRead);
      s.set_items(comps.size());
      for (Uid u : comps) {
        ORION_RETURN_IF_ERROR(txn.Read(u).status());
      }
      return Status::Ok();
    });
  }

  /// Structural churn: alternately make a leaf under one of root r's
  /// Components, and delete a leaf this client made earlier.
  bool Churn(Client& c, int r) {
    if (c.make_next || c.made.empty()) {
      Scope op(c.tracer, Name::kOpMake);
      const auto& mids = b_.mids_of_root[r];
      const int m = mids[c.rng.Below(mids.size())];
      Uid leaf;
      const bool ok = Run(c, [&](TransactionContext& txn) -> Status {
        Scope s(c.tracer, Name::kMake);
        ORION_ASSIGN_OR_RETURN(
            leaf, txn.Make(kLeaf, {{b_.mids[m], "Leaves"}},
                           {{kWeight, Value::Integer(0)}}));
        return Status::Ok();
      });
      if (ok) {
        c.made.emplace_back(leaf, m);
        c.make_next = false;
      }
      return ok;
    }
    Scope op(c.tracer, Name::kOpDelete);
    const size_t i = c.rng.Below(c.made.size());
    const Uid leaf = c.made[i].first;
    const bool ok = Run(c, [&](TransactionContext& txn) -> Status {
      Scope s(c.tracer, Name::kDelete);
      return txn.Delete(leaf);
    });
    if (ok) {
      c.made[i] = c.made.back();
      c.made.pop_back();
      c.make_next = true;
    }
    return ok;
  }

  template <class Fn>
  bool Run(Client& c, const Fn& body) {
    Scope s(c.tracer, Name::kSessionRun);
    return c.session
        .Run([&](TransactionContext& txn) {
          Scope attempt(c.tracer, Name::kSessionClosure);
          return body(txn);
        })
        .ok();
  }

  const Config& cfg_;
  Database& db_;
  const Base& b_;
};

}  // namespace

RunResult RunInProcess(const Options& opt) {
  const Config cfg = ConfigFor(opt);
  RunResult result;

  const std::vector<int> cpus = AllowedCpus();
  const bool pin = cfg.pin && static_cast<int>(cpus.size()) > cfg.threads;
  std::vector<double> setup_s;
  Instance inst;
  for (int i = 0; i < cfg.setups; ++i) {
    inst = Instance{};  // the previous base is freed outside the timing
    const int64_t t0 = NowNs();
    inst = Setup(cfg, opt.seed, pin ? cpus[cfg.threads] : -1);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  Database& db = *inst.db;

  Runner runner(cfg, inst);
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<ClientState*> states;
  for (int t = 0; t < cfg.threads; ++t) {
    clients.push_back(std::make_unique<Client>(
        &db, opt.seed * 1000003 + static_cast<uint64_t>(t) + 1, t));
    clients.back()->cpu = pin ? cpus[t] : -1;
    states.push_back(clients.back().get());
  }
  orion::obs::MetricsSnapshot s0;
  orion::obs::MetricsSnapshot s1;
  const Windows w = RunLoop(
      opt, states, cfg.trace_every,
      [&](int i) { return runner.Op(*clients[i]); },
      [&](bool start) { (start ? s0 : s1) = db.Stats(); });

  LayerInputs in;
  const Delta delta(s0, s1);
  in.delta = &delta;
  if (opt.trace) {
    in.reclaim_pass_ms = MedianMs([&db] { db.ReclaimOnce(); });
  }
  Finish(opt, states, w, setup_s, std::move(in), result);

  ExtraLeaves extra;
  for (auto& c : clients) {
    for (const auto& [leaf, m] : c->made) {
      extra[m].push_back(leaf);
    }
  }
  CheckFinalState(db, inst.base, extra, &result.gate_failures);

  result.Fact("client_threads", std::to_string(cfg.threads));
  result.Fact("roots", std::to_string(cfg.roots));
  result.Fact("objects", std::to_string(inst.base.objects()));
  result.Fact("share_pct", std::to_string(kSharePct));
  result.Fact("setups", std::to_string(cfg.setups));
  if (cfg.hot) {
    result.Fact("hot_roots", std::to_string(cfg.hot_roots));
    result.Fact("hot_pct", std::to_string(cfg.hot_pct));
  }
  result.Fact("trace_every", std::to_string(cfg.trace_every));
  std::string pinned = "no";
  if (pin) {
    pinned = "clients on cpu";
    for (int t = 0; t < cfg.threads; ++t) {
      pinned += " " + std::to_string(cpus[t]);
    }
    pinned += ", reclaimer on cpu " + std::to_string(cpus[cfg.threads]);
  }
  result.Fact("pinned", pinned);
  return result;
}

}  // namespace perfbench
