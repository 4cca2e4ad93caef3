// wire_durable: two unbatched rpc::Client connections driving a durable
// 2-cell Cluster through rpc::Server, with the engine's default group
// commit.

#include <sys/vfs.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <memory>
#include <thread>
#include <unordered_map>

#include "base.h"
#include "cell/cluster.h"
#include "cell/cluster_session.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "rpc/wire.h"
#include "workloads.h"

namespace perfbench {

namespace fs = std::filesystem;
using orion::Cluster;
using orion::Status;
using orion::Uid;
using orion::Value;
namespace rpc = orion::rpc;

namespace {

constexpr int kConnections = 2;
constexpr int kSetups = 5;
constexpr uint32_t kSharePct = 10;
constexpr int kTraceEvery = 2;  // traced window: one op in this many

std::string FsName(const std::string& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL:
      return "ext4";
    case 0x01021994UL:
      return "tmpfs";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

double DirBytes(const std::string& dir) {
  double total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) {
      total += static_cast<double>(e.file_size(ec));
    }
  }
  return total;
}

void Die(const char* what, const Status& s) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, s.ToString().c_str());
  std::exit(2);
}

/// A durable cluster, its server, the generated base, and one connected
/// client per connection.
struct Instance {
  std::string dir;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<rpc::Server> server;
  std::vector<std::unique_ptr<rpc::Client>> clients;
  Base base;

  void Stop() {
    clients.clear();
    if (server != nullptr) {
      server->Stop();
    }
    server.reset();
    cluster.reset();
  }
};

/// The server's thread for the connection just made: the one thread that
/// is not in `before`, once the accept thread has started it.
int NewThread(const std::vector<int>& before) {
  for (int i = 0; i < 2000; ++i) {
    std::vector<int> added;
    const std::vector<int> now = ThreadIds();
    std::set_difference(now.begin(), now.end(), before.begin(), before.end(),
                        std::back_inserter(added));
    if (added.size() == 1) {
      return added[0];
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return 0;
}

/// The base is built before durability is enabled; EnableDurability then
/// checkpoints it, so the log holds only the measured run's commits.
///
/// With `cpus` set, every request of connection c is a ping-pong between
/// its client thread and its server thread on one core, cpus[c], and the
/// cells' reclaimers and the accept thread share cpus[kConnections].  A
/// wake-up on an idle core of a virtual machine waits for the host: over
/// ten unpinned runs on a 4-core guest, throughput and read p90 spread by
/// 34% and 47% of their medians; pinned, by 12% and 1.4%.
void Setup(int roots, uint64_t seed, const std::string& dir,
           const std::vector<int>& cpus, Instance* in) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  in->dir = dir;
  const bool pin = !cpus.empty();
  PinThread(pin ? cpus[kConnections] : -1);  // inherited by the reclaimers
  in->cluster = std::make_unique<Cluster>(2);
  for (const orion::ClassSpec& spec : Schema()) {
    if (auto s = in->cluster->MakeClass(spec); !s.ok()) {
      Die("schema setup", s.status());
    }
  }
  orion::ClusterSession session(in->cluster.get());
  auto run = [&session](const auto& fn) { return session.Run(fn); };
  if (Status s = Populate<orion::ClusterTransaction>(
          Plan(roots, kSharePct, seed), run, &in->base);
      !s.ok()) {
    Die("populate", s);
  }
  if (Status s = in->cluster->EnableDurability(dir); !s.ok()) {
    Die("enable durability", s);
  }
  in->server = std::make_unique<rpc::Server>(in->cluster.get());
  if (Status s = in->server->Start(); !s.ok()) {
    Die("server start", s);
  }
  PinThread(-1);
  for (int c = 0; c < kConnections; ++c) {
    const std::vector<int> before = ThreadIds();
    auto client = rpc::Client::Connect("127.0.0.1", in->server->port());
    if (!client.ok()) {
      Die("connect", client.status());
    }
    in->clients.push_back(std::move(*client));
    if (pin) {
      const int tid = NewThread(before);
      if (tid == 0) {
        std::fprintf(stderr, "perfbench: no server thread for connection\n");
        std::exit(2);
      }
      PinThread(cpus[c], tid);
    }
  }
}

orion::CellTag CellOf(Uid u) {
  return static_cast<orion::CellTag>(u.raw >> orion::kCellTagShift);
}

/// One connection's closed loop.  It owns the roots whose (index / 2) has
/// its parity, which gives it roots in both cells, and writes only objects
/// of its own roots, so its last acknowledged value of each is well defined.
/// Ops go through `Client::Call` with the wire.h request builders and
/// response parsers, exactly as `Client::Get/Set/Txn` do, so that the
/// benchmark can time the codec on the requests it sends.
struct Worker : ClientState {
  Worker(rpc::Client* client, const Base& base, int index, uint64_t seed)
      : ClientState(index), client(client), base(base), index(index),
        rng(seed) {
    for (int r = 0; r < static_cast<int>(base.roots.size()); ++r) {
      if ((r / 2) % kConnections == index) {
        roots.push_back(r);
      }
    }
  }

  rpc::Client* client;
  const Base& base;
  int index;
  Rng rng;
  std::vector<int> roots;
  std::unordered_map<uint64_t, int64_t> acked;  // uid -> last acked W
  int64_t counter = 0;
  // Traced window only.
  std::vector<double> encode_ns;
  uint64_t retries = 0;
  uint64_t calls = 0;

  Uid RandomObject(int r) {
    return base.Member(r, static_cast<int>(rng.Below(kObjectsPerRoot)));
  }

  void Ack(Uid u, int64_t v, bool ok) {
    if (ok) {
      acked[u.raw] = v;
    } else {
      acked.erase(u.raw);  // outcome unknown: no longer checkable
    }
  }

  /// Times the request builder and, outside the op, EncodeFrame on the same
  /// request (the client frames its own copy inside Call).
  template <class Build>
  rpc::Request Encode(const Build& build, int64_t* builder_ns) {
    Scope s(tracer, Name::kRpcEncode);
    const int64_t t0 = tracer.on ? NowNs() : 0;
    rpc::Request req = build();
    if (tracer.on) {
      *builder_ns = NowNs() - t0;
    }
    return req;
  }

  orion::Result<std::string> Call(const rpc::Request& req) {
    Scope s(tracer, Name::kRpcCall);
    const uint64_t retries0 = client->stats().retries;
    auto payload = client->Call(req);
    if (tracer.on) {
      retries += client->stats().retries - retries0;
      ++calls;
    }
    return payload;
  }

  /// Runs one op; returns (is_read, ok).
  std::pair<bool, bool> Op() {
    const int r = roots[rng.Below(roots.size())];
    const uint64_t p = rng.Below(100);
    int64_t builder_ns = 0;
    rpc::Request req;
    bool is_read = false;
    bool ok = false;
    if (p < 65) {
      Scope op(tracer, Name::kOpWireGet);
      const Uid u = RandomObject(r);
      req = Encode([&] { return rpc::GetRequest(u, kWeight); }, &builder_ns);
      auto payload = Call(req);
      Scope s(tracer, Name::kRpcDecode);
      ok = payload.ok() && rpc::ParseValueResponse(*payload).ok();
      is_read = true;
    } else if (p < 90) {
      Scope op(tracer, Name::kOpWireSet);
      const Uid u = RandomObject(r);
      const int64_t v = Next();
      req = Encode([&] { return rpc::SetRequest(u, kWeight, Value::Integer(v)); },
                   &builder_ns);
      ok = Call(req).ok();
      Ack(u, v, ok);
    } else {
      int picked[4];
      int n = 0;
      while (n < 4) {  // four distinct roots of this connection
        const int root = roots[rng.Below(roots.size())];
        if (std::find(picked, picked + n, root) == picked + n) {
          picked[n++] = root;
        }
      }
      Uid targets[4];
      for (int i = 0; i < 4; ++i) {
        targets[i] = RandomObject(picked[i]);
      }
      bool cross = false;
      for (int i = 1; i < 4; ++i) {
        cross = cross || CellOf(targets[i]) != CellOf(targets[0]);
      }
      Scope op(tracer, cross ? Name::kOpWireTxnCross : Name::kOpWireTxnSingle);
      const int64_t v = Next();
      req = Encode(
          [&] {
            std::vector<rpc::Request> subops;
            for (const Uid& u : targets) {
              subops.push_back(rpc::SetRequest(u, kWeight, Value::Integer(v)));
            }
            return rpc::TxnRequest(subops);
          },
          &builder_ns);
      auto payload = Call(req);
      {
        Scope s(tracer, Name::kRpcDecode);
        ok = payload.ok() && rpc::ParseTxnResponse(*payload).ok();
      }
      for (const Uid& u : targets) {
        Ack(u, v, ok);
      }
    }
    if (tracer.on) {
      const int64_t t0 = NowNs();
      const std::string frame = rpc::EncodeFrame(
          rpc::kKindRequest, static_cast<uint16_t>(req.op), 1, {}, req.payload);
      encode_ns.push_back(static_cast<double>(builder_ns + NowNs() - t0));
    }
    return {is_read, ok};
  }

  int64_t Next() { return (static_cast<int64_t>(index + 1) << 32) | ++counter; }
};

}  // namespace

RunResult RunWire(const Options& opt) {
  const int roots = opt.smoke ? 128 : 1024;
  RunResult result;

  std::vector<int> cpus = AllowedCpus();
  if (static_cast<int>(cpus.size()) <= kConnections) {
    cpus.clear();  // too few cores to give each connection one
  }
  std::vector<double> setup_s;
  Instance inst;
  for (int i = 0; i < kSetups; ++i) {
    if (inst.cluster != nullptr) {
      inst.Stop();
      std::error_code ec;
      fs::remove_all(inst.dir, ec);
    }
    inst = Instance{};
    const int64_t t0 = NowNs();
    Setup(roots, opt.seed, opt.out_dir + "/wal-" + opt.workload, cpus, &inst);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<ClientState*> states;
  for (int c = 0; c < kConnections; ++c) {
    workers.push_back(std::make_unique<Worker>(
        inst.clients[c].get(), inst.base, c,
        opt.seed * 1000003 + static_cast<uint64_t>(c) + 1));
    workers.back()->cpu = cpus.empty() ? -1 : cpus[c];
    states.push_back(workers.back().get());
  }
  orion::obs::MetricsSnapshot s0;
  orion::obs::MetricsSnapshot s1;
  double wal0 = 0;
  double wal1 = 0;
  const Windows win = RunLoop(
      opt, states, kTraceEvery, [&](int i) { return workers[i]->Op(); },
      [&](bool start) {
        (start ? s0 : s1) = inst.cluster->Stats();
        (start ? wal0 : wal1) = DirBytes(inst.dir);
      });

  double reclaim_pass_ms = 0;
  if (opt.trace) {
    reclaim_pass_ms = MedianMs([&inst] {
      for (size_t c = 1; c <= inst.cluster->size(); ++c) {
        inst.cluster->cell(static_cast<orion::CellTag>(c)).db().ReclaimOnce();
      }
    });
  }

  // Recovery: a fresh cluster over the WAL directory must hold every
  // acknowledged write with its last acknowledged value.
  inst.Stop();
  double recovery_s = 0;
  {
    const int64_t r0 = NowNs();
    Cluster recovered(2);
    const Status rs = recovered.EnableDurability(inst.dir);
    recovery_s = static_cast<double>(NowNs() - r0) / 1e9;
    if (!rs.ok()) {
      result.gate_failures.push_back("durable: recovery failed: " +
                                     rs.ToString());
    }
    for (auto& w : workers) {
      if (!rs.ok()) {
        break;
      }
      GateDurable(
          w->acked,
          [&recovered](Uid u) -> int64_t {
            orion::Database* db = recovered.CellOf(u);
            if (db == nullptr) {
              return -1;
            }
            orion::ReadTransaction rt(db);
            auto obj = rt.Get(u);
            return obj.ok() ? (*obj)->Get(kWeight).integer() : -1;
          },
          &result.gate_failures);
    }
  }

  LayerInputs in;
  const Delta delta(s0, s1);
  in.delta = &delta;
  in.reclaim_pass_ms = reclaim_pass_ms;
  in.wal_bytes = wal1 - wal0;
  in.recovery_s = recovery_s;
  for (auto& w : workers) {
    in.encode_ns.insert(in.encode_ns.end(), w->encode_ns.begin(),
                        w->encode_ns.end());
    in.client_retries += w->retries;
    in.wire_calls += w->calls;
  }
  Finish(opt, states, win, setup_s, std::move(in), result);

  result.Fact("connections", std::to_string(kConnections));
  result.Fact("server_threads",
              std::to_string(kConnections + 1) + " (accept + one per connection)");
  result.Fact("cells", "2");
  result.Fact("roots", std::to_string(roots));
  result.Fact("objects", std::to_string(inst.base.objects()));
  result.Fact("share_pct", std::to_string(kSharePct));
  result.Fact("setups", std::to_string(kSetups));
  result.Fact("trace_every", std::to_string(kTraceEvery));
  std::string pinned = "no";
  if (!cpus.empty()) {
    pinned = "connection c's client and server threads on cpu";
    for (int c = 0; c < kConnections; ++c) {
      pinned += " " + std::to_string(cpus[c]);
    }
    pinned += ", reclaimers and accept on cpu " +
              std::to_string(cpus[kConnections]);
  }
  result.Fact("pinned", pinned);
  result.Fact("wal_fs", FsName(inst.dir));
  result.Fact("wal_flush",
              "fsync per group commit (default WalOptions: group_window 0 us, "
              "group_max 64); fsync returns at once, as on tmpfs (nosync.cc)");
  std::error_code ec;
  fs::remove_all(inst.dir, ec);
  return result;
}

}  // namespace perfbench
