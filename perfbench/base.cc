#include "base.h"

#include <cstdio>
#include <iterator>

#include "core/session.h"
#include "query/traversal.h"

namespace perfbench {

using orion::ClassSpec;
using orion::CompositeAttr;
using orion::Uid;
using orion::WeakAttr;

namespace {

/// The composite attributes, indexed as in `Edge`.
struct CompositeAttrInfo {
  const char* name;
  bool exclusive;
};
constexpr CompositeAttrInfo kComposite[] = {
    {"Parts", true}, {"Shared", false}, {"Leaves", true}};

constexpr size_t kMaxReported = 3;

void Report(std::vector<std::string>* out, size_t* count, std::string line) {
  if ((*count)++ < kMaxReported) {
    out->push_back(std::move(line));
  }
}

std::string Hex(uint64_t raw) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llx", static_cast<unsigned long long>(raw));
  return buf;
}

}  // namespace

std::vector<ClassSpec> Schema() {
  return {
      ClassSpec{.name = kLeaf, .attributes = {WeakAttr(kWeight, "integer")}},
      ClassSpec{.name = kMid,
                .attributes = {WeakAttr(kWeight, "integer"),
                               CompositeAttr("Leaves", kLeaf, true, true,
                                             /*is_set=*/true)}},
      ClassSpec{.name = kRoot,
                .attributes = {WeakAttr(kWeight, "integer"),
                               CompositeAttr("Parts", kMid, true, true,
                                             /*is_set=*/true),
                               CompositeAttr("Shared", kMid, false, true,
                                             /*is_set=*/true)}},
  };
}

Plan::Plan(int roots_in, uint32_t share_pct, uint64_t seed)
    : roots(roots_in), second(static_cast<size_t>(roots_in) * kFanout, -1) {
  Rng rng(seed);
  const int same_parity = roots / 2;  // other roots with this root's parity
  for (size_t m = 0; m < second.size(); ++m) {
    if (same_parity < 2 || !rng.Percent(share_pct)) {
      continue;
    }
    const int r = static_cast<int>(m) / kFanout;
    const int step = 2 * (1 + static_cast<int>(rng.Below(same_parity - 1)));
    second[m] = (r + step) % roots;
  }
}

std::vector<std::vector<Uid>> ExpectedMembership(const Base& base,
                                                 const ExtraLeaves& extra) {
  std::vector<std::vector<Uid>> out(base.roots.size());
  for (size_t r = 0; r < base.roots.size(); ++r) {
    for (int m : base.mids_of_root[r]) {
      out[r].push_back(base.mids[m]);
      for (int j = 0; j < kFanout; ++j) {
        out[r].push_back(base.leaves[m * kFanout + j]);
      }
      auto it = extra.find(m);
      if (it != extra.end()) {
        out[r].insert(out[r].end(), it->second.begin(), it->second.end());
      }
    }
    std::sort(out[r].begin(), out[r].end());
  }
  return out;
}

Graph ExtractGraph(const orion::ReadTransaction& rt,
                   const std::vector<orion::ClassId>& classes) {
  Graph g;
  for (orion::ClassId cls : classes) {
    for (Uid uid : rt.InstancesOf(cls)) {
      auto obj = rt.Get(uid);
      if (!obj.ok()) {
        continue;
      }
      g.objects.push_back(uid.raw);
      for (int a = 0; a < 3; ++a) {
        const orion::Value& v = (*obj)->Get(kComposite[a].name);
        for (Uid child : v.ReferencedUids()) {
          g.forward.emplace_back(uid.raw, child.raw, a, kComposite[a].exclusive);
        }
      }
      for (const orion::ReverseRef& ref : (*obj)->reverse_refs()) {
        int a = 0;
        while (a < 3 && ref.attribute != kComposite[a].name) {
          ++a;
        }
        g.reverse.emplace_back(ref.parent.raw, uid.raw, a, ref.exclusive);
      }
    }
  }
  return g;
}

bool GateReverseMatchesForward(const Graph& g, std::vector<std::string>* out) {
  std::vector<Edge> fwd = g.forward;
  std::vector<Edge> rev = g.reverse;
  std::sort(fwd.begin(), fwd.end());
  std::sort(rev.begin(), rev.end());
  std::vector<Edge> only_fwd;
  std::vector<Edge> only_rev;
  std::set_difference(fwd.begin(), fwd.end(), rev.begin(), rev.end(),
                      std::back_inserter(only_fwd));
  std::set_difference(rev.begin(), rev.end(), fwd.begin(), fwd.end(),
                      std::back_inserter(only_rev));
  size_t n = 0;
  for (const Edge& e : only_fwd) {
    Report(out, &n, "reverse-refs: forward edge " + Hex(std::get<0>(e)) +
                        " -> " + Hex(std::get<1>(e)) + " has no reverse ref");
  }
  for (const Edge& e : only_rev) {
    Report(out, &n, "reverse-refs: reverse ref " + Hex(std::get<1>(e)) +
                        " <- " + Hex(std::get<0>(e)) + " has no forward edge");
  }
  return n == 0;
}

bool GateOneExclusiveParent(const Graph& g, std::vector<std::string>* out) {
  std::unordered_map<uint64_t, int> exclusive;
  for (const Edge& e : g.reverse) {
    if (std::get<3>(e)) {
      ++exclusive[std::get<1>(e)];
    }
  }
  size_t n = 0;
  for (const auto& [child, count] : exclusive) {
    if (count > 1) {
      Report(out, &n, "exclusive-parent: " + Hex(child) + " has " +
                          std::to_string(count) + " exclusive parents");
    }
  }
  return n == 0;
}

bool GateAcyclic(const Graph& g, std::vector<std::string>* out) {
  std::unordered_map<uint64_t, std::vector<uint64_t>> kids;
  for (const Edge& e : g.forward) {
    kids[std::get<0>(e)].push_back(std::get<1>(e));
  }
  // Iterative three-colour DFS: 1 = on the stack, 2 = finished.
  std::unordered_map<uint64_t, int> colour;
  size_t n = 0;
  for (uint64_t start : g.objects) {
    if (colour[start] != 0) {
      continue;
    }
    std::vector<std::pair<uint64_t, size_t>> stack = {{start, 0}};
    colour[start] = 1;
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      const std::vector<uint64_t>& out_edges = kids[node];
      if (next == out_edges.size()) {
        colour[node] = 2;
        stack.pop_back();
        continue;
      }
      const uint64_t child = out_edges[next++];
      if (colour[child] == 1) {
        Report(out, &n, "acyclic: composite cycle through " + Hex(child));
      } else if (colour[child] == 0) {
        colour[child] = 1;
        stack.emplace_back(child, 0);
      }
    }
  }
  return n == 0;
}

bool GateMembership(const Base& base,
                    const std::vector<std::vector<Uid>>& expected,
                    const std::function<std::vector<Uid>(Uid)>& actual,
                    std::vector<std::string>* out) {
  size_t n = 0;
  for (size_t r = 0; r < base.roots.size(); ++r) {
    const std::vector<Uid> got = actual(base.roots[r]);
    if (got != expected[r]) {
      Report(out, &n, "membership: ComponentsOf(" + Hex(base.roots[r].raw) +
                          ") has " + std::to_string(got.size()) +
                          " objects, model expects " +
                          std::to_string(expected[r].size()));
    }
  }
  return n == 0;
}

bool GateDurable(const std::unordered_map<uint64_t, int64_t>& acked,
                 const std::function<int64_t(Uid)>& read,
                 std::vector<std::string>* out) {
  size_t n = 0;
  for (const auto& [raw, value] : acked) {
    const int64_t got = read(orion::UidFromRaw(raw));
    if (got != value) {
      Report(out, &n, "durable: " + Hex(raw) + " recovered W=" +
                          std::to_string(got) + ", last ack was " +
                          std::to_string(value));
    }
  }
  return n == 0;
}

namespace {

std::vector<orion::ClassId> ClassIds(orion::Database& db) {
  std::vector<orion::ClassId> out;
  for (const char* name : {kRoot, kMid, kLeaf}) {
    out.push_back(db.schema().FindClass(name).value_or(orion::kInvalidClass));
  }
  return out;
}

std::function<std::vector<Uid>(Uid)> ComponentsAt(
    const orion::ReadTransaction& rt) {
  return [&rt](Uid root) {
    auto got = rt.ComponentsOf(root);
    std::vector<Uid> v = got.ok() ? *got : std::vector<Uid>{};
    std::sort(v.begin(), v.end());
    return v;
  };
}

}  // namespace

void CheckFinalState(orion::Database& db, const Base& base,
                     const ExtraLeaves& extra,
                     std::vector<std::string>* failures) {
  orion::ReadTransaction rt(&db);
  const Graph g = ExtractGraph(rt, ClassIds(db));
  GateReverseMatchesForward(g, failures);
  GateOneExclusiveParent(g, failures);
  GateAcyclic(g, failures);
  GateMembership(base, ExpectedMembership(base, extra), ComponentsAt(rt),
                 failures);
}

std::vector<std::string> SelfTest(uint64_t seed) {
  std::vector<std::string> broken;
  orion::Database db;
  for (const ClassSpec& spec : Schema()) {
    if (!db.MakeClass(spec).ok()) {
      return {"self-test: schema setup failed"};
    }
  }
  orion::Session session(&db);
  Base base;
  const Plan plan(32, 25, seed);
  auto run = [&](const auto& fn) { return session.Run(fn); };
  if (!Populate<orion::TransactionContext>(plan, run, &base).ok()) {
    return {"self-test: populate failed"};
  }
  orion::ReadTransaction rt(&db);
  const Graph g = ExtractGraph(rt, ClassIds(db));
  const auto expected = ExpectedMembership(base, {});
  std::unordered_map<uint64_t, int64_t> acked;
  for (Uid uid : base.leaves) {
    acked[uid.raw] = 0;
  }
  auto read_w = [&rt](Uid uid) -> int64_t {
    auto obj = rt.Get(uid);
    return obj.ok() ? (*obj)->Get(kWeight).integer() : -1;
  };

  // Each gate must pass on the true state and fire on a corrupted copy of
  // its expected side.
  auto check = [&](const char* gate, const std::function<bool(bool)>& run_gate) {
    const bool clean = run_gate(false);
    const bool fires = !run_gate(true);
    std::printf("self-test: gate %-16s passes on the true state: %s, "
                "fires on corrupted input: %s\n",
                gate, clean ? "yes" : "NO", fires ? "yes" : "NO");
    if (!clean || !fires) {
      broken.push_back(std::string("self-test: gate ") + gate);
    }
  };
  std::vector<std::string> sink;
  check("reverse-refs", [&](bool corrupt) {
    Graph c = g;
    if (corrupt) {
      c.reverse.pop_back();
    }
    return GateReverseMatchesForward(c, &sink);
  });
  check("exclusive-parent", [&](bool corrupt) {
    Graph c = g;
    if (corrupt) {
      c.reverse.emplace_back(base.roots[0].raw, base.leaves[0].raw, 2, true);
    }
    return GateOneExclusiveParent(c, &sink);
  });
  check("acyclic", [&](bool corrupt) {
    Graph c = g;
    if (corrupt) {
      c.forward.emplace_back(base.leaves[0].raw, base.roots[0].raw, 0, true);
    }
    return GateAcyclic(c, &sink);
  });
  check("membership", [&](bool corrupt) {
    auto c = expected;
    if (corrupt) {
      c[0].pop_back();
    }
    return GateMembership(base, c, ComponentsAt(rt), &sink);
  });
  check("durable", [&](bool corrupt) {
    auto c = acked;
    if (corrupt) {
      c[base.leaves[0].raw] = 7;
    }
    return GateDurable(c, read_w, &sink);
  });
  return broken;
}

}  // namespace perfbench
