#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  std::nth_element(v.begin(), v.begin() + lo, v.end());
  const double a = v[lo];
  if (lo + 1 >= v.size()) {
    return a;
  }
  const double b = *std::min_element(v.begin() + lo + 1, v.end());
  return a + (b - a) * (pos - static_cast<double>(lo));
}

double HistQuantile(const orion::obs::HistogramSnapshot& h, double q) {
  if (h.count == 0) {
    return 0;
  }
  const double target = q * static_cast<double>(h.count);
  double seen = 0;
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    const double n = static_cast<double>(h.buckets[i]);
    if (n > 0 && seen + n >= target) {
      if (i == 0) {
        return 0;
      }
      const double lo = std::ldexp(1.0, static_cast<int>(i) - 1);
      return lo + lo * (target - seen) / n;  // bucket i spans [lo, 2*lo)
    }
    seen += n;
  }
  return static_cast<double>(h.sum) / static_cast<double>(h.count);
}

const char* NameOf(Name name) {
  static const char* const kNames[] = {
      "op.read",          "op.ancestors",        "op.update",
      "op.composite_read", "op.make",            "op.delete",
      "op.wire_get",      "op.wire_set",         "op.wire_txn_cross",
      "op.wire_txn_single", "mvcc.read_begin",   "mvcc.read_end",
      "query.components_of", "query.ancestors_of", "query.get",
      "session.run",      "session.closure",     "lock.composite_read",
      "lock.txn_read",    "lock.txn_set",        "object.make",
      "object.delete",    "rpc.encode",          "rpc.call",
      "rpc.decode",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(Name::kCount));
  return kNames[static_cast<size_t>(name)];
}

std::map<Name, std::vector<double>> DurationsUs(
    const std::vector<const Tracer*>& tracers) {
  std::map<Name, std::vector<double>> out;
  for (const Tracer* t : tracers) {
    for (const Span& s : t->spans()) {
      out[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) /
                            1000.0);
    }
  }
  return out;
}

bool DumpSpans(const std::string& path,
               const std::vector<const Tracer*>& tracers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "thread\top\tid\tparent\tname\tstart_ns\tend_ns\titems\n");
  for (size_t t = 0; t < tracers.size(); ++t) {
    for (const Span& s : tracers[t]->spans()) {
      std::fprintf(f, "%zu\t%llu\t%u\t%u\t%s\t%lld\t%lld\t%u\n", t,
                   static_cast<unsigned long long>(s.op), s.id, s.parent,
                   NameOf(s.name), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.items);
    }
  }
  return std::fclose(f) == 0;
}

double Delta::Count(const std::string& name) const {
  auto it = d_.counters.find(name);
  return it == d_.counters.end() ? 0 : static_cast<double>(it->second);
}

double Delta::GaugeSum(const std::string& name) const {
  double sum = 0;
  for (const auto& [key, value] : d_.gauges) {
    if (key == name || key.rfind(name + "|", 0) == 0) {
      sum += static_cast<double>(value);
    }
  }
  return sum;
}

const orion::obs::HistogramSnapshot& Delta::Hist(
    const std::string& name) const {
  static const orion::obs::HistogramSnapshot kEmpty;
  auto it = d_.histograms.find(name);
  return it == d_.histograms.end() ? kEmpty : it->second;
}

double Delta::HistMean(const std::string& name) const {
  const auto& h = Hist(name);
  return Ratio(static_cast<double>(h.sum), static_cast<double>(h.count));
}

void AddQuantiles(RunResult& r, const std::string& prefix,
                  const std::vector<double>& v, const std::string& unit,
                  bool with_p99) {
  r.Add(prefix + ".p50", Quantile(v, 0.50), unit, v.size());
  if (with_p99) {
    r.Add(prefix + ".p99", Quantile(v, 0.99), unit, v.size());
  }
}

double CpuUs() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return us(u.ru_utime) + us(u.ru_stime);
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
