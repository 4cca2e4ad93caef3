// The composite-object benchmark binary.  One process generates the object
// base from --seed, runs one workload closed-loop through the engine's
// public API for --seconds, checks the correctness gates, and prints every
// metric with its unit.  `perfbench/run.py` builds this binary and turns
// its last line into the benchmark's result line.
//
//   perfbench --workload read_large|update_hot|wire_durable --seed N
//             --seconds S --trace 0|1 [--smoke] [--out-dir DIR]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "base.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// JSON string literal (the facts and gate messages are plain ASCII).
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload read_large|update_hot|"
               "wire_durable --seed N --seconds S --trace 0|1 [--smoke] "
               "[--out-dir DIR]\n");
  std::exit(2);
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage();
      }
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--out-dir") {
      opt.out_dir = value();
    } else {
      Usage();
    }
  }

  const bool in_process =
      opt.workload == "read_large" || opt.workload == "update_hot";
  if (opt.seconds <= 0 || (!in_process && opt.workload != "wire_durable")) {
    Usage();
  }

  // The gates are exercised on every run, before anything is measured.
  const std::vector<std::string> broken = SelfTest(opt.seed);
  if (!broken.empty()) {
    for (const std::string& b : broken) {
      std::fprintf(stderr, "%s did not behave\n", b.c_str());
    }
    return 1;
  }
  const RunResult r = in_process ? RunInProcess(opt) : RunWire(opt);

  std::printf("%-30s %22s  %-14s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : r.metrics) {
    std::printf("%-30s %22.6f  %-14s %zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const std::string& g : r.gate_failures) {
    std::printf("GATE FAILED: %s\n", g.c_str());
  }

  std::string facts =
      "\"workload\": " + Quote(opt.workload) +
      ", \"seed\": " + std::to_string(opt.seed) +
      ", \"seconds\": " + Number(opt.seconds) +
      ", \"trace\": " + (opt.trace ? "1" : "0") +
      ", \"smoke\": " + (opt.smoke ? "true" : "false") +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"compiler\": " + Quote(std::string("g++ ") + __VERSION__) +
      ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE);
  for (const auto& [k, v] : r.facts) {
    facts += ", " + Quote(k) + ": " + Quote(v);
  }
  std::string metrics;
  for (const Metric& m : r.metrics) {
    metrics += (metrics.empty() ? "" : ", ") + Quote(m.name) +
               ": {\"value\": " + Number(m.value) +
               ", \"unit\": " + Quote(m.unit) +
               ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  std::string gates;
  for (const std::string& g : r.gate_failures) {
    gates += (gates.empty() ? "" : ", ") + Quote(g);
  }
  const bool correct = r.gate_failures.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}, \"provenance\": {%s}, \"gate_failures\": [%s]}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str(),
      facts.c_str(), gates.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
