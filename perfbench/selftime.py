#!/usr/bin/env python3
"""Per-layer self-time table from the span dump of a traced perfbench run.

    python3 perfbench/selftime.py .bench_build/perfbench/out/spans-<workload>.tsv ...

A span's self time is its duration minus the durations of its child spans.
The layer of a span is the prefix of its name (`query`, `mvcc`, `session`,
`lock`, `object`, `rpc`); `op.*` spans are the benchmark's per-operation
roots, and their self time is the part of an operation no layer span covers.
That remainder is reported as a share of the end-to-end p50: the median
op-root self time divided by the median op-root duration.
"""

import csv
import statistics
import sys
from collections import defaultdict

LAYER = {
    "op": "(unattributed)",
    "mvcc": "core",
    "session": "core",
    "query": "query",
    "lock": "lock",
    "object": "object",
    "rpc": "rpc",
}


def median(values):
    return statistics.median(values) if values else 0.0


def profile(path):
    """Returns (rows, summary) for one dump; rows are per span name."""
    spans = {}
    child_ns = defaultdict(int)
    with open(path, newline="") as f:
        for row in csv.DictReader(f, delimiter="\t"):
            thread = row["thread"]
            dur = int(row["end_ns"]) - int(row["start_ns"])
            spans[(thread, row["id"])] = (row["name"], dur)
            if row["parent"] != "0":
                child_ns[(thread, row["parent"])] += dur
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    root_dur = []
    root_self = []
    for key, (name, dur) in spans.items():
        own = dur - child_ns[key]
        calls[name] += 1
        self_ns[name] += own
        if name.startswith("op."):
            root_dur.append(dur)
            root_self.append(own)
    ops = len(root_dur)
    total = sum(root_dur) or 1
    rows = []
    for name in sorted(self_ns, key=lambda n: -self_ns[n]):
        rows.append({
            "layer": LAYER.get(name.split(".")[0], name.split(".")[0]),
            "span": name,
            "calls_per_op": calls[name] / ops if ops else 0.0,
            "self_us_per_op": self_ns[name] / 1000.0 / ops if ops else 0.0,
            "share": self_ns[name] / total,
        })
    p50 = median(root_dur)
    summary = {
        "ops": ops,
        "op_p50_us": p50 / 1000.0,
        "unattributed_p50_us": median(root_self) / 1000.0,
        "unattributed_frac": median(root_self) / p50 if p50 else 0.0,
    }
    return rows, summary


def print_table(path, rows, summary, out=sys.stdout):
    print(f"self time per span ({path}, {summary['ops']} traced ops)",
          file=out)
    print(f"  {'layer':<15} {'span':<22} {'calls/op':>9} {'self us/op':>11}"
          f" {'share':>7}", file=out)
    by_layer = defaultdict(float)
    for r in rows:
        by_layer[r["layer"]] += r["share"]
        print(f"  {r['layer']:<15} {r['span']:<22} {r['calls_per_op']:>9.3f}"
              f" {r['self_us_per_op']:>11.3f} {r['share']:>7.1%}", file=out)
    print("  per layer: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share in
        sorted(by_layer.items(), key=lambda kv: -kv[1])), file=out)
    print(f"  unattributed remainder: p50 {summary['unattributed_p50_us']:.3f}"
          f" us of end-to-end p50 {summary['op_p50_us']:.3f} us"
          f" = {summary['unattributed_frac']:.1%}", file=out)


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in argv[1:]:
        rows, summary = profile(path)
        print_table(path, rows, summary)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
