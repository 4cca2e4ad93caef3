#!/usr/bin/env python3
"""Builds and runs the composite-object benchmark.

    python3 perfbench/run.py --workload read_large|update_hot|wire_durable|all
                             [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from anywhere inside a checkout.  The first run compiles the engine's
sources and the benchmark binary into .bench_build/perfbench (CMake,
RelWithDebInfo, the build type the repository itself uses).  The binary
prints a metric table, the correctness-gate results and provenance;
the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the metrics
are the `end_to_end` ones of BENCHMARK.json, with --trace 1 the `per_layer`
ones; a traced run also prints the self-time table of its span dump.
`--workload all` runs the three workloads in turn and prints one combined
line.  The exit code is non-zero if the build fails or a gate fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep perfbench/ free of generated files
import selftime  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = BUILD / "out"
WORKLOADS = ("read_large", "update_hot", "wire_durable")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (see " + str(log_path) + ")")
    return BUILD / "perfbench"


def source_provenance():
    """The git commit when the checkout is a git work tree, and a hash of
    the engine sources either way."""
    sha = "unavailable (not a git work tree)"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def wanted_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(binary, workload, args):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    sys.stderr.write(proc.stderr)
    if not lines or not lines[-1].startswith("{"):
        fail(f"{workload}: perfbench exited {proc.returncode} without a result")
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])
    metrics = raw["metrics"]
    if args.trace:
        dump = raw["provenance"]["span_dump"]
        rows, summary = selftime.profile(dump)
        selftime.print_table(os.path.relpath(dump, ROOT), rows, summary)
        metrics["trace.unattributed_frac"] = {
            "value": summary["unattributed_frac"], "unit": "ratio",
            "samples": summary["ops"]}
    raw["provenance"].update(source_provenance())
    print("provenance: " + json.dumps(raw["provenance"], sort_keys=True))
    chosen = {}
    for name in wanted_metrics(args.trace):
        if name not in metrics:
            fail(f"{workload}: perfbench did not report {name}")
        chosen[name] = {"value": metrics[name]["value"],
                        "unit": metrics[name]["unit"]}
    correct = bool(raw["correct"]) and proc.returncode == 0
    return {"correct": correct, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": chosen}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny object bases and 2 s windows")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 2 if args.smoke else 10
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    OUT.mkdir(parents=True, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_one(binary, w, args) for w in workloads}
    if len(results) == 1:
        result = results[args.workload]
    else:
        for w, r in results.items():
            print(f"{w}: " + json.dumps(r))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
