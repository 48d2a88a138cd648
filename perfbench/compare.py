#!/usr/bin/env python3
"""Compares two builds of perfbench, workload by workload.

    python3 perfbench/compare.py --parent PARENT_EXE --change CHANGE_EXE \\
        [--pairs 10] [--seconds 10] [--workloads machsuite,memcpy] \\
        [--seed 1] [--json OUT]

Each EXE is a built perfbench binary, e.g. `.bench_build/release/perfbench`
in a checkout of each commit. For every workload, pair i runs both sides
with seed SEED+i, the parent first in even pairs and the change first in
odd ones. For every end-to-end metric the script prints each side's median
and quartiles, the fraction of pairs the change won (ties count for
neither), and a verdict against the bound in BENCHMARK.json:

  gain        the change won at least 9 pairs in 10 and the medians differ
              by more than the parent's interquartile range
  regression  the change's median is worse than the parent's by more than
              the bound
  unresolved  a side's spread (interquartile range / median) is wider than
              the bound, and not every change run beats every parent run
  same        none of the above

Passing one binary as both sides measures the benchmark against itself:
two independent sets of runs that should agree within the bounds. With
--json the script also writes every run and the host it ran on; that is
how baseline.json is recorded. Uses only the Python standard library.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(exe, workload, seed, seconds):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(f"{' '.join(cmd)} failed (exit {proc.returncode}):\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def judge(metric, parent, change):
    """Verdict for one metric; `parent` and `change` are in pair order."""
    lower = metric["better"] == "lower"

    def better(c, p):
        return c < p if lower else c > p

    wins = sum(better(c, p) for p, c in zip(parent, change))
    ps, cs = summary(parent), summary(change)
    if max(ps["spread"], cs["spread"]) > metric["bound"]:
        every = all(better(c, p) for c in change for p in parent)
        verdict = "gain" if every else "unresolved"
    elif wins >= 0.9 * len(parent) and abs(cs["median"] - ps["median"]) > ps["q3"] - ps["q1"]:
        verdict = "gain"
    else:
        worse = (cs["median"] - ps["median"]) / abs(ps["median"]) if ps["median"] else 0.0
        verdict = "regression" if (worse if lower else -worse) > metric["bound"] else "same"
    return {"parent": ps, "change": cs, "wins": wins / len(parent), "verdict": verdict}


def host():
    def first(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()
        except OSError:
            return "unknown"
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "rustc": first(["rustc", "--version"])}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--workloads")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    report = {"host": host(), "pairs": args.pairs, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                exe = args.parent if side == "parent" else args.change
                runs[side].append(run(exe, workload, args.seed + i, seconds))
            print(f"{workload}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
        verdicts = {}
        print(f"\n{workload}")
        print(f"  {'metric':<20} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36}"
              f" {'spread':>7} {'wins':>5}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            v = judge(metric, [r[name] for r in runs["parent"]], [r[name] for r in runs["change"]])
            verdicts[name] = v
            p, c = v["parent"], v["change"]
            print(f"  {name:<20} {p['median']:>12.6g} [{p['q1']:>9.6g}, {p['q3']:>9.6g}]"
                  f" {c['median']:>12.6g} [{c['q1']:>9.6g}, {c['q3']:>9.6g}]"
                  f" {max(p['spread'], c['spread']):>6.1%} {v['wins']:>5.0%}  {v['verdict']}")
        report["workloads"][workload] = {"runs": runs, "metrics": verdicts}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
