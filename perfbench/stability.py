"""Run one workload in two sets of runs and compare them.

    python3 perfbench/stability.py --workload census [--runs 10] [--seconds 30]

Each run is a fresh ``perfbench/run.py`` process with its own seed; set A
takes seeds 1..runs and set B the next ``runs`` seeds. For every end-to-end
metric the table gives both medians, each set's spread (the distance
between the first and third quartile over the median) and the metric's
bound from BENCHMARK.json. A spread above the bound, or a set B median
worse than set A's by more than the bound, is marked FAIL; the spread of
setup_s is shown but not judged. The share of failed operations must be
the same in both sets. Raw values go to .perfbench/stability-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, float]:
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=180,
    )
    return json.loads(out.stdout.strip().splitlines()[-1]), time.perf_counter() - t0


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args(argv)

    sets = {}
    longest = 0.0
    for label, first in (("A", 1), ("B", 1 + args.runs)):
        results = []
        for seed in range(first, first + args.runs):
            result, elapsed = run_once(args.workload, seed, args.seconds)
            longest = max(longest, elapsed)
            results.append(result)
            print(f"set {label} seed {seed}: {elapsed:.1f} s, "
                  f"{result['attempted']} ops, {result['failed']} failed, "
                  f"correct={result['correct']}", file=sys.stderr)
        sets[label] = results

    ok = True
    print(f"{args.workload}: {args.runs} runs per set, {args.seconds:g} s each, "
          f"longest run {longest:.1f} s")
    print(f"{'metric':<14}{'median A':>12}{'median B':>12}{'spread A':>10}"
          f"{'spread B':>10}{'shift':>9}{'bound':>7}  verdict")
    table = {}
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a = [r["metrics"][name]["value"] for r in sets["A"]]
        b = [r["metrics"][name]["value"] for r in sets["B"]]
        ma, mb = statistics.median(a), statistics.median(b)
        sa, sb = spread(a), spread(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        good = worse <= bound and (name == "setup_s" or max(sa, sb) <= bound)
        ok &= good
        table[name] = {"A": a, "B": b, "spread": [sa, sb], "shift": worse, "bound": bound}
        print(f"{name:<14}{ma:>12.4f}{mb:>12.4f}{sa:>10.3f}{sb:>10.3f}{worse:>9.3f}"
              f"{bound:>7.2f}  {'ok' if good else 'FAIL'}")
    shares = {k: sorted({r["failed"] / r["attempted"] for r in v}) for k, v in sets.items()}
    same = len(set(map(tuple, shares.values()))) == 1 and len(shares["A"]) == 1
    correct = all(r["correct"] for v in sets.values() for r in v)
    ok &= same and correct
    print(f"failed share A {shares['A']} B {shares['B']}: {'ok' if same else 'FAIL'}; "
          f"all correct: {correct}")
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", f"stability-{args.workload}.json"), "w") as fh:
        json.dump({"runs": args.runs, "seconds": args.seconds, "longest_run_s": longest,
                   "metrics": table}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
