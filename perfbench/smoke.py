"""Smoke test of the benchmark at tiny sizes; takes well under a minute.

    python3 perfbench/smoke.py

Runs every workload for one second with and without tracing on tiny
inputs, and checks the output contract: the last stdout line is one JSON
object with exactly ``correct``, ``attempted``, ``failed`` and
``metrics``; no operation fails; the metrics are exactly the end-to-end
ones of BENCHMARK.json (or the per-layer ones when traced), with their
units. It also checks that one seed always draws the same inputs, and that
the benchmark exits non-zero without printing a result in a directory that
holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(bench: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = bench["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted], sorted(result["metrics"])
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted), result


def check_seeded_inputs() -> None:
    for cls in workloads.WORKLOADS.values():
        a, b = cls(11, False, "unused"), cls(11, False, "unused")
        state = {k: v for k, v in vars(a).items() if k != "rng"}
        assert state == {k: v for k, v in vars(b).items() if k != "rng"}, cls.name


def check_bare_directory() -> None:
    bare = os.path.join(ROOT, ".perfbench", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(bare, "census", 0)
        assert proc.returncode != 0, "ran without the program"
        assert '"metrics"' not in proc.stdout, "printed a result without the program"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    t0 = time.perf_counter()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check_seeded_inputs()
    check_bare_directory()
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_result(bench, w["name"], trace)
    print(f"smoke: ok in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
