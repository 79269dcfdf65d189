"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload census --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ./src. The
run times its set-up, then runs whole rounds of the workload's operations
until the next round would pass --seconds and at least ten operation times
lie above the tail percentile, checks every output against a computation
made apart from the program, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every time it reports is scaled to the host's speed, which it measures
between operations (see speed.py).

With --trace 0 the metrics are the end-to-end ones. With --trace 1 rounds
alternate untraced and traced, and the metrics are the per-layer ones plus
the tracing overhead. Details and spans go to .perfbench/ in the checkout.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

# Single-threaded: no numeric library may start a thread pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# A tail is reported only with at least this many samples above it.
MIN_BEYOND_TAIL = 10
# Rounds stop after this long even if --seconds is longer, so that a run
# ends within its time limit; too few rounds by then end it with an error.
MAX_MEASURE_SECONDS = 120
# Share of wall_s that the benchmark's glue between traced calls may take.
COVER_TOLERANCE = 0.02
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import trislither.cli; print(time.perf_counter() - t)"
)


class Recorder:
    """Times each operation and counts the ones that raise or fail a check.

    ``key`` names one operation on one input; an operation repeated within
    a round keeps its key. Each sample is kept with whether a tracer was
    installed when it was taken and with the reference sample it follows
    (see speed.py); only untraced samples make the end-to-end metrics, and
    they are scaled once the rounds are over.
    """

    def __init__(self, host: speed.Speed):
        self.host = host
        # (key, traced, seconds, traced self seconds, reference index)
        self.samples: list[tuple] = []
        self.untraced = 0
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def op(self, key, call, check):
        self.attempted += 1
        index = self.host.before()
        covered = 0.0
        if self.tracer:
            self.tracer.ref = index
            covered = self.tracer.self_seconds()
        t0 = perf_counter()
        try:
            result = call()
        except Exception as exc:  # one failed operation must not end the run
            self._time(key, perf_counter() - t0, covered, index)
            self._fail(key, f"raised {exc!r}")
            return None
        self._time(key, perf_counter() - t0, covered, index)
        try:
            problem = check(result)
        except Exception as exc:
            problem = f"check raised {exc!r}"
        if problem:
            self.wrong += 1
            self._fail(key, problem)
        return result

    def _time(self, key, seconds, covered_before, index):
        own = self.tracer.self_seconds() - covered_before if self.tracer else 0.0
        self.samples.append((key, self.tracer is not None, seconds, own, index))
        self.untraced += self.tracer is None
        self.host.after(seconds)

    def _fail(self, key, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{key}: {message}")

    def by_key(self, traced: bool, field: int = 2, scaled: bool = True) -> dict:
        """Samples of one kind by key: the call's time (field 2) or its
        traced self time (field 3), scaled to the reference speed."""
        out = defaultdict(list)
        for sample in self.samples:
            if sample[1] == traced:
                value = sample[field]
                out[sample[0]].append(value * self.host.factor(sample[4]) if scaled else value)
        return out

    def times(self) -> list[float]:
        """Scaled times of every untraced operation."""
        return [t for ts in self.by_key(False).values() for t in ts]


def round_seconds(by_key: dict, rounds: int) -> float:
    """One round's time, as the sum over its operations of each one's
    median across the rounds; a contention burst moves one sample of an
    operation, not the figure."""
    return sum(statistics.median(t) * len(t) for t in by_key.values()) / rounds


def pin_to_one_core() -> int | None:
    """Run on one CPU of those allowed, so the scheduler never migrates us."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


def import_seconds(host: speed.Speed) -> float:
    """Median scaled import time of the program in fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        index = host.measure()
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, SRC],
            check=True, capture_output=True, text=True, timeout=60,
        )
        host.measure()
        samples.append(float(out.stdout.strip()) * host.factor(index))
    return statistics.median(samples)


def load_program():
    if not os.path.isfile(os.path.join(SRC, "trislither", "__init__.py")):
        raise SystemExit(f"error: no program source at {SRC}/trislither")
    sys.path.insert(0, SRC)
    program = workloads.Program()
    origin = os.path.dirname(os.path.abspath(program.cli.__file__))
    if origin != os.path.join(SRC, "trislither"):
        raise SystemExit(f"error: trislither was imported from {origin}, not {SRC}")
    return program


def tail_rank(count: int, pct: int) -> int:
    """Nearest rank (1-based) of the pct percentile among count samples."""
    return max(1, math.ceil(pct / 100 * count))


def tail(times: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = tail_rank(len(times), pct)
    return sorted(times)[rank - 1], len(times) - rank


def environment(cpu) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_path": "numba" if sys.modules["trislither._kernels"].USING_NUMBA else "python",
        "cores": os.cpu_count(),
        "pinned_cpu": cpu,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = ap.parse_args(argv)

    cpu = pin_to_one_core()
    t0 = perf_counter()
    program = load_program()
    first_import = perf_counter() - t0
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    try:
        return run(args, program, wl, cpu, first_import)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, P, wl, cpu, first_import) -> int:
    host = speed.Speed()
    for _ in range(SETUP_REPEATS):  # warm the reference itself
        host.measure()
    setups = [host.timed(lambda: wl.setup(P)) for _ in range(SETUP_REPEATS)]
    setup_s = import_seconds(host) + statistics.median(setups)

    wl.prepare(P)
    wl.warmup(P)

    rec = Recorder(host)
    tracer = tracing.Tracer() if args.trace else None
    rounds = {False: 0, True: 0}
    durations = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(durations) % 2 == 1
        if traced:
            tracer.install()
            rec.tracer = tracer
        t0 = perf_counter()
        try:
            wl.round(P, rec)
        finally:
            durations.append(perf_counter() - t0)
            if traced:
                tracer.uninstall()
                rec.tracer = None
        rounds[traced] += 1
        elapsed = perf_counter() - start
        if tracer is not None:
            enough = rounds[True] >= 1
        else:
            enough = rec.untraced - tail_rank(rec.untraced, wl.tail_pct) >= MIN_BEYOND_TAIL
        if enough and (elapsed + statistics.median(durations) > args.seconds
                       or elapsed > MAX_MEASURE_SECONDS):
            break
        if elapsed > MAX_MEASURE_SECONDS:
            raise SystemExit(f"error: {len(durations)} rounds in {elapsed:.0f} s "
                             "are too few for the metrics")
    host.measure()  # brackets the last operations
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wall_s = round_seconds(rec.by_key(False), rounds[False])
    if args.trace:
        metrics = tracer.metrics(rounds[True], host.factor)
        overhead = round_seconds(rec.by_key(True), rounds[True]) - wall_s
        self_s = round_seconds(rec.by_key(True, field=3), rounds[True])
        metrics["trace.wall_s"] = {"value": wall_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.self_s"] = {"value": self_s, "unit": "s"}
        # The layers' self times cover the untraced round, but for the
        # tracing overhead and the benchmark's own glue between calls.
        if abs(self_s - wall_s) > abs(overhead) + COVER_TOLERANCE * wall_s:
            raise SystemExit(f"error: the layers' self times ({self_s:.4f} s a round) do not "
                             f"cover wall_s {wall_s:.4f} s within the overhead {overhead:.4f} s")
        value, beyond = None, None
    else:
        times = rec.times()
        value, beyond = tail(times, wl.tail_pct)
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "item_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
            "item_tail_ms": {"value": value * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    result = {
        "correct": rec.wrong == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }
    for problem in rec.problems:
        print(f"problem: {problem}", file=sys.stderr)
    details = dict(result, workload=wl.name, seed=args.seed, seconds=args.seconds,
                   rounds=rounds[False], traced_rounds=rounds[True], items=rec.untraced,
                   tail_pct=wl.tail_pct, tail_beyond=beyond, first_import_s=first_import,
                   setup_samples_s=setups, problems=rec.problems, env=environment(cpu),
                   reference=host.summary(),
                   measured_wall_s=round_seconds(rec.by_key(False, scaled=False), rounds[False]),
                   op_samples_ms={f"{label}{'' if scaled else '_measured'}":
                                  {k: [x * 1e3 for x in t]
                                   for k, t in rec.by_key(traced, scaled=scaled).items()}
                                  for label, traced in (("untraced", False), ("traced", True))
                                  for scaled in (True, False)})
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(details, fh, indent=1)
    if tracer is not None:
        with open(stem + ".spans.json", "w") as fh:
            json.dump(tracer.span_records(), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
