"""Per-layer spans, recorded by wrapping the program's module attributes.

The program is not edited: while a Tracer is installed, each function named
in LAYERS is replaced, in every trislither module that binds it, by a
wrapper that records a span (name, start, end, parent) and a few counts.
``uninstall`` puts the originals back. A function the program no longer
has is skipped, and its metrics read 0.

A layer's self time is its span's duration minus the time its child spans
cover. Each span keeps the reference sample its operation follows, so that
its times are scaled to the host's speed like the operation's (speed.py).
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import weakref
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name). A span name of None means the name is
# chosen per call (see Tracer._span_name).
LAYERS = (
    ("grid", "build_grid", "grid.build"),
    ("_kernels", "cycles_from_root", "kernels.dfs"),
    ("_kernels", "signature_words", "kernels.pack"),
    ("cycles", "census", "cycles.census"),
    ("cycles", "verify_pair", "cycles.verify_pair"),
    ("evenalg", "propagate_from_bottom", None),
    ("evenalg", "_rref", "evenalg.rref"),
    ("evenalg", "null_space_oracle", "evenalg.oracle"),
    ("evenalg", "basis_subset", "evenalg.basis"),
    ("evenalg", "totally_even_violation", "evenalg.even_check"),
    ("evenalg", "decompose", "evenalg.decompose"),
    ("evenalg", "recompose", "evenalg.recompose"),
    ("transversal", "build_transversal", "transversal.build"),
    ("transversal", "decompose_transversals", "transversal.decompose"),
    ("transversal", "alternation_check", "transversal.alternation"),
    ("fileio", "read_edge_set", "fileio.read"),
    ("fileio", "read_cycle", "fileio.read"),
    ("fileio", "write_edge_set", "fileio.write"),
    ("fileio", "write_cycle", "fileio.write"),
    ("svgfig", "render_svg", "svgfig.render"),
    ("cli", "main", None),
)

# Per-layer metrics: name -> (unit, how it is computed). "median_ms" is the
# median span duration; "self_s"/"total_s" sum self time or duration per
# round; "count" is a counter per round.
METRICS = {
    "grid.build_ms": ("ms", "median_ms", "grid.build"),
    "grid.builds": ("count", "spans", "grid.build"),
    "kernels.dfs_s": ("s", "total_s", "kernels.dfs"),
    "kernels.cycles": ("count", "count", "kernels.cycles"),
    "kernels.pack_s": ("s", "total_s", "kernels.pack"),
    "kernels.pack_rows": ("count", "count", "kernels.pack_rows"),
    "kernels.kept_ratio": ("ratio", "ratio", ("census.kept", "kernels.cycles")),
    "cycles.census_s": ("s", "total_s", "cycles.census"),
    "cycles.group_s": ("s", "self_s", "cycles.census"),
    "cycles.signatures": ("count", "count", "cycles.signatures"),
    "cycles.verify_pair_ms": ("ms", "median_ms", "cycles.verify_pair"),
    "evenalg.first_solve_ms": ("ms", "median_ms", "evenalg.first_solve"),
    "evenalg.rref_s": ("s", "total_s", "evenalg.rref"),
    "evenalg.oracle_ms": ("ms", "median_ms", "evenalg.oracle"),
    "evenalg.solve_ms": ("ms", "median_ms", "evenalg.solve"),
    "evenalg.basis_ms": ("ms", "median_ms", "evenalg.basis"),
    "evenalg.even_check_ms": ("ms", "median_ms", "evenalg.even_check"),
    "evenalg.decompose_ms": ("ms", "median_ms", "evenalg.decompose"),
    "transversal.build_ms": ("ms", "median_ms", "transversal.build"),
    "transversal.decompose_ms": ("ms", "median_ms", "transversal.decompose"),
    "transversal.alternation_ms": ("ms", "median_ms", "transversal.alternation"),
    "fileio.read_ms": ("ms", "median_ms", "fileio.read"),
    "fileio.write_ms": ("ms", "median_ms", "fileio.write"),
    "fileio.bytes_read": ("bytes", "count", "fileio.bytes_read"),
    "fileio.bytes_written": ("bytes", "count", "fileio.bytes_written"),
    "svgfig.render_ms": ("ms", "median_ms", "svgfig.render"),
    "cli.basis_ms": ("ms", "median_ms", "cli.basis"),
    "cli.verify_ms": ("ms", "median_ms", "cli.verify"),
    "cli.transversal_ms": ("ms", "median_ms", "cli.transversal"),
    "cli.svg_ms": ("ms", "median_ms", "cli.svg"),
    "cli.rejected": ("count", "count", "cli.rejected"),
}


def _path_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Spans and counters for the rounds run while it is installed."""

    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(float)
        # Index of the reference sample the running operation follows.
        self.ref = 0
        self._self_total = 0.0
        self._stack: list = []
        self._patches: list = []
        self._solved = weakref.WeakSet()

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "trislither"]
        for mod_name, attr, span in LAYERS:
            home = sys.modules.get(f"trislither.{mod_name}")
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, span)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- recording --------------------------------------------------------

    def self_seconds(self) -> float:
        """Self time of every span ended so far, all layers together."""
        return self._self_total

    def _span_name(self, fn, args) -> str:
        if fn.__name__ == "main":
            return f"cli.{args[0][0]}" if args and args[0] else "cli.main"
        # propagate_from_bottom: the first call on a grid pays for the
        # elimination, later calls reuse it.
        g = args[0]
        if g in self._solved:
            return "evenalg.solve"
        self._solved.add(g)
        return "evenalg.first_solve"

    def _wrap(self, fn, span):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span or tracer._span_name(fn, args)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                tracer.spans[index] = (name, t0, t1, parent, duration - frame[1], tracer.ref)
                tracer._self_total += duration - frame[1]
            tracer._count(name, args, result)
            return result

        return traced

    def _count(self, name, args, result) -> None:
        c = self.counts
        if name == "kernels.dfs":
            c["kernels.cycles"] += result.shape[0]
        elif name == "kernels.pack":
            c["kernels.pack_rows"] += args[0].shape[0]
        elif name == "cycles.census":
            c["census.kept"] += result.total_cycles
            c["cycles.signatures"] += result.distinct_signatures
        elif name == "fileio.read":
            c["fileio.bytes_read"] += _path_size(args[0])
        elif name == "fileio.write":
            c["fileio.bytes_written"] += _path_size(args[0])
        elif name.startswith("cli.") and result == 2:
            c["cli.rejected"] += 1

    # -- reporting --------------------------------------------------------

    def metrics(self, rounds: int, factor) -> dict:
        """Per-layer metrics; ``factor(ref)`` scales the times of a span."""
        durations, total, self_time = defaultdict(list), defaultdict(float), defaultdict(float)
        for name, t0, t1, _, own, ref in filter(None, self.spans):
            scale = factor(ref)
            durations[name].append((t1 - t0) * scale)
            total[name] += (t1 - t0) * scale
            self_time[name] += own * scale
        out = {}
        for name, (unit, how, source) in METRICS.items():
            if how == "median_ms":
                samples = durations.get(source)
                value = statistics.median(samples) * 1e3 if samples else 0.0
            elif how == "spans":
                value = len(durations.get(source, ())) / rounds
            elif how == "total_s":
                value = total.get(source, 0.0) / rounds
            elif how == "self_s":
                value = self_time.get(source, 0.0) / rounds
            elif how == "count":
                value = self.counts.get(source, 0.0) / rounds
            else:
                kept, seen = (self.counts.get(k, 0.0) for k in source)
                value = kept / seen if seen else 0.0
            out[name] = {"value": value, "unit": unit}
        return out

    def span_records(self) -> list:
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3]}
            for s in self.spans
            if s is not None
        ]
