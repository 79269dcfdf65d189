"""Line-oriented text formats for edge sets and cycles.

Edge-set file::

    n 5
    edge 1 1 2 1
    edge 4 1 5 1

Cycle file: the same ``n`` header followed either by ``edge`` lines or by
a closed corner walk, one corner per ``walk x y`` line. Walk segments may
span several unit edges but must run along one of the three grid
directions. Saved files list edges in canonical index order, so saving a
loaded canonical file reproduces it byte for byte. Blank lines and lines
starting with ``#`` are skipped. The side is plain ASCII digits
(``[0-9]+``) and every field of an ``edge`` or ``walk`` record a plain
ASCII integer (``-?[0-9]+``).

Reading splits each line once. The records are then checked as one text
by a regular expression, their fields converted by one ``np.array`` call,
and the edges, or a walk's unit steps, looked up at once by
``TriGrid.edge_ids``; a stable sort finds repeats. No ``Vertex`` or
``Edge`` object is built unless a record is at fault. A file with several
faults reports the one on its earliest line, header faults first.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .cycles import Cycle, validate_cycle
from .errors import FileFormatError, InvalidEdgeError
from .evenalg import EdgeSet
from .grid import TriGrid, build_grid

# Largest grid side a file may declare. A side-256 grid takes about 0.1 s
# and 35 MB to build and every later step scales with the square of the
# side, so a larger side is refused before the build.
MAX_SIDE = 256


def dumps_edge_set(a: EdgeSet) -> str:
    g = a.grid
    idx = np.flatnonzero(a.bits)
    ends = np.hstack([g.vertex_xy[g.u_of_edge[idx]], g.vertex_xy[g.v_of_edge[idx]]])
    lines = [f"n {g.n}"] + [f"edge {x1} {y1} {x2} {y2}" for x1, y1, x2, y2 in ends.tolist()]
    return "\n".join(lines) + "\n"


def write_edge_set(path: str | os.PathLike, a: EdgeSet) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_edge_set(a))


def _parse_lines(path: str, text: str):
    """The grid side and the (line number, fields) of every record after the
    ``n`` header. A header fault is reported before any record fault."""
    lines = [
        (line_no, parts)
        for line_no, parts in enumerate(map(str.split, text.splitlines()), start=1)
        if parts and not parts[0].startswith("#")
    ]
    if not lines:
        raise FileFormatError(path, 0, "missing n line")
    heads = [k for k, (_, parts) in enumerate(lines) if parts[0] == "n"]
    line_no, parts = lines[0]
    if not heads or heads[0] > 0:
        raise FileFormatError(path, line_no, "first line must declare n")
    if len(parts) != 2 or not (parts[1].isascii() and parts[1].isdecimal()):
        raw = text.splitlines()[line_no - 1]
        raise FileFormatError(path, line_no, f"malformed n line: {raw!r}")
    n = int(parts[1])
    if not 1 <= n <= MAX_SIDE:
        raise FileFormatError(path, line_no, f"grid side {n} is outside 1..{MAX_SIDE}")
    if len(heads) > 1:
        raise FileFormatError(path, lines[heads[1]][0], "duplicate n line")
    return n, lines[1:]


_FIELD_COUNTS = {"edge": 4, "walk": 2}
# A run of whole records, each its kind and plain ASCII integers, one a line.
_RECORD_RUNS = {
    kind: re.compile(rf"(?:{kind}(?: -?[0-9]+){{{count}}}\n)*")
    for kind, count in _FIELD_COUNTS.items()
}


def _int_fields(path: str, records, kind: str) -> tuple[list[str], FileFormatError | None]:
    """The fields, as strings, of the leading ``kind`` records whose fields
    are plain integers, and the error of the record after them, if any.

    The records are joined back into one text, one record a line, so that
    one regular expression checks them all; its match ends where the first
    faulty record starts. This is about three times as fast as a match per
    record (0.7 against 1.9 ms for the 1,769 records of a side-48 file,
    2-vCPU VM, Python 3.11).
    """
    count = _FIELD_COUNTS[kind]
    text = "\n".join([" ".join(parts) for _, parts in records]) + "\n"
    # The words of the good records: kind, count fields, kind, count fields, ...
    fields = text[: _RECORD_RUNS[kind].match(text).end()].split()
    del fields[:: count + 1]  # drop the kinds
    k = len(fields) // count
    if k == len(records):
        return fields, None
    line_no, parts = records[k]
    if parts[0] != kind:
        message = f"unexpected record {parts[0]!r}"
    elif len(parts) != count + 1:
        message = f"expected {count} integers: {' '.join(parts)!r}"
    else:
        message = f"non-integer field: {' '.join(parts)!r}"
    return fields, FileFormatError(path, line_no, message)


def _first_fault(ids: np.ndarray) -> int:
    """Position of the first id that is -1 or repeats an earlier one, else len(ids)."""
    off = np.flatnonzero(ids < 0)
    head = ids[: off[0]] if off.size else ids
    order = np.argsort(head, kind="stable")
    repeats = order[1:][head[order[1:]] == head[order[:-1]]]
    if repeats.size:
        return int(repeats.min())
    return int(off[0]) if off.size else len(ids)


def _edge_records(path: str, g: TriGrid, records) -> EdgeSet:
    """The edge set of ``edge`` records, each naming a new edge of ``g``.

    Of several faults the one on the earliest line is reported: a record
    that is not an edge record with integer fields ends the well-formed
    run, a pair that is no edge of ``g`` ends the run of edges, and a
    repeated edge is reported at its second line.
    """
    fields, error = _int_fields(path, records, "edge")
    # float64 is exact up to 2^53, and clipping takes any larger value off the grid.
    xy = np.array(fields, dtype=np.float64).clip(0, g.n + 3).astype(np.int64)
    ids = g.edge_ids(*xy.reshape(-1, 4).T)
    k = _first_fault(ids)
    if k < len(ids):
        line_no, parts = records[k]
        x1, y1, x2, y2 = map(int, parts[1:])
        try:
            edge = g.edge_between((x1, y1), (x2, y2))
        except InvalidEdgeError as exc:
            raise FileFormatError(path, line_no, str(exc)) from None
        raise FileFormatError(path, line_no, f"duplicate edge {edge}")
    if error is not None:
        raise error
    return EdgeSet(g, np.bincount(ids, minlength=g.num_edges) > 0)


def loads_edge_set(text: str, path: str = "<string>") -> EdgeSet:
    n, records = _parse_lines(path, text)
    return _edge_records(path, build_grid(n), records)


def read_edge_set(path: str | os.PathLike) -> EdgeSet:
    with open(path, "r", encoding="ascii") as fh:
        return loads_edge_set(fh.read(), path=str(path))


# -- cycles -------------------------------------------------------------------

def corner_walk_edges(g: TriGrid, corners: list[tuple[int, int]]) -> np.ndarray:
    """The edge indices of a closed corner walk's unit steps, in walk order.

    Each segment must run along one of the three grid directions; the walk
    must end where it started and may not reuse a unit edge. The first
    fault in walk order is raised as a ValueError.
    """
    if len(corners) < 2 or corners[0] != corners[-1]:
        raise ValueError("corner walk must be closed (first corner repeated at the end)")
    # Every step before the first fault is a new edge of g, so the first
    # fault is among the first num_edges + 1 steps; no more are taken.
    cap, total, units, steps, fault = g.num_edges + 1, 0, [], [], None
    for (x1, y1), (x2, y2) in zip(corners, corners[1:]):
        dx, dy = x2 - x1, y2 - y1
        if dx == dy == 0:
            fault = f"zero-length segment at corner ({x1},{y1})"
        elif dx and dy and dx != -dy:
            fault = f"segment ({x1},{y1})->({x2},{y2}) does not follow a grid direction"
        if fault or total == cap:
            break
        units.append(((dx > 0) - (dx < 0), (dy > 0) - (dy < 0)))
        steps.append(min(max(abs(dx), abs(dy)), cap - total))
        total += steps[-1]
    u = np.repeat(np.array(units, dtype=np.int64).reshape(-1, 2), steps, axis=0)
    # Where each step starts; from a start off the grid, the first step fails.
    start = corners[0] if g.has_vertex(*corners[0]) else (0, 0)
    p = np.array(start) + np.cumsum(u, axis=0) - u
    ids = g.edge_ids(*p.T, *(p + u).T)
    f = _first_fault(ids)
    if f < len(ids):
        a = corners[0] if f == 0 else tuple(p[f].tolist())
        b = (a[0] + int(u[f, 0]), a[1] + int(u[f, 1]))
        raise ValueError(f"walk reuses edge {g.edge_between(a, b)}")  # raises if off the grid
    if fault:
        raise ValueError(fault)
    return ids


def dumps_cycle(c: Cycle) -> str:
    return dumps_edge_set(c.edge_set)


def write_cycle(path: str | os.PathLike, c: Cycle) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_cycle(c))


def loads_cycle(text: str, path: str = "<string>") -> Cycle:
    n, records = _parse_lines(path, text)
    g = build_grid(n)
    kinds = {parts[0] for _, parts in records}
    if not records:
        raise FileFormatError(path, 0, "cycle file has no edge or walk records")
    if kinds == {"edge"}:
        a = _edge_records(path, g, records)
        try:
            return validate_cycle(g, a)
        except ValueError as exc:
            raise FileFormatError(path, records[0][0], str(exc)) from None
    if kinds == {"walk"}:
        fields, error = _int_fields(path, records, "walk")
        if error is not None:
            raise error
        corners = list(zip(map(int, fields[::2]), map(int, fields[1::2])))
        try:
            ids = corner_walk_edges(g, corners)
            return validate_cycle(g, EdgeSet(g, np.bincount(ids, minlength=g.num_edges) > 0))
        except ValueError as exc:
            raise FileFormatError(path, records[0][0], str(exc)) from None
    raise FileFormatError(
        path, records[0][0], "cycle file must contain only edge lines or only walk lines"
    )


def read_cycle(path: str | os.PathLike) -> Cycle:
    with open(path, "r", encoding="ascii") as fh:
        return loads_cycle(fh.read(), path=str(path))
