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
starting with ``#`` are skipped; every field of an ``edge`` or ``walk``
record is a plain ASCII integer (``-?[0-9]+``).

Reading splits each line once. The records are then checked as one text
by a regular expression, their fields converted by one ``np.array`` call,
and the edges looked up, all at once, by ``TriGrid.edge_ids``; a stable
sort finds repeated edges. No ``Vertex`` or ``Edge`` object is built
unless a record is at fault. A file with several faults reports the one on
its earliest line, header faults first.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .cycles import Cycle, validate_cycle
from .errors import FileFormatError, InvalidEdgeError
from .evenalg import EdgeSet
from .grid import Edge, TriGrid, Vertex, build_grid

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
    if len(parts) != 2 or not parts[1].isdecimal():
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


def _coordinates(fields: list[str]) -> np.ndarray:
    # 0 and MAX_SIDE + 2 are off every grid, so clipping keeps an off-grid
    # value off it; every value that is not clipped is exact in float64.
    return np.array(fields, dtype=np.float64).clip(0, MAX_SIDE + 2).astype(np.int64)


def _edge(path: str, g: TriGrid, record) -> Edge:
    """The edge an ``edge`` record names, or its error."""
    line_no, parts = record
    x1, y1, x2, y2 = map(int, parts[1:])
    try:
        return g.edge_between((x1, y1), (x2, y2))
    except InvalidEdgeError as exc:
        raise FileFormatError(path, line_no, str(exc)) from None


def _edge_records(path: str, g: TriGrid, records) -> EdgeSet:
    """The edge set of ``edge`` records, each naming a new edge of ``g``.

    Of several faults the one on the earliest line is reported: a record
    that is not an edge record with integer fields ends the well-formed
    run, a pair that is no edge of ``g`` ends the run of edges, and a
    repeated edge is reported at its second line.
    """
    fields, error = _int_fields(path, records, "edge")
    ids = g.edge_ids(*_coordinates(fields).reshape(-1, 4).T)
    off = np.flatnonzero(ids < 0)
    head = ids[: off[0]] if off.size else ids
    order = np.argsort(head, kind="stable")
    repeats = order[1:][head[order[1:]] == head[order[:-1]]]
    if repeats.size:
        k = repeats.min()
        raise FileFormatError(path, records[k][0], f"duplicate edge {_edge(path, g, records[k])}")
    if off.size:
        _edge(path, g, records[off[0]])  # raises: the pair is no edge of g
    if error is not None:
        raise error
    bits = np.zeros(g.num_edges, dtype=bool)
    bits[ids] = True
    return EdgeSet(g, bits)


def loads_edge_set(text: str, path: str = "<string>") -> EdgeSet:
    n, records = _parse_lines(path, text)
    return _edge_records(path, build_grid(n), records)


def read_edge_set(path: str | os.PathLike) -> EdgeSet:
    with open(path, "r", encoding="ascii") as fh:
        return loads_edge_set(fh.read(), path=str(path))


# -- cycles -------------------------------------------------------------------

_SEGMENT_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1), (-1, 1), (1, -1))


def corner_walk_edges(g: TriGrid, corners: list[tuple[int, int]]) -> list[Edge]:
    """Decompose a closed corner walk into unit edges.

    Each segment must run along one of the three grid directions; the walk
    must end where it started and may not reuse a unit edge.
    """
    if len(corners) < 2 or corners[0] != corners[-1]:
        raise ValueError("corner walk must be closed (first corner repeated at the end)")
    edges: list[Edge] = []
    seen = set()
    for (x1, y1), (x2, y2) in zip(corners, corners[1:]):
        dx, dy = x2 - x1, y2 - y1
        steps = max(abs(dx), abs(dy))
        if steps == 0:
            raise ValueError(f"zero-length segment at corner ({x1},{y1})")
        ux, uy = dx // steps, dy // steps
        if (ux, uy) not in _SEGMENT_DIRS or (ux * steps, uy * steps) != (dx, dy):
            raise ValueError(
                f"segment ({x1},{y1})->({x2},{y2}) does not follow a grid direction"
            )
        for k in range(steps):
            a = Vertex(x1 + k * ux, y1 + k * uy)
            b = Vertex(x1 + (k + 1) * ux, y1 + (k + 1) * uy)
            e = g.edge_between(a, b)
            if e in seen:
                raise ValueError(f"walk reuses edge {e}")
            seen.add(e)
            edges.append(e)
    return edges


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
        except Exception as exc:
            raise FileFormatError(path, records[0][0], str(exc)) from None
    if kinds == {"walk"}:
        fields, error = _int_fields(path, records, "walk")
        if error is not None:
            raise error
        corners = list(zip(map(int, fields[::2]), map(int, fields[1::2])))
        try:
            edges = corner_walk_edges(g, corners)
            return validate_cycle(g, EdgeSet.from_edges(g, edges))
        except Exception as exc:
            raise FileFormatError(path, records[0][0], str(exc)) from None
    raise FileFormatError(
        path, records[0][0], "cycle file must contain only edge lines or only walk lines"
    )


def read_cycle(path: str | os.PathLike) -> Cycle:
    with open(path, "r", encoding="ascii") as fh:
        return loads_cycle(fh.read(), path=str(path))
