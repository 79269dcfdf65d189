"""Line-oriented text formats for edge sets and cycles.

Edge-set file::

    n 5
    edge 1 1 2 1
    edge 4 1 5 1

Cycle file: the same ``n`` header followed either by ``edge`` lines or by
a closed corner walk, one corner per ``walk x y`` line. Walk segments may
span several unit edges but must run along one of the three grid
directions. Saved files list edges in canonical index order, so saving a
loaded canonical file reproduces it byte for byte.
"""

from __future__ import annotations

import os

import numpy as np

from .cycles import Cycle, validate_cycle
from .errors import FileFormatError
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
    n = None
    records = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            if n is not None:
                raise FileFormatError(path, line_no, "duplicate n line")
            if len(parts) != 2 or not parts[1].isdecimal():
                raise FileFormatError(path, line_no, f"malformed n line: {raw!r}")
            n = int(parts[1])
            if not 1 <= n <= MAX_SIDE:
                raise FileFormatError(path, line_no, f"grid side {n} is outside 1..{MAX_SIDE}")
            continue
        if n is None:
            raise FileFormatError(path, line_no, "first line must declare n")
        records.append((line_no, parts))
    if n is None:
        raise FileFormatError(path, 0, "missing n line")
    return n, records


def _ints(path: str, line_no: int, parts: list[str], count: int) -> list[int]:
    if len(parts) != count + 1:
        raise FileFormatError(path, line_no, f"expected {count} integers: {' '.join(parts)!r}")
    try:
        return [int(p) for p in parts[1:]]
    except ValueError:
        raise FileFormatError(path, line_no, f"non-integer field: {' '.join(parts)!r}") from None


def _edge_records(path: str, g: TriGrid, records) -> EdgeSet:
    """The edge set of ``edge`` records, each naming a new edge of ``g``."""
    edges: list[Edge] = []
    seen = set()
    for line_no, parts in records:
        if parts[0] != "edge":
            raise FileFormatError(path, line_no, f"unexpected record {parts[0]!r}")
        x1, y1, x2, y2 = _ints(path, line_no, parts, 4)
        try:
            e = g.edge_between((x1, y1), (x2, y2))
        except Exception as exc:
            raise FileFormatError(path, line_no, str(exc)) from None
        if e in seen:
            raise FileFormatError(path, line_no, f"duplicate edge {e}")
        seen.add(e)
        edges.append(e)
    return EdgeSet.from_edges(g, edges)


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
        corners = []
        for line_no, parts in records:
            x, y = _ints(path, line_no, parts, 2)
            corners.append((x, y))
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
