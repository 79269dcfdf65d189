"""Independent brute-force oracles and per-object references.

The subset oracles deliberately avoid the library's linear algebra and
DFS: they filter all 2^|E| edge subsets directly, so they only make sense
for tiny grids. The null-space oracle below is the dense Gauss-Jordan form
of the banded elimination in ``trislither.evenalg``. The side rewiring, the file reader, the corner walk and
the SVG renderer below are the step-by-step, object-by-object forms of
the array paths in ``trislither.cycles``, ``trislither.fileio`` and
``trislither.svgfig``. The cycle DFS below is the census kernel without its
pruning: it extends every path, whether or not the path can still close.
The alive walk is the census kernel without its shared search states.
"""

import functools
import math
import re

import numpy as np

from trislither import (
    EdgeSet,
    FileFormatError,
    InvalidEdgeError,
    InvalidInputError,
    RewireError,
    Side,
    TriGrid,
    build_grid,
)
from trislither._kernels import _SPLITS, _flood, _ring
from trislither.cycles import signature, validate_cycle
from trislither.evenalg import _int_bits, permute_bits
from trislither.fileio import MAX_SIDE
from trislither.grid import Dir, Edge, Face, Vertex


def edge_mask(edge_set) -> int:
    """Edge set -> integer bitmask over edge indices."""
    return int(sum(1 << int(i) for i in np.flatnonzero(edge_set.bits)))


def reference_neighbours(g: TriGrid) -> list[list[tuple[int, int]]]:
    """(neighbour, edge) of each vertex, sorted by neighbour, from the edge
    ends ``u_of_edge`` and ``v_of_edge`` alone."""
    incident = [[] for _ in range(g.num_vertices)]
    for e, (u, v) in enumerate(zip(g.u_of_edge.tolist(), g.v_of_edge.tolist())):
        incident[u].append((v, e))
        incident[v].append((u, e))
    return [sorted(inc) for inc in incident]


def all_even_subset_masks(g: TriGrid) -> set[int]:
    """Every subset meeting each vertex and finite face evenly."""
    n_edges = g.num_edges
    assert n_edges <= 20, "oracle is exponential in the edge count"
    masks = np.arange(1 << n_edges, dtype=np.int64)
    ok = np.ones(masks.shape, dtype=bool)
    constraints = [[e for _, e in inc] for inc in reference_neighbours(g)]
    constraints += [list(map(int, triple)) for triple in g.face_edges_idx]
    for edges in constraints:
        par = np.zeros(masks.shape, dtype=np.int8)
        for ei in edges:
            par ^= ((masks >> ei) & 1).astype(np.int8)
        ok &= par == 0
    return {int(m) for m in masks[ok]}


def _reference_constraint_rows(g: TriGrid) -> list[int]:
    """Vertex-parity and face-parity rows, one int bitset per constraint."""
    rows = []
    for inc in reference_neighbours(g):
        row = 0
        for _, ei in inc:
            row |= 1 << ei
        rows.append(row)
    for triple in g.face_edges_idx:
        row = 0
        for ei in triple:
            row |= 1 << int(ei)
        rows.append(row)
    return rows


def _reference_rref(rows: list[int], cols) -> tuple[list[int], dict[int, int]]:
    """Gauss-Jordan elimination; returns reduced rows and {pivot_col: row}."""
    rows = rows[:]
    pivots: dict[int, int] = {}
    r = 0
    for c in cols:
        bit = 1 << c
        pivot_row = None
        for k in range(r, len(rows)):
            if rows[k] & bit:
                pivot_row = k
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        for k in range(len(rows)):
            if k != r and rows[k] & bit:
                rows[k] ^= rows[r]
        pivots[c] = r
        r += 1
    return rows, pivots


def reference_null_space_oracle(g: TriGrid) -> tuple[list[EdgeSet], int]:
    """``trislither.null_space_oracle`` by dense Gauss-Jordan elimination of
    full-width int rows: one basis vector per free column, in column order.
    Quadratic in the edge count in memory, so only for moderate sides."""
    n_edges = g.num_edges
    rows, pivots = _reference_rref(_reference_constraint_rows(g), range(n_edges))
    free_cols = [c for c in range(n_edges) if c not in pivots]
    basis = []
    for c in free_cols:
        vec = 1 << c
        cbit = 1 << c
        for pc, pr in pivots.items():
            if rows[pr] & cbit:
                vec |= 1 << pc
        basis.append(EdgeSet(g, _int_bits(vec, n_edges)))
    return basis, len(free_cols)


def _is_single_cycle(g: TriGrid, mask: int) -> bool:
    # Degrees already known to be 0 or 2; check one connected component.
    adj: dict[int, list[int]] = {}
    for ei in range(g.num_edges):
        if (mask >> ei) & 1:
            u, v = int(g.u_of_edge[ei]), int(g.v_of_edge[ei])
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
    start = min(adj)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(adj)


def simple_cycle_masks(g: TriGrid) -> set[int]:
    """Every simple cycle, by filtering all 2^|E| subsets."""
    n_edges = g.num_edges
    assert n_edges <= 20, "oracle is exponential in the edge count"
    masks = np.arange(1 << n_edges, dtype=np.int64)
    deg = np.zeros((masks.shape[0], g.num_vertices), dtype=np.int8)
    for ei in range(n_edges):
        bit = ((masks >> ei) & 1).astype(np.int8)
        deg[:, int(g.u_of_edge[ei])] += bit
        deg[:, int(g.v_of_edge[ei])] += bit
    candidates = masks[((deg == 0) | (deg == 2)).all(axis=1) & (masks != 0)]
    return {int(m) for m in candidates if _is_single_cycle(g, int(m))}


def reference_layout(n: int) -> dict:
    """Every index array of the side-n grid, from the layout rules in the
    ``trislither.grid`` docstring, with plain loops, dicts and sets."""
    verts = [(x, y) for y in range(1, n + 2) for x in range(1, n + 3 - y)]
    vid = {v: i for i, v in enumerate(verts)}
    steps = {Dir.E: (1, 0), Dir.NE: (0, 1), Dir.NW: (-1, 1)}
    slot = [-1] * (3 * len(verts))
    ends, dirs = [], []
    for i, (x, y) in enumerate(verts):
        for d in sorted(steps):
            tip = (x + steps[d][0], y + steps[d][1])
            if tip in vid:
                slot[3 * i + d] = len(ends)
                ends.append((i, vid[tip]))
                dirs.append(int(d))
    eid = {frozenset(e): k for k, e in enumerate(ends)}

    def edge(a, b):
        return eid[frozenset((vid[a], vid[b]))]

    faces = []
    for y in range(1, n + 1):
        for x in range(1, n + 2 - y):
            faces.append([(x, y), (x + 1, y), (x, y + 1)])
            if (x + 1, y + 1) in vid:
                faces.append([(x + 1, y), (x, y + 1), (x + 1, y + 1)])
    face_edges = [[edge(c[0], c[1]), edge(c[0], c[2]), edge(c[1], c[2])] for c in faces]
    count = [0] * len(ends)
    for triple in face_edges:
        for e in triple:
            count[e] += 1
    # The six neighbour positions of (x, y) in rising vertex index.
    around = ((0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1))

    def reflect(x, y):
        return (n + 3 - x - y, y)

    def rotate(x, y):
        return (y, n + 3 - x - y)

    def image(f):
        return [edge(f(*verts[u]), f(*verts[v])) for u, v in ends]

    return {
        "vertex_xy": [list(v) for v in verts],
        "edge_slot": slot,
        "u_of_edge": [u for u, _ in ends],
        "v_of_edge": [v for _, v in ends],
        "edge_dir": dirs,
        "face_edges_idx": face_edges,
        "edge_face_count": count,
        "boundary_edge_mask": [c == 1 for c in count],
        "nbr_edge": [
            [edge((x, y), (x + dx, y + dy)) if (x + dx, y + dy) in vid else -1 for dx, dy in around]
            for x, y in verts
        ],
        "bottom_edge_idx": [edge((i, 1), (i + 1, 1)) for i in range(1, n + 1)],
        "reflect_eperm": image(reflect),
        "rotate_eperm": image(rotate),
        "middle_edge_idx": [k for k, (u, v) in enumerate(ends) if reflect(*verts[u]) == verts[v]],
    }


@functools.cache
def reference_edge_index(n: int) -> dict:
    """The index of the edge joining each ordered pair of adjacent vertices
    of the side-n grid, keyed by ((x1, y1), (x2, y2)), from
    ``reference_layout``."""
    ref = reference_layout(n)
    xy = [tuple(v) for v in ref["vertex_xy"]]
    index = {}
    for k, (u, v) in enumerate(zip(ref["u_of_edge"], ref["v_of_edge"])):
        index[xy[u], xy[v]] = index[xy[v], xy[u]] = k
    return index


def reference_edge_between(g, a, b):
    """``g.edge_between`` on two (x, y) tuples, by a lookup in
    ``reference_edge_index``."""
    k = reference_edge_index(g.n).get((a, b))
    if k is None:
        raise InvalidEdgeError(
            f"({a[0]},{a[1]}) and ({b[0]},{b[1]}) are not adjacent in the side-{g.n} grid"
        )
    return g.edges[k]


# -- rewiring ----------------------------------------------------------------


def reference_rewire_shared_side(g, c1, c2, max_rounds=9):
    """``rewire_shared_side`` by rotating both edge vectors until the
    deficient side lies at the bottom, swapping ``Edge`` objects there, and
    rotating them back."""
    if c1.edge_set == c2.edge_set:
        raise InvalidInputError("the two cycles must be distinct")
    if signature(g, c1) != signature(g, c2):
        raise InvalidInputError("the two cycles must have equal signatures")
    spins = {Side.BOTTOM: 0, Side.LEFT: 2, Side.RIGHT: 1}
    b1 = c1.edge_set.bits.copy()
    b2 = c2.edge_set.bits.copy()
    rounds = 0
    while True:
        missing = [s for s in Side if not (b1 & b2)[g.side_edge_indices(s)].any()]
        if not missing:
            break
        if rounds >= max_rounds:
            raise RewireError(f"no fixpoint after {rounds} rounds; still missing {missing}")
        rounds += 1
        side = missing[0]
        for _ in range(spins[side]):
            b1, b2 = permute_bits(b1, g.rotate_eperm), permute_bits(b2, g.rotate_eperm)
        shared = b1 & b2
        diagonals = [
            j for j in range(2, g.n + 2) if shared[g.edge_index(Edge(Vertex(j, 1), Dir.NW))]
        ]
        if not diagonals:
            raise RewireError(
                f"no shared first-row diagonal available to rewire side {side.value}"
            )
        j = diagonals[0]
        for bits in (b1, b2):
            for e in (
                Edge(Vertex(j, 1), Dir.NW),
                Edge(Vertex(j - 1, 1), Dir.E),
                Edge(Vertex(j - 1, 1), Dir.NE),
            ):
                bits[g.edge_index(e)] ^= True
        for _ in range((3 - spins[side]) % 3):
            b1, b2 = permute_bits(b1, g.rotate_eperm), permute_bits(b2, g.rotate_eperm)
        r1 = validate_cycle(g, EdgeSet(g, b1))
        r2 = validate_cycle(g, EdgeSet(g, b2))
        if signature(g, r1) != signature(g, r2):
            raise RewireError("rewiring broke signature equality")
        if r1.edge_set == r2.edge_set:
            raise RewireError("rewiring collapsed the two cycles")
    return validate_cycle(g, EdgeSet(g, b1)), validate_cycle(g, EdgeSet(g, b2))


# -- files ----------------------------------------------------------------


def _reference_lines(path, text):
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
            if len(parts) != 2 or not re.fullmatch("[0-9]+", parts[1]):
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


def _reference_ints(path, line_no, parts, count):
    if len(parts) != count + 1:
        raise FileFormatError(path, line_no, f"expected {count} integers: {' '.join(parts)!r}")
    if not all(re.fullmatch(r"-?[0-9]+", p) for p in parts[1:]):
        raise FileFormatError(path, line_no, f"non-integer field: {' '.join(parts)!r}")
    return [int(p) for p in parts[1:]]


def _reference_edge_records(path, g, records):
    edges = []
    seen = set()
    for line_no, parts in records:
        if parts[0] != "edge":
            raise FileFormatError(path, line_no, f"unexpected record {parts[0]!r}")
        x1, y1, x2, y2 = _reference_ints(path, line_no, parts, 4)
        try:
            e = reference_edge_between(g, (x1, y1), (x2, y2))
        except InvalidEdgeError as exc:
            raise FileFormatError(path, line_no, str(exc)) from None
        if e in seen:
            raise FileFormatError(path, line_no, f"duplicate edge {e}")
        seen.add(e)
        edges.append(e)
    return EdgeSet.from_edges(g, edges)


def reference_loads_edge_set(text, path="<string>"):
    """``loads_edge_set`` one line and one ``Edge`` at a time, with a set of
    the edges seen so far."""
    n, records = _reference_lines(path, text)
    return _reference_edge_records(path, build_grid(n), records)


_SEGMENT_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1), (-1, 1), (1, -1))


def reference_corner_walk_edges(g, corners):
    """``corner_walk_edges`` one unit step and one ``Edge`` at a time, with a
    set of the edges seen so far; returns the ``Edge`` objects in walk
    order."""
    if len(corners) < 2 or corners[0] != corners[-1]:
        raise ValueError("corner walk must be closed (first corner repeated at the end)")
    edges = []
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
            a = (x1 + k * ux, y1 + k * uy)
            b = (x1 + (k + 1) * ux, y1 + (k + 1) * uy)
            e = reference_edge_between(g, a, b)
            if e in seen:
                raise ValueError(f"walk reuses edge {e}")
            seen.add(e)
            edges.append(e)
    return edges


def reference_loads_cycle(text, path="<string>"):
    """``loads_cycle`` one line at a time."""
    n, records = _reference_lines(path, text)
    g = build_grid(n)
    kinds = {parts[0] for _, parts in records}
    if not records:
        raise FileFormatError(path, 0, "cycle file has no edge or walk records")
    if kinds == {"edge"}:
        a = _reference_edge_records(path, g, records)
        try:
            return validate_cycle(g, a)
        except Exception as exc:
            raise FileFormatError(path, records[0][0], str(exc)) from None
    if kinds == {"walk"}:
        corners = [tuple(_reference_ints(path, no, parts, 2)) for no, parts in records]
        try:
            edges = reference_corner_walk_edges(g, corners)
            return validate_cycle(g, EdgeSet.from_edges(g, edges))
        except Exception as exc:
            raise FileFormatError(path, records[0][0], str(exc)) from None
    raise FileFormatError(
        path, records[0][0], "cycle file must contain only edge lines or only walk lines"
    )


# -- cycle DFS -------------------------------------------------------------


def reference_cycles_from_root(g, root, limit):
    """``trislither._kernels.walk_cycles`` as a plain DFS that enters
    every vertex above root off the path, one boolean edge row per cycle.

    A ``limit`` >= 1 stops after that many cycles; -1 means no limit.
    """
    n_edges = g.num_edges
    steps = [[(w, e) for w, e in inc if w >= root] for inc in reference_neighbours(g)]
    out = np.zeros((256, n_edges), dtype=bool)
    count = 0
    on_path = [False] * len(steps)
    on_path[root] = True
    path_vertex = [root]
    # path_edge[d] is the edge walked into path_vertex[d + 1].
    path_edge: list[int] = []
    branches = [iter(steps[root])]
    while branches:
        for w, e in branches[-1]:
            if w == root:
                if len(path_vertex) >= 3 and path_vertex[1] < path_vertex[-1]:
                    if count == out.shape[0]:
                        out = np.concatenate([out, np.zeros_like(out)])
                    out[count, path_edge + [e]] = True
                    count += 1
                    if 0 <= limit <= count:
                        return out[:count]
            elif not on_path[w]:
                on_path[w] = True
                path_vertex.append(w)
                path_edge.append(e)
                branches.append(iter(steps[w]))
                break
        else:
            branches.pop()
            on_path[path_vertex.pop()] = False
            if path_edge:
                path_edge.pop()
    return out[:count]


def reference_alive_walk(g, root):
    """``trislither._kernels.walk_cycles`` as a walk that recomputes the
    alive set on every step instead of sharing search states: the same
    ``num_edges``-byte rows in the same order.

    The walk enters a vertex only if it is alive: free (above root and off
    the path) and joined through free vertices to a free target. Entering
    a target or a local cut floods the alive set again; entering any other
    vertex removes its bit. A pop restores the set.
    """
    s1, s2 = g.n + 1, g.n + 2
    above = np.zeros(s2 * s2, dtype=bool)
    above[g.vertex_bit[root + 1 :]] = True
    free = int.from_bytes(np.packbits(above, bitorder="little").tobytes(), "little")
    steps = g.nbr_steps
    on_path = bytearray(g.num_edges)
    for first, first_edge, q in steps[root]:
        if first < root:
            continue
        targets = sum(1 << p for w, _, p in steps[root] if w > first)
        alive = _flood(targets, free ^ 1 << q, s1)
        if not _ring(alive, q, s2):
            continue
        on_path[first_edge] = 1
        # One frame per path vertex v: its untried steps, v, the edge and
        # bit of v, and the alive set before v if entering v flooded.
        frames = [(iter(steps[first]), first, first_edge, q, None)]
        while frames:
            branch, v, _, _, _ = frames[-1]
            for w, e, q in branch:
                if w == root:
                    if v > first:
                        on_path[e] = 1
                        yield bytes(on_path)
                        on_path[e] = 0
                elif alive >> q & 1:
                    saved = alive
                    alive ^= 1 << q
                    if targets >> q & 1 or _SPLITS[_ring(saved, q, s2)]:
                        alive = _flood(targets & alive, alive, s1)
                    else:
                        saved = None
                    on_path[e] = 1
                    frames.append((iter(steps[w]), w, e, q, saved))
                    break
            else:
                _, _, e, q, saved = frames.pop()
                on_path[e] = 0
                alive = alive | 1 << q if saved is None else saved


# -- SVG ------------------------------------------------------------------


def _reference_face_links(g, subset):
    """The (low, high) edge-index pairs of the ``Face`` objects of the grid
    that hold exactly two subset edges, sorted."""
    index, held = reference_edge_index(g.n), set(subset.edges())
    links = []
    for y in range(1, g.n + 1):
        for x in range(1, g.n + 2 - y):
            for up in (True, False) if x <= g.n - y else (True,):
                p, q, r = ((v.x, v.y) for v in Face(Vertex(x, y), up).corners)
                sides = (index[p, q], index[q, r], index[p, r])
                two = sorted(k for k in sides if g.edges[k] in held)
                if len(two) == 2:
                    links.append(tuple(two))
    return sorted(links)


def reference_render_svg(g, subset=None, transversals=False):
    """``render_svg`` over the ``Vertex``, ``Edge`` and ``Face`` objects of
    the grid, one element at a time, laid out at 40 px per unit edge."""
    s3h = math.sqrt(3.0) / 2.0
    unit = 40.0

    def fmt(value):
        return f"{value:.2f}"

    margin = 0.6 * unit
    height_units = g.n * s3h

    def place(v):
        x, y = (v.x - 1) + (v.y - 1) / 2.0, (v.y - 1) * s3h
        return margin + x * unit, margin + (height_units - y) * unit

    def line(a, b, stroke, width_px, cls):
        (x1, y1), (x2, y2) = a, b
        return (
            f'<line class="{cls}" x1="{fmt(x1)}" y1="{fmt(y1)}" '
            f'x2="{fmt(x2)}" y2="{fmt(y2)}" stroke="{stroke}" '
            f'stroke-width="{fmt(width_px)}" stroke-linecap="round"/>'
        )

    def mid(k):
        (x1, y1), (x2, y2) = map(place, g.edges[k].endpoints)
        return (x1 + x2) / 2.0, (y1 + y2) / 2.0

    width = 2 * margin + g.n * unit
    height = 2 * margin + height_units * unit
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt(width)}" '
        f'height="{fmt(height)}" viewBox="0 0 {fmt(width)} {fmt(height)}">'
    ]
    for e in g.edges:
        u, v = e.endpoints
        out.append(line(place(u), place(v), "#c8c8c8", 0.04 * unit, "grid"))
    if subset is not None:
        for e in subset.edges():
            u, v = e.endpoints
            out.append(line(place(u), place(v), "#101010", 0.12 * unit, "subset"))
        if transversals:
            for a, b in _reference_face_links(g, subset):
                out.append(line(mid(a), mid(b), "#c03030", 0.05 * unit, "transversal"))
    for v in g.vertices:
        cx, cy = place(v)
        out.append(f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="{fmt(0.07 * unit)}" fill="#000000"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
