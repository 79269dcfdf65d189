"""The triangular grid with n edges per side, as an immutable plane graph.

Vertices carry coordinates (x, y): y is the row counted from the bottom
(starting at 1) and x is the position within the row counted from the left.
Row y holds the x values 1 .. n+2-y, so the grid has C(n+2, 2) vertices,
3*C(n+1, 2) edges and n^2 unit-triangle finite faces.

Every edge is stored canonically as a base vertex plus one of three
directions:

    E   {(x, y), (x+1, y)}     horizontal, to the right
    NE  {(x, y), (x, y+1)}     up and to the right
    NW  {(x, y), (x-1, y+1)}   up and to the left

which makes edge equality bitwise and gives a perfect hash
3 * vertex_index + direction for flat storage.

Index layout: vertices are numbered row by row from the bottom, left to
right within a row; edges in the order of that hash (by base vertex, then
direction); faces row by row, by anchor x, an up-face before the down-face
at the same anchor. A face lists its edges as the corner pairs (c0, c1),
(c0, c2), (c1, c2) of ``Face.corners``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cached_property, lru_cache

import numpy as np

from ._kernels import signature_words
from .errors import InvalidEdgeError, InvalidInputError, InvalidParameterError


class Dir(IntEnum):
    """Canonical edge directions, in index order."""

    E = 0
    NE = 1
    NW = 2

    @property
    def delta(self) -> tuple[int, int]:
        return _DELTAS[self]


_DELTAS = {Dir.E: (1, 0), Dir.NE: (0, 1), Dir.NW: (-1, 1)}
# Direction by |3*dy + dx|: the steps E, NW and NE and their reverses give
# +-1, +-2 and +-3, and no other step with |dx|, |dy| <= 1 gives those.
_DIR_OF_CODE = np.array([-1, Dir.E, Dir.NW, Dir.NE, -1])
# How each symmetry maps an edge of direction E, NE, NW: whether the image
# edge is based at the image of the tip (else of the base), and its direction.
_REFLECT_RULE = (np.array([True, False, False]), np.array([Dir.E, Dir.NW, Dir.NE]))
_ROTATE_RULE = (np.array([True, True, False]), np.array([Dir.NE, Dir.NW, Dir.E]))


class Side(Enum):
    BOTTOM = "bottom"
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True, order=True)
class Vertex:
    x: int
    y: int

    def __repr__(self) -> str:
        return f"({self.x},{self.y})"


@dataclass(frozen=True)
class Edge:
    """A grid edge in canonical base+direction form."""

    base: Vertex
    dir: Dir

    def __post_init__(self):
        if not isinstance(self.base, Vertex):
            raise InvalidEdgeError(f"an edge's base must be a Vertex, got {self.base!r}")
        _check_coordinate(self.base.x)
        _check_coordinate(self.base.y)
        if not isinstance(self.dir, Dir):
            raise InvalidEdgeError(f"an edge's direction must be a Dir, got {self.dir!r}")

    @property
    def other(self) -> Vertex:
        dx, dy = self.dir.delta
        return Vertex(self.base.x + dx, self.base.y + dy)

    @property
    def endpoints(self) -> tuple[Vertex, Vertex]:
        return (self.base, self.other)

    def __repr__(self) -> str:
        return f"{self.base}-{self.other}"


@dataclass(frozen=True)
class Face:
    """A unit triangle, anchored at its lower-left coordinate.

    An up-face at (x, y) has corners (x, y), (x+1, y), (x, y+1); a
    down-face at (x, y) has corners (x+1, y), (x, y+1), (x+1, y+1).
    """

    anchor: Vertex
    up: bool

    def __post_init__(self):
        a = self.anchor
        if not (isinstance(a, Vertex) and _is_int(a.x) and _is_int(a.y)):
            shown = f"({a.x!r},{a.y!r})" if isinstance(a, Vertex) else repr(a)
            raise InvalidInputError(f"face anchor coordinates must be integers, got {shown}")
        if not isinstance(self.up, bool):
            raise InvalidInputError(f"a face's up flag must be a bool, got {self.up!r}")

    @property
    def corners(self) -> tuple[Vertex, Vertex, Vertex]:
        x, y = self.anchor.x, self.anchor.y
        if self.up:
            return (Vertex(x, y), Vertex(x + 1, y), Vertex(x, y + 1))
        return (Vertex(x + 1, y), Vertex(x, y + 1), Vertex(x + 1, y + 1))

    def __repr__(self) -> str:
        return f"{'up' if self.up else 'down'}@{self.anchor}"


def _vertex_id(n, x, y):
    # Rows 1 .. y-1 hold n+1, n, ..., n+3-y vertices. Works on ints and int arrays.
    return (y - 1) * (2 * n + 4 - y) // 2 + x - 1


def _reflect(n, x, y):
    # The mirror across the vertical axis through the apex. Works on ints and int arrays.
    return n + 3 - x - y, y


def _rotate(n, x, y):
    # One of the two 120-degree rotations about the center. It has order three
    # and cycles the corners (1,1) -> (1,n+1) -> (n+1,1) -> (1,1). Works on ints
    # and int arrays.
    return y, n + 3 - x - y


def _face_layout(n: int, f):
    """Anchor x, anchor y and up flag of face ``f``, an index or an int array
    of them. Rows 1 .. y-1 hold n^2 - (n+1-y)^2 faces, so face f lies in the
    row with k = ceil(sqrt(n^2 - f)) up faces, which alternate with down faces."""
    k = np.ceil(np.sqrt(n * n - f)).astype(np.int64)
    offset = f - (n * n - k * k)
    return offset // 2 + 1, n + 1 - k, offset % 2 == 0


def _is_int(value) -> bool:
    """Is ``value`` an integer? A bool does not count as one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _clipped_ints(values, hi) -> np.ndarray:
    """``values``, integers of any size, clipped to 0 .. hi as int64."""
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        for v in values.ravel().tolist():
            _check_coordinate(v)
    return np.asarray(np.clip(values, 0, hi), np.int64)


def _check_coordinate(v) -> None:
    if not _is_int(v):
        raise InvalidEdgeError(f"vertex coordinates must be integers, got {v!r}")


def _check_side(n) -> None:
    if not _is_int(n) or n < 1:
        raise InvalidParameterError(f"grid side must be an integer >= 1, got {n!r}")


class TriGrid:
    """Triangular grid of side n with full incidence and symmetry maps.

    The int64 index arrays are the storage, computed by index arithmetic
    on vertex coordinates, and every query is answered in edge, vertex or
    face indices. A grid builds its vertex, edge and face arrays, the edge
    slot table and both symmetry maps at once. The tables that only some
    callers read are built on first use: the neighbour table ``nbr_edge``
    (six edge slots a vertex, read from ``edge_slot`` without a sort),
    ``sweep_order``, the census tables (``vertex_bit``, ``vertex_mask``,
    ``nbr_steps``, ``mask_signature_table``) and the object tuples
    ``vertices`` and ``edges``. Instances are immutable after construction
    and safe to share between threads; every operation on them is a pure
    function. Every array a grid holds, including those its cached
    properties build, is read-only: ``build_grid`` hands one grid to every
    caller of its side, so a write would change it for all of them.
    """

    def __init__(self, n: int):
        _check_side(n)
        self.n = n = int(n)
        y = np.repeat(np.arange(1, n + 2), np.arange(n + 1, 0, -1))
        x = np.arange(y.size) - _vertex_id(n, 1, y) + 1
        self.vertex_xy = np.stack([x, y], axis=1)

        # Edge slot 3*vertex + direction. E and NE leave every vertex but the
        # last of its row; NW leaves every vertex but the first.
        last = x == n + 2 - y
        slots = np.flatnonzero(np.stack([~last, ~last, x >= 2], axis=1))
        self.edge_slot = np.full(3 * y.size, -1, dtype=np.int64)
        self.edge_slot[slots] = np.arange(slots.size)
        self.u_of_edge, self.edge_dir = u, d = np.divmod(slots, 3)
        self.edge_base_x = ux = x[u]
        self.edge_base_y = uy = y[u]
        # The row above a vertex starts n+2-y vertices on: NE steps that far
        # and NW one less.
        self.v_of_edge = v = u + np.where(d == Dir.E, 1, n + 3 - uy - d)

        # Up face k, anchored at the base of the k-th E edge, holds that edge,
        # the NE edge after it and the k-th NW edge. Row y holds n+1-y up
        # faces with a down face between each two, so up face k is face
        # 2k - (y-1), and the down face after it holds its NW edge, the NE
        # edge of up face k+1 and the E edge of up face k+n+1-y above it.
        east = np.flatnonzero(d == Dir.E)
        up = np.stack([east, east + 1, np.flatnonzero(d == Dir.NW)], axis=1)
        ey = uy[east]
        at = 2 * np.arange(east.size) - ey + 1
        k = np.flatnonzero(~last[u[east] + 1])  # the up faces a down face follows
        self.face_edges_idx = fe = np.empty((n * n, 3), dtype=np.int64)
        fe[at] = up
        fe[at[k] + 1] = np.stack([up[k, 2], up[k + 1, 1], up[k + n + 1 - ey[k], 0]], axis=1)
        self.edge_face_count = np.bincount(fe.ravel(), minlength=slots.size)
        self.boundary_edge_mask = self.edge_face_count == 1

        # An edge of direction d maps to the edge based at the image of its base
        # or of its tip, in a direction fixed by d: one slot gather per map.
        for name, vertex_map, (from_tip, to_dir) in (
            ("reflect_eperm", _reflect, _REFLECT_RULE),
            ("rotate_eperm", _rotate, _ROTATE_RULE),
        ):
            image = _vertex_id(n, *vertex_map(n, x, y))
            start = image[np.where(from_tip[d], v, u)]
            setattr(self, name, self.edge_slot[3 * start + to_dir[d]])
        # Edges crossed by the vertical symmetry axis: horizontal edges
        # whose endpoints are swapped by the reflection, i.e. 2x + y = n + 2.
        self.middle_edge_idx = east[2 * ux[east] + ey == n + 2]
        # The E edges of the bottom row come first.
        self.bottom_edge_idx = east[:n]
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def edge_ids(self, ax, ay, bx, by) -> np.ndarray:
        """Index of the edge joining vertices (ax, ay) and (bx, by), elementwise over
        integers of any size; -1 where the two are not adjacent vertices of this grid.
        A coordinate that is not an integer (a bool, a float) raises InvalidEdgeError."""
        # Integers other than int64 are clipped to 0 .. n+3, which keeps them
        # off the grid if they were; where int64 arithmetic wraps, both ends are.
        # A plain int is clipped by min and max, much faster than np.clip.
        hi = self.n + 3
        ax, ay, bx, by = (
            v if getattr(v, "dtype", None) == np.int64
            else np.int64(min(max(v, 0), hi)) if type(v) is int
            else _clipped_ints(v, hi)
            for v in (ax, ay, bx, by)
        )
        dx, dy = bx - ax, by - ay
        code = 3 * dy + dx
        # Every direction points up, or right along a row: code > 0 from base to tip.
        forward = code > 0
        x, y = np.where(forward, ax, bx), np.where(forward, ay, by)
        # mode="clip" reads past 4 as 4, and below 0 (np.abs of INT64_MIN) as 0: both -1.
        d = _DIR_OF_CODE.take(np.abs(code), mode="clip")
        # With its base in the grid, an edge is in the grid when its slot is.
        ok = (d >= 0) & (np.abs(dx) <= 1) & (np.abs(dy) <= 1) & self.has_vertex(x, y)
        slot = np.where(ok, 3 * _vertex_id(self.n, x, y) + d, 0)
        return np.where(ok, self.edge_slot[slot], -1)

    # -- object views ------------------------------------------------------

    @cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        return tuple(Vertex(x, y) for x, y in self.vertex_xy.tolist())

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        vs, dirs, us = self.vertices, tuple(Dir), self.u_of_edge.tolist()
        return tuple(Edge(vs[u], dirs[d]) for u, d in zip(us, self.edge_dir.tolist()))

    @cached_property
    def sweep_order(self) -> np.ndarray:
        """The edges row by row from the bottom, as a bottom-up sweep fixes
        them: in each row the E edges of its up faces left to right, then
        their NE edges, then their NW edges. Every edge lies in exactly one
        up face, so this is a permutation of the edge indices."""
        n, fe = self.n, self.face_edges_idx
        # Row n+1-k starts at face n^2-k^2; its k up faces alternate with
        # down faces and list (E, NE, NW of x+1).
        order = np.concatenate([fe[n * n - k * k :: 2][:k].T.ravel() for k in range(n, 0, -1)])
        order.setflags(write=False)
        return order

    @cached_property
    def nbr_edge(self) -> np.ndarray:
        """The edge to each neighbour of each vertex (x, y), one row per
        vertex. Its six columns are the neighbour positions in rising vertex
        index: (x, y-1), (x+1, y-1) and (x-1, y) through their NE, NW and E
        edges, then the vertex's own E, NW and NE edges. A neighbour off the
        grid reads -1."""
        n, nv = self.n, self.num_vertices
        # Edge slots by vertex and direction; a missing edge reads -1.
        slots = self.edge_slot.reshape(nv, 3)
        # Filled one column at a time, so no temporary is as large as it.
        table = np.full((nv, 6), -1, dtype=np.int64)
        # Every vertex above the bottom row (its first n+1 vertices) has both
        # neighbours below; the row below starts n+3-y vertices back.
        v = np.arange(n + 1, nv)
        below = v - (n + 2 - self.vertex_xy[n + 1 :, 1])  # (x+1, y-1)
        table[n + 1 :, 0] = slots[below - 1, Dir.NE]
        table[n + 1 :, 1] = slots[below, Dir.NW]
        # The vertex before (1, y) ends the row below and has no E edge.
        table[1:, 2] = slots[:-1, Dir.E]
        for col, d in enumerate((Dir.E, Dir.NW, Dir.NE), start=3):
            table[:, col] = slots[:, d]
        table.setflags(write=False)
        return table

    @cached_property
    def mask_signature_table(self) -> np.ndarray:
        """The packed signature of each byte of an int edge mask (bit e for
        edge e), as a ``(mask bytes, 256, ceil(2F/8))`` uint8 array. Entry
        ``[b, v]`` holds, two bits per face as ``_kernels.signature_words``
        packs them, the face counts of the edges 8b .. 8b+7 set in byte
        value v. A face count is at most 3, so the fields never carry, and
        a mask's signature is the bytewise sum of its bytes' entries. Only
        a grid whose masks fit 64 bits (side 6 or below) has a table."""
        mask_bytes = -(-self.num_edges // 8)
        if mask_bytes > 8:
            raise InvalidParameterError(
                f"edge masks past 64 bits have no signature table, got side {self.n}"
            )
        # Row (b, v) sets edges 8b .. 8b+7 to the bits of v.
        bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
        rows = np.zeros((mask_bytes, 256, mask_bytes, 8), dtype=np.uint8)
        b = np.arange(mask_bytes)
        rows[b, :, b] = bits
        rows = rows.reshape(256 * mask_bytes, -1)[:, : self.num_edges]
        table = signature_words(rows, self.face_edges_idx).reshape(mask_bytes, 256, -1)
        table.setflags(write=False)
        return table

    @cached_property
    def vertex_bit(self) -> np.ndarray:
        """Bit y*(n+2) + x-1 of each vertex (x, y) in a row-padded vertex
        bitmask. Each row ends in a bit that is no vertex, so the six
        neighbour moves are shifts by 1, n+1 and n+2 that never wrap."""
        x, y = self.vertex_xy.T
        bit = y * (self.n + 2) + x - 1
        bit.setflags(write=False)
        return bit

    @cached_property
    def vertex_mask(self) -> int:
        """Every vertex's ``vertex_bit`` set, as one int. ``vertex_bit`` rises
        with the vertex index, so the vertices above vertex v are this int
        shifted down and back up by ``vertex_bit[v] + 1``."""
        full = np.zeros((self.n + 2) ** 2, dtype=bool)
        full[self.vertex_bit] = True
        return int.from_bytes(np.packbits(full, bitorder="little").tobytes(), "little")

    @cached_property
    def nbr_steps(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """(neighbour, edge, neighbour's ``vertex_bit``) for each vertex, in
        rising neighbour index."""
        # A neighbour is the other end of its edge; -1 edges are skipped.
        other = (self.u_of_edge + self.v_of_edge).tolist()
        bit = self.vertex_bit.tolist()
        return tuple(
            tuple((w, e, bit[w]) for e in es if e >= 0 for w in (other[e] - v,))
            for v, es in enumerate(self.nbr_edge.tolist())
        )

    # -- lookups -----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_xy)

    @property
    def num_edges(self) -> int:
        return len(self.u_of_edge)

    @property
    def num_faces(self) -> int:
        return len(self.face_edges_idx)

    def has_vertex(self, x, y):
        """Is (x, y) a vertex of this grid? Elementwise over int arrays."""
        return (1 <= y) & (y <= self.n + 1) & (1 <= x) & (x <= self.n + 2 - y)

    def vertex_index(self, v: Vertex) -> int:
        if not isinstance(v, Vertex):
            raise InvalidInputError(f"expected a Vertex, got {v!r}")
        if not (_is_int(v.x) and _is_int(v.y) and self.has_vertex(v.x, v.y)):
            raise InvalidInputError(f"vertex {v} is not in the side-{self.n} grid")
        return _vertex_id(self.n, v.x, v.y)

    def edge_index(self, e: Edge) -> int:
        if not isinstance(e, Edge):
            raise InvalidEdgeError(f"expected an Edge, got {e!r}")
        x, y = int(e.base.x), int(e.base.y)
        slot = 3 * _vertex_id(self.n, x, y) + e.dir
        if not (self.has_vertex(x, y) and self.edge_slot[slot] >= 0):
            raise InvalidEdgeError(f"edge {e} is not in the side-{self.n} grid")
        return int(self.edge_slot[slot])

    def face_index(self, f: Face) -> int:
        if not isinstance(f, Face):
            raise InvalidInputError(f"expected a Face, got {f!r}")
        n, x, y, down = self.n, f.anchor.x, f.anchor.y, not f.up
        if not (1 <= y <= n and 1 <= x <= n + 1 - y - down):
            raise InvalidInputError(f"face {f} is not in the side-{n} grid")
        return (y - 1) * (2 * n + 1 - y) + 2 * (x - 1) + down

    def edge_between(self, a, b) -> Edge:
        """The canonical edge joining two adjacent vertices.

        Accepts Vertex instances or plain (x, y) pairs.
        """
        (ax, ay), (bx, by) = ((v.x, v.y) if isinstance(v, Vertex) else v for v in (a, b))
        i = int(self.edge_ids(ax, ay, bx, by))
        if i < 0:
            raise InvalidEdgeError(
                f"({ax},{ay}) and ({bx},{by}) are not adjacent in the side-{self.n} grid"
            )
        return Edge(Vertex(*self.vertex_xy[self.u_of_edge[i]].tolist()), Dir(self.edge_dir[i]))

    def side_edge_indices(self, side: Side) -> np.ndarray:
        n, j = self.n, np.arange(1, self.n + 1)
        x, y, d = {
            Side.BOTTOM: (j, 1, Dir.E),
            Side.LEFT: (1, j, Dir.NE),
            Side.RIGHT: (n + 2 - j, j, Dir.NW),
        }[side]
        return self.edge_slot[3 * _vertex_id(n, x, y) + d]

    def __repr__(self) -> str:
        return f"TriGrid(n={self.n})"


def build_grid(n: int) -> TriGrid:
    """The side-n triangular grid, shared and read-only.

    The last grid built is kept and returned again while the side stays the
    same, so a run of reads on one side builds its grid once; ``TriGrid(n)``
    builds a fresh one. The side is checked before the cache is asked,
    since ``True == 1`` and ``5.0 == 5`` would find a cached grid.
    """
    _check_side(n)
    return _last_grid(int(n))


@lru_cache(maxsize=1)
def _last_grid(n: int) -> TriGrid:
    # One grid, not one per side: a side-256 grid with its vertex and edge
    # objects and step lists holds about 55 MB (tracemalloc).
    return TriGrid(n)
