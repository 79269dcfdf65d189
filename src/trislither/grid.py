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
from functools import cached_property

import numpy as np

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


def _face_layout(n: int):
    """Anchor x, anchor y and up flag of every face, in index order; row y
    starts after the (y-1)(2n+1-y) faces of rows 1 .. y-1."""
    y = np.repeat(np.arange(1, n + 1), np.arange(2 * n - 1, 0, -2))
    k = np.arange(n * n) - (y - 1) * (2 * n + 1 - y)
    return k // 2 + 1, y, k % 2 == 0


class TriGrid:
    """Triangular grid of side n with full incidence and symmetry maps.

    The int64 index arrays are the storage, computed by index arithmetic
    on vertex coordinates. ``vertices``, ``edges`` and ``faces`` are tuples
    of objects built from them on first use. Instances are immutable after
    construction and safe to share between threads; every operation on
    them is a pure function.
    """

    def __init__(self, n: int):
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise InvalidParameterError(f"grid side must be an integer >= 1, got {n!r}")
        self.n = n = int(n)
        y = np.repeat(np.arange(1, n + 2), np.arange(n + 1, 0, -1))
        x = np.arange(y.size) - _vertex_id(n, 1, y) + 1
        self.vertex_xy = np.stack([x, y], axis=1)

        # Edge slot 3*vertex + direction. E and NE leave every vertex but the
        # last of its row; NW leaves every vertex but the first.
        last = x == n + 2 - y
        present = np.stack([~last, ~last, x >= 2], axis=1).ravel()
        self.edge_slot = np.full(present.size, -1, dtype=np.int64)
        self.edge_slot[present] = np.arange(np.count_nonzero(present))
        slots = np.flatnonzero(present)
        self.u_of_edge, self.edge_dir = slots // 3, slots % 3
        ux, uy = x[self.u_of_edge], y[self.u_of_edge]
        dx, dy = np.array([_DELTAS[d] for d in Dir]).T[:, self.edge_dir]
        vx, vy = ux + dx, uy + dy
        self.v_of_edge = _vertex_id(n, vx, vy)

        def slot(v, d):
            return self.edge_slot[3 * v + d]

        fx, fy, up = _face_layout(n)
        a = _vertex_id(n, fx, fy)
        right, above = a + 1, _vertex_id(n, fx, fy + 1)
        self.face_edges_idx = np.where(
            up[:, None],
            np.stack([slot(a, Dir.E), slot(a, Dir.NE), slot(right, Dir.NW)], axis=1),
            np.stack([slot(right, Dir.NW), slot(right, Dir.NE), slot(above, Dir.E)], axis=1),
        )
        self.edge_face_count = np.bincount(self.face_edges_idx.ravel(), minlength=slots.size)
        self.boundary_edge_mask = self.edge_face_count == 1

        # Both ends of every edge; each vertex lists its neighbours in vertex order.
        ends = np.concatenate([self.u_of_edge, self.v_of_edge])
        others = np.concatenate([self.v_of_edge, self.u_of_edge])
        by_nbr = np.lexsort((others, ends))
        self.deg = np.bincount(ends, minlength=y.size)
        rows = ends[by_nbr]
        cols = np.arange(ends.size) - (np.cumsum(self.deg) - self.deg)[rows]
        self.nbr = np.full((y.size, self.deg.max()), -1, dtype=np.int64)
        self.nbr_edge = np.full_like(self.nbr, -1)
        self.nbr[rows, cols] = others[by_nbr]
        self.nbr_edge[rows, cols] = by_nbr % slots.size

        self.reflect_eperm = self.edge_ids(n + 3 - uy - ux, uy, n + 3 - vy - vx, vy)
        self.rotate_eperm = self.edge_ids(uy, n + 3 - ux - uy, vy, n + 3 - vx - vy)
        # Edges crossed by the vertical symmetry axis: horizontal edges
        # whose endpoints are swapped by the reflection, i.e. 2x + y = n + 2.
        self.middle_edge_idx = np.flatnonzero((self.edge_dir == Dir.E) & (2 * ux + uy == n + 2))
        self.bottom_edge_idx = self.side_edge_indices(Side.BOTTOM)

    def edge_ids(self, ax, ay, bx, by) -> np.ndarray:
        """Index of the edge joining vertices (ax, ay) and (bx, by), elementwise over
        integers of any size; -1 where the two are not adjacent vertices of this grid."""
        # Integers other than int64 are clipped to 0 .. n+3, which keeps them
        # off the grid if they were; where int64 arithmetic wraps, both ends are.
        ax, ay, bx, by = (
            v if getattr(v, "dtype", None) == np.int64
            else np.asarray(np.clip(v, 0, self.n + 3), np.int64)
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
    def faces(self) -> tuple[Face, ...]:
        fx, fy, up = (a.tolist() for a in _face_layout(self.n))
        return tuple(Face(Vertex(x, y), u) for x, y, u in zip(fx, fy, up))

    @cached_property
    def vertex_edges_idx(self) -> tuple[np.ndarray, ...]:
        """The edges of each vertex, in edge order."""
        rows = np.sort(self.nbr_edge, axis=1)  # the -1 padding sorts first
        k = rows.shape[1]
        return tuple(row[k - d:] for row, d in zip(rows, self.deg.tolist()))

    @cached_property
    def _faces_of_edge(self) -> tuple[tuple[int, ...], ...]:
        # A stable sort keeps each edge's faces in index order.
        faces = (np.argsort(self.face_edges_idx.ravel(), kind="stable") // 3).tolist()
        ends = np.cumsum(self.edge_face_count).tolist()
        return tuple(tuple(faces[a:b]) for a, b in zip([0] + ends[:-1], ends))

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
        if not self.has_vertex(v.x, v.y):
            raise InvalidInputError(f"vertex {v} is not in the side-{self.n} grid")
        return _vertex_id(self.n, v.x, v.y)

    def _find_edge(self, e: Edge) -> int:
        """Index of edge ``e``, or -1 when it is not an edge of this grid."""
        (ax, ay), (bx, by) = ((v.x, v.y) for v in e.endpoints)
        return int(self.edge_ids(ax, ay, bx, by))

    def edge_index(self, e: Edge) -> int:
        i = self._find_edge(e)
        if i < 0:
            raise InvalidEdgeError(f"edge {e} is not in the side-{self.n} grid")
        return i

    def has_edge(self, e: Edge) -> bool:
        return self._find_edge(e) >= 0

    def face_index(self, f: Face) -> int:
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

    def vertex_edges(self, v: Vertex) -> list[Edge]:
        return [self.edges[i] for i in self.vertex_edges_idx[self.vertex_index(v)]]

    def face_edges(self, f: Face) -> list[Edge]:
        return [self.edges[i] for i in self.face_edges_idx[self.face_index(f)]]

    def edge_faces(self, e: Edge) -> list[Face]:
        return [self.faces[i] for i in self._faces_of_edge[self.edge_index(e)]]

    def side_edges(self, side: Side) -> list[Edge]:
        return [self.edges[i] for i in self.side_edge_indices(side)]

    def side_edge_indices(self, side: Side) -> np.ndarray:
        n, j = self.n, np.arange(1, self.n + 1)
        x, y, d = {
            Side.BOTTOM: (j, 1, Dir.E),
            Side.LEFT: (1, j, Dir.NE),
            Side.RIGHT: (n + 2 - j, j, Dir.NW),
        }[side]
        return self.edge_slot[3 * _vertex_id(n, x, y) + d]

    @property
    def middle_edges(self) -> list[Edge]:
        return [self.edges[i] for i in self.middle_edge_idx]

    # -- symmetries ---------------------------------------------------------

    def reflect_vertex(self, v: Vertex) -> Vertex:
        """Mirror across the vertical axis through the apex."""
        return Vertex(self.n + 3 - v.y - v.x, v.y)

    def rotate_vertex(self, v: Vertex) -> Vertex:
        """One of the two 120-degree rotations about the center.

        The map (x, y) -> (y, n+3-x-y) has order three and cycles the
        corners (1,1) -> (1,n+1) -> (n+1,1) -> (1,1).
        """
        return Vertex(v.y, self.n + 3 - v.x - v.y)

    def reflect_middle(self, e: Edge) -> Edge:
        i = self.edge_index(e)
        return self.edges[self.reflect_eperm[i]]

    def rotate(self, e: Edge) -> Edge:
        i = self.edge_index(e)
        return self.edges[self.rotate_eperm[i]]

    def __repr__(self) -> str:
        return f"TriGrid(n={self.n})"


def build_grid(n: int) -> TriGrid:
    """Construct the side-n triangular grid."""
    return TriGrid(n)
