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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .errors import InvalidEdgeError, InvalidParameterError


class Dir(IntEnum):
    """Canonical edge directions, in index order."""

    E = 0
    NE = 1
    NW = 2

    @property
    def delta(self) -> tuple[int, int]:
        return _DELTAS[self]


_DELTAS = {Dir.E: (1, 0), Dir.NE: (0, 1), Dir.NW: (-1, 1)}


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


class TriGrid:
    """Triangular grid of side n with full incidence and symmetry maps.

    Instances are immutable after construction and safe to share between
    threads; every operation on them is a pure function.
    """

    def __init__(self, n: int):
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise InvalidParameterError(f"grid side must be an integer >= 1, got {n!r}")
        self.n = int(n)
        self._build_vertices()
        self._build_edges()
        self._build_faces()
        self._build_adjacency()
        self._build_sides()
        self._build_symmetries()

    # -- construction ------------------------------------------------------

    def _build_vertices(self) -> None:
        n = self.n
        self.vertices: list[Vertex] = [
            Vertex(x, y) for y in range(1, n + 2) for x in range(1, n + 3 - y)
        ]
        self._vidx = {v: i for i, v in enumerate(self.vertices)}

    def _build_edges(self) -> None:
        edges: list[Edge] = []
        for v in self.vertices:
            for d in Dir:
                e = Edge(v, d)
                if self.has_vertex(e.other.x, e.other.y) and self._edge_base_ok(e):
                    edges.append(e)
        self.edges = edges
        self._eidx = {e: i for i, e in enumerate(edges)}
        self.u_of_edge = np.array([self._vidx[e.base] for e in edges], dtype=np.int64)
        self.v_of_edge = np.array([self._vidx[e.other] for e in edges], dtype=np.int64)

    @staticmethod
    def _edge_base_ok(e: Edge) -> bool:
        # NW edges need x >= 2 so the other endpoint stays in the grid;
        # validity of E and NE follows from the endpoint check alone.
        return e.dir != Dir.NW or e.base.x >= 2

    def _build_faces(self) -> None:
        n = self.n
        faces: list[Face] = []
        for y in range(1, n + 1):
            for x in range(1, n + 2 - y):
                faces.append(Face(Vertex(x, y), up=True))
                if x <= n - y:
                    faces.append(Face(Vertex(x, y), up=False))
        self.faces = faces
        self._fidx = {f: i for i, f in enumerate(faces)}
        triples = []
        for f in faces:
            x, y = f.anchor.x, f.anchor.y
            if f.up:
                es = (Edge(Vertex(x, y), Dir.E),
                      Edge(Vertex(x, y), Dir.NE),
                      Edge(Vertex(x + 1, y), Dir.NW))
            else:
                es = (Edge(Vertex(x + 1, y), Dir.NW),
                      Edge(Vertex(x + 1, y), Dir.NE),
                      Edge(Vertex(x, y + 1), Dir.E))
            triples.append([self._eidx[e] for e in es])
        self.face_edges_idx = np.array(triples, dtype=np.int64)
        counts = np.zeros(len(self.edges), dtype=np.int64)
        faces_of_edge: list[list[int]] = [[] for _ in self.edges]
        for fi, triple in enumerate(triples):
            for ei in triple:
                counts[ei] += 1
                faces_of_edge[ei].append(fi)
        self.edge_face_count = counts
        self._faces_of_edge = [tuple(fs) for fs in faces_of_edge]
        self.boundary_edge_mask = counts == 1

    def _build_adjacency(self) -> None:
        per_vertex: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
        for ei, e in enumerate(self.edges):
            ui, vi = self.u_of_edge[ei], self.v_of_edge[ei]
            per_vertex[ui].append((vi, ei))
            per_vertex[vi].append((ui, ei))
        self.vertex_edges_idx = [
            np.array(sorted(ei for _, ei in incident), dtype=np.int64)
            for incident in per_vertex
        ]
        max_deg = max(len(inc) for inc in per_vertex)
        nv = len(self.vertices)
        self.nbr = np.full((nv, max_deg), -1, dtype=np.int64)
        self.nbr_edge = np.full((nv, max_deg), -1, dtype=np.int64)
        self.deg = np.zeros(nv, dtype=np.int64)
        for vi, incident in enumerate(per_vertex):
            incident.sort()
            self.deg[vi] = len(incident)
            for k, (wi, ei) in enumerate(incident):
                self.nbr[vi, k] = wi
                self.nbr_edge[vi, k] = ei

    def _build_sides(self) -> None:
        n = self.n
        self._sides = {
            Side.BOTTOM: [Edge(Vertex(i, 1), Dir.E) for i in range(1, n + 1)],
            Side.LEFT: [Edge(Vertex(1, j), Dir.NE) for j in range(1, n + 1)],
            Side.RIGHT: [Edge(Vertex(n + 2 - j, j), Dir.NW) for j in range(1, n + 1)],
        }
        self.bottom_edge_idx = np.array(
            [self._eidx[e] for e in self._sides[Side.BOTTOM]], dtype=np.int64
        )

    def _build_symmetries(self) -> None:
        self.reflect_eperm = self._edge_perm(self.reflect_vertex)
        self.rotate_eperm = self._edge_perm(self.rotate_vertex)
        # Edges crossed by the vertical symmetry axis: horizontal edges
        # whose endpoints are swapped by the reflection, i.e. 2x + y = n + 2.
        self.middle_edge_idx = np.array(
            [
                self._eidx[e]
                for e in self.edges
                if e.dir == Dir.E and 2 * e.base.x + e.base.y == self.n + 2
            ],
            dtype=np.int64,
        )

    def _edge_perm(self, vmap) -> np.ndarray:
        perm = np.empty(len(self.edges), dtype=np.int64)
        for ei, e in enumerate(self.edges):
            image = self.edge_between(vmap(e.base), vmap(e.other))
            perm[ei] = self._eidx[image]
        return perm

    # -- lookups -----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    def has_vertex(self, x: int, y: int) -> bool:
        return 1 <= y <= self.n + 1 and 1 <= x <= self.n + 2 - y

    def vertex_index(self, v: Vertex) -> int:
        return self._vidx[v]

    def edge_index(self, e: Edge) -> int:
        try:
            return self._eidx[e]
        except KeyError:
            raise InvalidEdgeError(f"edge {e} is not in the side-{self.n} grid") from None

    def has_edge(self, e: Edge) -> bool:
        return e in self._eidx

    def face_index(self, f: Face) -> int:
        return self._fidx[f]

    def edge_between(self, a, b) -> Edge:
        """The canonical edge joining two adjacent vertices.

        Accepts Vertex instances or plain (x, y) pairs.
        """
        a = a if isinstance(a, Vertex) else Vertex(*a)
        b = b if isinstance(b, Vertex) else Vertex(*b)
        for base, tip in ((a, b), (b, a)):
            delta = (tip.x - base.x, tip.y - base.y)
            for d, dd in _DELTAS.items():
                if delta == dd:
                    e = Edge(base, d)
                    if e in self._eidx:
                        return e
        raise InvalidEdgeError(f"{a} and {b} are not adjacent in the side-{self.n} grid")

    def vertex_edges(self, v: Vertex) -> list[Edge]:
        return [self.edges[i] for i in self.vertex_edges_idx[self._vidx[v]]]

    def face_edges(self, f: Face) -> list[Edge]:
        return [self.edges[i] for i in self.face_edges_idx[self._fidx[f]]]

    def edge_faces(self, e: Edge) -> list[Face]:
        return [self.faces[i] for i in self._faces_of_edge[self.edge_index(e)]]

    def side_edges(self, side: Side) -> list[Edge]:
        return list(self._sides[side])

    def side_edge_indices(self, side: Side) -> np.ndarray:
        return np.array([self._eidx[e] for e in self._sides[side]], dtype=np.int64)

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
