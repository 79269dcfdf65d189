"""GF(2) algebra of edge subsets: the totally even predicate, a linear
null-space oracle, the constructive basis, decomposition, bottom-side
propagation, and the closed-form edge-count product.

An edge subset is *totally even* when every vertex meets an even number of
its edges and every finite face contains an even number of its edges. The
totally even subsets of the side-n grid form a GF(2) vector space of
dimension floor(n/2); its canonical basis element for index i is the unique
totally even subset whose only bottom edge in the left half is
{(i,1), (i+1,1)}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import InvalidInputError, InvalidParameterError
from .grid import Dir, Edge, Face, TriGrid, Vertex, _face_layout


class EdgeSet:
    """An immutable indicator vector over the edges of a grid.

    Symmetric difference is ``^``; the empty set is the additive identity.
    """

    __slots__ = ("grid", "bits")

    def __init__(self, grid: TriGrid, bits):
        bits = _binary(bits, "edge bits")
        if bits.shape != (grid.num_edges,):
            raise InvalidInputError(
                f"bit vector of length {bits.shape} does not fit a grid with "
                f"{grid.num_edges} edges"
            )
        bits.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("EdgeSet is immutable")

    @classmethod
    def empty(cls, grid: TriGrid) -> "EdgeSet":
        return cls(grid, np.zeros(grid.num_edges, dtype=bool))

    @classmethod
    def from_edges(cls, grid: TriGrid, edges: Iterable[Edge]) -> "EdgeSet":
        bits = np.zeros(grid.num_edges, dtype=bool)
        for e in edges:
            bits[grid.edge_index(e)] = True
        return cls(grid, bits)

    @classmethod
    def from_pairs(cls, grid: TriGrid, pairs) -> "EdgeSet":
        """Build from ((x1,y1), (x2,y2)) vertex pairs."""
        pairs = [[(v.x, v.y) if isinstance(v, Vertex) else v for v in pair] for pair in pairs]
        ids = grid.edge_ids(*np.array(pairs, dtype=object).reshape(-1, 4).T)
        if (ids < 0).any():
            grid.edge_between(*pairs[np.argmax(ids < 0)])  # raises: the pair is no edge
        return cls(grid, np.bincount(ids, minlength=grid.num_edges) > 0)

    def _check_same_grid(self, other: "EdgeSet") -> None:
        if self.grid.n != other.grid.n:
            raise InvalidInputError(
                f"edge sets live on different grids (n={self.grid.n} vs n={other.grid.n})"
            )

    def __xor__(self, other: "EdgeSet") -> "EdgeSet":
        self._check_same_grid(other)
        return EdgeSet(self.grid, self.bits ^ other.bits)

    def __and__(self, other: "EdgeSet") -> "EdgeSet":
        self._check_same_grid(other)
        return EdgeSet(self.grid, self.bits & other.bits)

    def __or__(self, other: "EdgeSet") -> "EdgeSet":
        self._check_same_grid(other)
        return EdgeSet(self.grid, self.bits | other.bits)

    def difference(self, other: "EdgeSet") -> "EdgeSet":
        self._check_same_grid(other)
        return EdgeSet(self.grid, self.bits & ~other.bits)

    def __len__(self) -> int:
        return int(self.bits.sum())

    def __bool__(self) -> bool:
        return bool(self.bits.any())

    def __contains__(self, e: Edge) -> bool:
        return bool(self.bits[self.grid.edge_index(e)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeSet):
            return NotImplemented
        return self.grid.n == other.grid.n and bool(np.array_equal(self.bits, other.bits))

    def __hash__(self) -> int:
        return hash((self.grid.n, self.bits.tobytes()))

    def edges(self) -> list[Edge]:
        return [self.grid.edges[i] for i in np.flatnonzero(self.bits)]

    def vertex_pairs(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        out = []
        for e in self.edges():
            a, b = e.endpoints
            out.append(((a.x, a.y), (b.x, b.y)))
        return out

    def apply_perm(self, perm: np.ndarray) -> "EdgeSet":
        """Image of this set under an edge permutation (index array)."""
        return EdgeSet(self.grid, permute_bits(self.bits, perm))

    def __repr__(self) -> str:
        return f"EdgeSet(n={self.grid.n}, |A|={len(self)})"


def _binary(values, what: str) -> np.ndarray:
    """A fresh bool array of ``values``, which must all be 0 or 1."""
    values = np.asarray(values)
    if values.dtype != bool and not np.isin(values, (0, 1)).all():
        raise InvalidInputError(f"{what} must be 0 or 1")
    return values.astype(bool)


def permute_bits(bits: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Image of an edge vector under an edge permutation: bit e moves to perm[e]."""
    out = np.empty_like(bits)
    out[perm] = bits
    return out


# -- the totally even predicate ---------------------------------------------


def is_totally_even(g: TriGrid, a: EdgeSet) -> bool:
    """True iff every vertex and every finite face meets ``a`` evenly."""
    return totally_even_violation(g, a) is None


def totally_even_violation(g: TriGrid, a: EdgeSet) -> str | None:
    """None if totally even, else a human-readable reason."""
    if a.grid.n != g.n:
        raise InvalidInputError("edge set does not belong to this grid")
    deg = _vertex_degrees(g, a.bits)
    odd = np.flatnonzero(deg % 2)
    if odd.size:
        v = Vertex(*g.vertex_xy[odd[0]].tolist())
        return f"vertex {v} has odd incidence ({deg[odd[0]]})"
    face_counts = a.bits[g.face_edges_idx].sum(axis=1)
    bad = np.flatnonzero(face_counts % 2)
    if bad.size:
        x, y, up = (int(a[bad[0]]) for a in _face_layout(g.n))
        return f"face {Face(Vertex(x, y), bool(up))} contains {face_counts[bad[0]]} edges"
    return None


def _vertex_degrees(g: TriGrid, bits: np.ndarray) -> np.ndarray:
    sel = np.flatnonzero(bits)
    ends = np.concatenate([g.u_of_edge[sel], g.v_of_edge[sel]])
    return np.bincount(ends, minlength=g.num_vertices)


# -- GF(2) elimination over int bitsets --------------------------------------


def _constraint_rows(g: TriGrid) -> list[int]:
    """Vertex-parity and face-parity rows, one int bitset per constraint."""
    rows = []
    for vi in range(g.num_vertices):
        row = 0
        for ei in g.vertex_edges_idx[vi]:
            row |= 1 << int(ei)
        rows.append(row)
    for triple in g.face_edges_idx:
        row = 0
        for ei in triple:
            row |= 1 << int(ei)
        rows.append(row)
    return rows


def _rref(rows: list[int], cols: Iterable[int]) -> tuple[list[int], dict[int, int]]:
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


def _int_bits(value: int, n_bits: int) -> np.ndarray:
    """The low ``n_bits`` bits of a non-negative int, least significant first."""
    raw = np.frombuffer(value.to_bytes((n_bits + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n_bits, bitorder="little").view(bool)


def null_space_oracle(g: TriGrid) -> tuple[list[EdgeSet], int]:
    """Basis of the parity-constraint null space, by Gaussian elimination.

    Returns (basis, dimension). Independent of the constructive basis:
    this only ever sees the vertex/face parity matrix.
    """
    n_edges = g.num_edges
    rows, pivots = _rref(_constraint_rows(g), range(n_edges))
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


# -- the constructive basis ---------------------------------------------------


def max_basis_index(n: int) -> int:
    return n // 2


def _check_int(value, what: str) -> None:
    """Raise unless ``value`` is an integer; a bool does not count as one."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InvalidParameterError(f"{what} must be an integer, got {value!r}")


def _check_basis_index(g: TriGrid, i: int) -> None:
    _check_int(i, "basis index")
    if not 1 <= i <= max_basis_index(g.n):
        raise InvalidParameterError(
            f"basis index {i} out of range 1..{max_basis_index(g.n)} for n={g.n}"
        )


def _wedge_bits(g: TriGrid, i: int) -> np.ndarray:
    # Horizontal and up-left edges clipped to the corner band x+y >= i+1,
    # x small, y bounded; the seed whose three rotated copies combine into
    # the basis subset.
    x, y = g.vertex_xy[g.u_of_edge].T
    n, d = g.n, g.edge_dir
    horizontal = (d == Dir.E) & (x <= i) & (y <= n + 2 - i)
    up_left = (d == Dir.NW) & (x <= i + 1) & (y <= n + 1 - i)
    return (horizontal | up_left) & (x + y >= i + 1)


def basis_subset(g: TriGrid, i: int) -> EdgeSet:
    """The totally even subset whose only left-half bottom edge is edge i.

    Built as the symmetric difference of a corner wedge with its two
    rotated copies; contains exactly 6*(n-2i+1)*i edges.
    """
    _check_basis_index(g, i)
    seed = _wedge_bits(g, i)
    rot1 = permute_bits(seed, g.rotate_eperm)
    rot2 = permute_bits(rot1, g.rotate_eperm)
    return EdgeSet(g, seed ^ rot1 ^ rot2)


def basis_cardinality(n: int, i: int) -> int:
    """Closed form 6*(n-2i+1)*i for the size of the basis subset."""
    return 6 * (n - 2 * i + 1) * i


def decompose(g: TriGrid, a: EdgeSet) -> list[int]:
    """Indices i1 < ... < ik with a = basis(i1) ^ ... ^ basis(ik).

    Reads the left half of the bottom side, which determines a totally
    even subset uniquely.
    """
    if not is_totally_even(g, a):
        raise InvalidInputError("decompose requires a totally even subset")
    half = max_basis_index(g.n)
    return [i for i in range(1, half + 1) if a.bits[g.bottom_edge_idx[i - 1]]]


def recompose(g: TriGrid, indices: Iterable[int]) -> EdgeSet:
    """Symmetric difference of basis subsets for the given indices."""
    acc = EdgeSet.empty(g)
    for i in indices:
        acc = acc ^ basis_subset(g, i)
    return acc


def totally_even_subsets(g: TriGrid) -> Iterator[tuple[tuple[int, ...], EdgeSet]]:
    """All 2^floor(n/2) totally even subsets, in Gray-code order.

    Yields (sorted index tuple, subset); consecutive outputs differ by a
    single basis XOR.
    """
    half = max_basis_index(g.n)
    basis = [basis_subset(g, i) for i in range(1, half + 1)]
    current = EdgeSet.empty(g)
    members: set[int] = set()
    yield (), current
    prev_code = 0
    for k in range(1, 1 << half):
        code = k ^ (k >> 1)
        flipped = (code ^ prev_code).bit_length() - 1
        prev_code = code
        current = current ^ basis[flipped]
        members ^= {flipped + 1}
        yield tuple(sorted(members)), current


# -- bottom-side propagation --------------------------------------------------


def propagate_from_bottom(g: TriGrid, pattern) -> EdgeSet | None:
    """The unique totally even subset with the given bottom side, or None.

    ``pattern`` holds one bit per bottom edge, ordered left to right. A
    pattern is feasible exactly when it is mirror-symmetric and, for odd n,
    leaves the central bottom edge unset.

    One sweep fixes the edges row by row from the bottom, each by one vertex
    or face parity constraint, so any totally even subset with this bottom
    is the output; ``is_totally_even`` on it decides whether one exists.
    """
    pattern = _binary(pattern, "bottom pattern bits")
    if pattern.shape != (g.n,):
        raise InvalidInputError(
            f"bottom pattern must have length n={g.n}, got shape {pattern.shape}"
        )
    n = g.n
    h = int.from_bytes(np.packbits(pattern, bitorder="little").tobytes(), "little")
    inc = edges = done = 0
    order = []
    for k in range(n, 0, -1):
        # Row n+1-k has k up faces; bit x-1 stands for position x. h holds
        # the horizontal edges and inc the parity each vertex gets from
        # below, so c is what its NE edge a and NW edge b must add up to.
        # Up face x gives b_(x+1) = b_x ^ h_x ^ c_x from b_1 = 0: a prefix
        # XOR, done by doubling shifts.
        mask = (1 << k) - 1
        c = inc ^ h ^ (h << 1)
        b = (h ^ c) & mask
        shift = 1
        while shift < k:
            b ^= b << shift
            shift <<= 1
        b = (b & mask) << 1
        if (b ^ c) >> k & 1:
            return None  # the row's last vertex has no NE edge to even it
        a = (c ^ b) & mask
        edges |= (h | (a << k) | (b >> 1 << 2 * k)) << done
        done += 3 * k
        # Up faces alternate with down faces and hold (E, NE, NW of x+1).
        start = n * n - k * k
        order.append(g.face_edges_idx[start:start + 2 * k - 1:2].T.ravel())
        h = (c >> 1) & (mask >> 1)  # down face x: the edge above is c_(x+1)
        inc = a ^ (b >> 1)
    bits = np.zeros(g.num_edges, dtype=bool)
    bits[np.concatenate(order)] = _int_bits(edges, done)
    result = EdgeSet(g, bits)
    return result if is_totally_even(g, result) else None


def bottom_pattern(g: TriGrid, a: EdgeSet) -> np.ndarray:
    """The bottom-side bit pattern of an edge set, left to right."""
    return a.bits[g.bottom_edge_idx].copy()


# -- closed-form edge count ---------------------------------------------------


def gap_profile_doubled(n: int, indices) -> list[int]:
    """Twice the gaps between consecutive indices, with sentinels.

    The index list i1 < ... < ik is padded with 0 below and (n+1)/2 above;
    doubling keeps the half-integer top gap of even n integral. All gaps
    are positive and sum to n+1 (doubled).
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise InvalidParameterError(f"grid side must be an integer >= 1, got {n!r}")
    indices = list(indices)
    for i in indices:
        if not isinstance(i, (int, np.integer)) or isinstance(i, bool) or i < 1 or 2 * i > n:
            raise InvalidParameterError(f"index {i!r} out of range for n={n}")
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise InvalidParameterError("indices must be strictly increasing")
    doubled = [2 * int(i) for i in indices]
    gaps2 = [b - a for a, b in zip([0] + doubled, doubled)]
    gaps2.append(n + 1 - (doubled[-1] if doubled else 0))
    return gaps2


def count_edges_closed_form(n: int, indices) -> int:
    """Edge count of the subset decomposed by ``indices`` in the side-n grid.

    Equals 12 * (sum of even-position gaps) * (sum of odd-position gaps)
    over the gap profile; the empty index list gives 0.
    """
    gaps2 = gap_profile_doubled(n, indices)
    even_sum2 = sum(gaps2[0::2])
    odd_sum2 = sum(gaps2[1::2])
    # 12 * (p/2) * (q/2) == 3 * p * q
    return 3 * even_sum2 * odd_sum2


# -- symmetry report ----------------------------------------------------------


@dataclass(frozen=True)
class SymmetryReport:
    mirror_invariant: bool
    rotation_invariant: bool
    middle_free: bool

    @property
    def all_hold(self) -> bool:
        return self.mirror_invariant and self.rotation_invariant and self.middle_free


def check_symmetries(g: TriGrid, a: EdgeSet) -> SymmetryReport:
    """Invariance under the mirror and the rotation, and middle avoidance.

    All three hold for every totally even subset.
    """
    return SymmetryReport(
        mirror_invariant=a.apply_perm(g.reflect_eperm) == a,
        rotation_invariant=a.apply_perm(g.rotate_eperm) == a,
        middle_free=not bool(a.bits[g.middle_edge_idx].any()),
    )
