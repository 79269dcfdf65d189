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
from .grid import Dir, Edge, Face, TriGrid, Vertex, _check_side, _face_layout, _is_int


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

    def __xor__(self, other: "EdgeSet") -> "EdgeSet":
        _check_grid(self.grid, other)
        return EdgeSet(self.grid, self.bits ^ other.bits)

    def __and__(self, other: "EdgeSet") -> "EdgeSet":
        _check_grid(self.grid, other)
        return EdgeSet(self.grid, self.bits & other.bits)

    def __or__(self, other: "EdgeSet") -> "EdgeSet":
        _check_grid(self.grid, other)
        return EdgeSet(self.grid, self.bits | other.bits)

    def difference(self, other: "EdgeSet") -> "EdgeSet":
        _check_grid(self.grid, other)
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

    def endpoint_xy(self) -> np.ndarray:
        """The base and tip coordinates (x1, y1, x2, y2) of each edge, one row
        an edge, in edge order."""
        g, idx = self.grid, np.flatnonzero(self.bits)
        return g.vertex_xy[np.stack([g.u_of_edge[idx], g.v_of_edge[idx]], axis=1)].reshape(-1, 4)

    def vertex_pairs(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """The (base, tip) coordinates of each edge, in edge order."""
        return [((x1, y1), (x2, y2)) for x1, y1, x2, y2 in self.endpoint_xy().tolist()]

    def __repr__(self) -> str:
        return f"EdgeSet(n={self.grid.n}, |A|={len(self)})"


def _binary(values, what: str) -> np.ndarray:
    """A fresh bool array of ``values``, which must all be 0 or 1."""
    values = np.asarray(values)
    if values.dtype != bool and not ((values == 0) | (values == 1)).all():
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
    return _first_odd(g, a) is None


def totally_even_violation(g: TriGrid, a: EdgeSet) -> str | None:
    """None if totally even, else a human-readable reason."""
    odd = _first_odd(g, a)
    if odd is None:
        return None
    kind, i = odd
    if kind == "vertex":
        v = Vertex(*g.vertex_xy[i].tolist())
        return f"vertex {v} has odd incidence ({_vertex_degrees(g, a.bits)[i]})"
    x, y, up = (int(c) for c in _face_layout(g.n, i))
    count = a.bits[g.face_edges_idx[i]].sum()
    return f"face {Face(Vertex(x, y), bool(up))} contains {count} edges"


def _first_odd(g: TriGrid, a: EdgeSet) -> tuple[str, int] | None:
    """("vertex", index) of the first vertex that meets ``a`` oddly, else
    ("face", index) of the first finite face that does, else None."""
    _check_grid(g, a)
    odd = np.flatnonzero(_vertex_degrees(g, a.bits) % 2)
    if odd.size:
        return "vertex", int(odd[0])
    bits, fe = a.bits, g.face_edges_idx
    bad = np.flatnonzero(bits[fe[:, 0]] ^ bits[fe[:, 1]] ^ bits[fe[:, 2]])
    if bad.size:
        return "face", int(bad[0])
    return None


def _check_grid(g: TriGrid, a: EdgeSet) -> None:
    """Raise unless ``a`` is an edge set of ``g``."""
    if a.grid.n != g.n:
        raise InvalidInputError(
            f"edge set of the side-{a.grid.n} grid used on the side-{g.n} grid"
        )


def _vertex_degrees(g: TriGrid, bits: np.ndarray) -> np.ndarray:
    sel = np.flatnonzero(bits)
    ends = np.concatenate([g.u_of_edge[sel], g.v_of_edge[sel]])
    return np.bincount(ends, minlength=g.num_vertices)


# -- banded GF(2) elimination over int bitsets ------------------------------
#
# Edges are numbered row by row, so every parity row spans at most 3n+2
# consecutive edge indices. A row is kept as its lowest edge index and the
# int bitset shifted right by it; the elimination and the back-substitution
# below work on these short ints only and never on a full-width row.


def _constraint_rows(g: TriGrid) -> list[tuple[int, int]]:
    """Vertex-parity then face-parity rows, each as (lowest edge, row >> lowest edge)."""
    return _shifted_rows(g.nbr_edge, g.num_edges) + _shifted_rows(g.face_edges_idx, g.num_edges)


def _shifted_rows(edges: np.ndarray, n_edges: int) -> list[tuple[int, int]]:
    # One row per line of ``edges``, whose -1 entries are padding.
    valid = edges >= 0
    lo = np.where(valid, edges, n_edges).min(axis=1)
    r, k = np.nonzero(valid)
    offset = edges[r, k] - lo[r]
    width = int(offset.max()) // 8 + 1
    packed = np.zeros((len(edges), width), dtype=np.uint8)
    np.bitwise_or.at(packed, (r, offset >> 3), (1 << (offset & 7)).astype(np.uint8))
    data = packed.tobytes()
    return [
        (c, int.from_bytes(data[i * width : (i + 1) * width], "little"))
        for i, c in enumerate(lo.tolist())
    ]


def _rref(rows: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Row echelon form by lowest bit: {pivot column: row shifted right by it}.

    Each (lowest column, shifted row) is reduced while a stored row has its
    pivot at the row's lowest column, and stored at the first lowest column
    that has none; rows that reduce to zero are dropped. The pivot columns
    are those of the reduced row echelon form, as the set of lowest columns
    of a row space does not depend on how it is eliminated. A row never
    grows past the highest column of the rows it was reduced by, so none is
    wider than the widest parity row (3n-1 bits once stored, at sides up to
    256).
    """
    pivots: dict[int, int] = {}
    for lo, row in rows:
        while True:
            pivot = pivots.get(lo)
            if pivot is None:
                pivots[lo] = row
                break
            row ^= pivot  # clears bit 0
            if not row:
                break
            step = (row & -row).bit_length() - 1
            row >>= step
            lo += step
    return pivots


def _int_bits(value: int, n_bits: int) -> np.ndarray:
    """The low ``n_bits`` bits of a non-negative int, least significant first."""
    raw = np.frombuffer(value.to_bytes((n_bits + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n_bits, bitorder="little").view(bool)


def null_space_oracle(g: TriGrid) -> tuple[list[EdgeSet], int]:
    """Basis of the parity-constraint null space, by banded GF(2) elimination.

    Returns (basis, dimension). Each column without a pivot gives one basis
    vector, in column order: the null vector that is 1 there and 0 at every
    other pivot-free column, as in the reduced row echelon form. It is
    found by back-substitution from that column down, where a pivot
    column's bit is the parity of its row against the bits already set
    above it, all within a window as wide as the widest row. Independent of
    the constructive basis: this only ever sees the vertex/face parity
    matrix.
    """
    n_edges = g.num_edges
    pivots = _rref(_constraint_rows(g))
    rows = [pivots.get(c, 0) for c in range(n_edges)]  # 0 at a free column
    # The window holds at least the bits a row can reach above its pivot and
    # is written out a whole number of bytes at a time.
    span = -(-max(map(int.bit_length, rows)) // 8) * 8
    keep = (1 << span) - 1
    basis = []
    for free in range(n_edges):
        if rows[free]:
            continue
        vec = bytearray(-(-n_edges // span) * span // 8)
        window, top = 1, free
        for start in range(free // span * span, -1, -span):
            for row in reversed(rows[start:top]):
                window <<= 1
                if (window & row).bit_count() & 1:
                    window |= 1
            window &= keep  # bit k is now the bit of column start + k
            vec[start // 8 : (start + span) // 8] = window.to_bytes(span // 8, "little")
            top = start
        bits = np.unpackbits(np.frombuffer(vec, np.uint8), count=n_edges, bitorder="little")
        basis.append(EdgeSet(g, bits.view(bool)))
    return basis, len(basis)


# -- the constructive basis ---------------------------------------------------


def max_basis_index(n: int) -> int:
    return n // 2


def _check_int(value, what: str) -> None:
    """Raise unless ``_is_int(value)``."""
    if not _is_int(value):
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
    x, y, n, d = g.edge_base_x, g.edge_base_y, g.n, g.edge_dir
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
    Each row is a Python int; the bits of all rows are scattered to their
    edges in one step through ``g.sweep_order``, built once per grid.
    """
    pattern = _binary(pattern, "bottom pattern bits")
    if pattern.shape != (g.n,):
        raise InvalidInputError(
            f"bottom pattern must have length n={g.n}, got shape {pattern.shape}"
        )
    n = g.n
    h = int.from_bytes(np.packbits(pattern, bitorder="little").tobytes(), "little")
    inc = edges = done = 0
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
        h = (c >> 1) & (mask >> 1)  # down face x: the edge above is c_(x+1)
        inc = a ^ (b >> 1)
    bits = np.zeros(g.num_edges, dtype=bool)
    bits[g.sweep_order] = _int_bits(edges, done)
    result = EdgeSet(g, bits)
    return result if is_totally_even(g, result) else None


def bottom_pattern(g: TriGrid, a: EdgeSet) -> np.ndarray:
    """The bottom-side bit pattern of an edge set, left to right."""
    _check_grid(g, a)
    return a.bits[g.bottom_edge_idx].copy()


# -- closed-form edge count ---------------------------------------------------


def gap_profile_doubled(n: int, indices) -> list[int]:
    """Twice the gaps between consecutive indices, with sentinels.

    The index list i1 < ... < ik is padded with 0 below and (n+1)/2 above;
    doubling keeps the half-integer top gap of even n integral. All gaps
    are positive and sum to n+1 (doubled).
    """
    _check_side(n)
    indices = list(indices)
    for i in indices:
        if not _is_int(i) or i < 1 or 2 * i > n:
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
    _check_grid(g, a)
    return SymmetryReport(
        mirror_invariant=np.array_equal(permute_bits(a.bits, g.reflect_eperm), a.bits),
        rotation_invariant=np.array_equal(permute_bits(a.bits, g.rotate_eperm), a.bits),
        middle_free=not bool(a.bits[g.middle_edge_idx].any()),
    )
