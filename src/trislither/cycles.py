"""Simple cycles, their per-face signatures, exhaustive signature census,
same-signature pair verification, the odd-index obstruction, and the
side-sharing rewiring procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _kernels
from .errors import InvalidInputError, InvalidParameterError, NotACycleError, RewireError
from .evenalg import EdgeSet, _check_int, _vertex_degrees, decompose, is_totally_even
from .grid import Dir, Edge, Side, TriGrid
from .transversal import face_links, links_alternate


@dataclass(frozen=True)
class Cycle:
    """A validated single simple cycle, held as its edge set."""

    edge_set: EdgeSet

    @property
    def grid(self) -> TriGrid:
        return self.edge_set.grid

    def __len__(self) -> int:
        return len(self.edge_set)

    def edges(self) -> list[Edge]:
        return self.edge_set.edges()

    def __repr__(self) -> str:
        return f"Cycle(n={self.grid.n}, length={len(self)})"


class Signature:
    """Per-finite-face edge counts of a cycle, in canonical face order."""

    __slots__ = ("counts",)

    def __init__(self, counts):
        counts = np.array(counts, dtype=np.uint8, copy=True)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    def __setattr__(self, name, value):
        raise AttributeError("Signature is immutable")

    def __getitem__(self, face_idx: int) -> int:
        return int(self.counts[face_idx])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return bool(np.array_equal(self.counts, other.counts))

    def __hash__(self) -> int:
        return hash(self.counts.tobytes())

    def __repr__(self) -> str:
        return f"Signature({self.counts.tolist()})"


# -- validation ---------------------------------------------------------------


def cycle_defect(g: TriGrid, a: EdgeSet) -> str | None:
    """None if ``a`` is a single simple cycle, else the reason it is not."""
    if a.grid.n != g.n:
        raise InvalidInputError("edge set does not belong to this grid")
    if not a:
        return "empty"
    deg = _vertex_degrees(g, a.bits)
    if (deg % 2).any():
        return "odd-degree vertex"
    if (deg > 2).any():
        return "vertex degree exceeds 2"
    # All degrees are 0 or 2: the set is a disjoint union of simple cycles.
    adj: dict[int, list[int]] = {}
    for ei in np.flatnonzero(a.bits):
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
    if len(seen) != len(adj):
        return "disconnected"
    return None


def validate_cycle(g: TriGrid, a: EdgeSet) -> Cycle:
    """Wrap ``a`` as a Cycle, or raise NotACycleError with the reason."""
    reason = cycle_defect(g, a)
    if reason is not None:
        raise NotACycleError(reason)
    return Cycle(a)


def signature(g: TriGrid, c: Cycle) -> Signature:
    """Count, for each finite face, how many of its edges the cycle uses."""
    if c.grid.n != g.n:
        raise InvalidInputError("edge set does not belong to this grid")
    counts = c.edge_set.bits[g.face_edges_idx].sum(axis=1)
    return Signature(counts)


# -- enumeration --------------------------------------------------------------


def _check_budget(name: str, value) -> None:
    if value is not None:
        _check_int(value, name)
        if value < 0:
            raise InvalidParameterError(f"{name} must be >= 0, got {value}")


def _root_batches(g: TriGrid, budget: int | None) -> Iterator[np.ndarray]:
    """Cycle rows of each root in turn, at most ``budget`` rows in all."""
    remaining = -1 if budget is None else budget
    for root in range(g.num_vertices):
        if remaining == 0:
            return
        rows = _kernels.cycles_from_root(
            root, g.nbr, g.nbr_edge, g.deg, g.num_edges, remaining
        )
        if remaining > 0:
            remaining -= rows.shape[0]
        yield rows


def enumerate_cycles(g: TriGrid, limit: int | None = None) -> Iterator[Cycle]:
    """Yield every simple cycle exactly once, in deterministic order.

    Cycles are grouped by their lowest vertex and emitted in depth-first
    order with index-sorted branching. ``limit`` truncates the stream.
    """
    _check_budget("limit", limit)
    for rows in _root_batches(g, limit):
        for row in rows:
            yield Cycle(EdgeSet(g, row))


# -- census -------------------------------------------------------------------


@dataclass
class CensusResult:
    """Multiplicity map over the enumerated cycles of one grid."""

    n: int
    total_cycles: int
    multiplicities: dict[bytes, int]
    pairs: list[tuple[Cycle, Cycle]]
    partial: bool
    pair_cap_hit: bool = False

    @property
    def distinct_signatures(self) -> int:
        return len(self.multiplicities)

    @property
    def max_multiplicity(self) -> int:
        return max(self.multiplicities.values(), default=0)


def _row_at(batches: list[np.ndarray], index: int) -> np.ndarray:
    """Row ``index`` of the batches laid end to end."""
    for rows in batches:
        if index < rows.shape[0]:
            return rows[index]
        index -= rows.shape[0]


def census(
    g: TriGrid,
    max_cycles: int | None = None,
    pair_cap: int = 32,
) -> CensusResult:
    """Group every simple cycle by signature and surface repeated ones.

    Signatures are packed two bits per face and keyed exactly, so equal
    keys mean equal signatures. A ``max_cycles`` budget yields a result
    flagged as partial.
    """
    _check_budget("max_cycles", max_cycles)
    # One extra cycle past the budget distinguishes an exact fit from a cut.
    budget = None if max_cycles is None else int(max_cycles) + 1
    multiplicities: dict[bytes, int] = {}
    # Index of each signature's first cycle. A plain int costs less memory
    # than a row view per signature.
    first_index: dict[bytes, int] = {}
    batches: list[np.ndarray] = []
    keyed_pairs: list[tuple[bytes, Cycle, Cycle]] = []
    pair_cap_hit = False
    total = 0
    partial = False
    for rows in _root_batches(g, budget):
        if max_cycles is not None and total + rows.shape[0] > max_cycles:
            rows = rows[: max_cycles - total]
            partial = True
        batches.append(rows)
        sig_words = _kernels.signature_words(rows, g.face_edges_idx)
        for r, words in enumerate(sig_words):
            key = words.tobytes()
            seen = multiplicities.get(key, 0)
            multiplicities[key] = seen + 1
            if seen == 0:
                first_index[key] = total + r
            elif seen == 1:
                if len(keyed_pairs) < pair_cap:
                    c1 = validate_cycle(g, EdgeSet(g, _row_at(batches, first_index[key])))
                    c2 = validate_cycle(g, EdgeSet(g, rows[r]))
                    keyed_pairs.append((key, c1, c2))
                else:
                    pair_cap_hit = True
        total += rows.shape[0]
    keyed_pairs.sort(key=lambda item: item[0])
    return CensusResult(
        n=g.n,
        total_cycles=total,
        multiplicities=multiplicities,
        pairs=[(c1, c2) for _, c1, c2 in keyed_pairs],
        partial=partial,
        pair_cap_hit=pair_cap_hit,
    )


# -- pair verification ---------------------------------------------------------


@dataclass(frozen=True)
class PairReport:
    """Checks on the symmetric difference of two same-signature cycles."""

    signatures_equal: bool
    distinct: bool
    diff_totally_even: bool
    diff_size: int
    divisible_by_12: bool
    decomposition: tuple[int, ...]
    smallest_index_even: bool
    faces_alternate: bool

    @property
    def all_hold(self) -> bool:
        return (
            self.signatures_equal
            and self.distinct
            and self.diff_totally_even
            and self.divisible_by_12
            and self.smallest_index_even
            and self.faces_alternate
        )


def verify_pair(g: TriGrid, c1: Cycle, c2: Cycle) -> PairReport:
    """Verify the invariants a same-signature cycle pair must satisfy.

    The two cycles must be distinct and share a signature; the report then
    covers total evenness of the difference, divisibility of its size by
    twelve, evenness of the smallest decomposition index, and the per-face
    condition that a face holding two difference edges takes one from each
    cycle.
    """
    if c1.edge_set == c2.edge_set:
        raise InvalidInputError("the two cycles must be distinct")
    if signature(g, c1) != signature(g, c2):
        raise InvalidInputError("the two cycles must have equal signatures")
    diff = c1.edge_set ^ c2.edge_set
    te = is_totally_even(g, diff)
    indices = tuple(decompose(g, diff)) if te else ()
    alternate = links_alternate(
        face_links(g, diff.bits),
        c1.edge_set.difference(c2.edge_set).bits,
        c2.edge_set.difference(c1.edge_set).bits,
    )
    size = len(diff)
    return PairReport(
        signatures_equal=True,
        distinct=True,
        diff_totally_even=te,
        diff_size=size,
        divisible_by_12=size % 12 == 0,
        decomposition=indices,
        smallest_index_even=bool(indices) and indices[0] % 2 == 0,
        faces_alternate=alternate,
    )


def parity_obstruction(g: TriGrid, a: EdgeSet) -> bool:
    """True iff the smallest decomposition index is odd.

    An obstructed subset cannot be the symmetric difference of two cycles
    with the same signature.
    """
    if not a:
        raise InvalidInputError("parity obstruction needs a nonempty subset")
    indices = decompose(g, a)
    return indices[0] % 2 == 1


def zigzag_edges(g: TriGrid, i: int) -> EdgeSet:
    """The 2i-edge staircase along the line x + y = i + 1.

    Alternates horizontal and up-right edges; it is contained in every
    totally even subset whose smallest decomposition index is i.
    """
    from .evenalg import _check_basis_index

    _check_basis_index(g, i)
    x, y = g.vertex_xy[g.u_of_edge].T
    return EdgeSet(g, (g.edge_dir != Dir.NW) & (x + y == i + 1))


# -- side-sharing rewiring ------------------------------------------------------


def shared_side_edges(g: TriGrid, c1: Cycle, c2: Cycle) -> dict[Side, list[Edge]]:
    """Edges of each side used by both cycles."""
    both = (c1.edge_set & c2.edge_set).bits
    return {s: [g.edges[i] for i in g.side_edge_indices(s) if both[i]] for s in Side}


def rewire_shared_side(
    g: TriGrid, c1: Cycle, c2: Cycle, max_rounds: int = 9
) -> tuple[Cycle, Cycle]:
    """Rewire a same-signature pair until it shares an edge on every side.

    On each deficient side (brought to the bottom by rotation), the
    lowest shared up-left diagonal off the first row is swapped for the
    two boundary edges beneath it, toggling membership in both cycles, and
    both results are revalidated. Raises RewireError if no shared diagonal
    exists or the round cap is exceeded.
    """
    if c1.edge_set == c2.edge_set:
        raise InvalidInputError("the two cycles must be distinct")
    if signature(g, c1) != signature(g, c2):
        raise InvalidInputError("the two cycles must have equal signatures")
    # Trading a diagonal (NW) for the E and NE beneath it toggles a first-row up face:
    # faces 0, 2, .., 2n-2. One rotation carries the bottom onto the left, two onto the right.
    bottom, rot = g.face_edges_idx[: 2 * g.n : 2].T, g.rotate_eperm
    swaps = {Side.BOTTOM: bottom, Side.LEFT: rot[bottom], Side.RIGHT: rot[rot[bottom]]}
    b1 = c1.edge_set.bits.copy()
    b2 = c2.edge_set.bits.copy()
    side_idx = {s: g.side_edge_indices(s) for s in Side}
    r1, r2, rounds = c1, c2, 0
    while True:
        shared = b1 & b2
        missing = [s for s in Side if not shared[side_idx[s]].any()]
        if not missing:
            break
        if rounds >= max_rounds:
            raise RewireError(f"no fixpoint after {rounds} rounds; still missing {missing}")
        rounds += 1
        side = missing[0]
        hits = np.flatnonzero(shared[swaps[side][2]])
        if not hits.size:
            raise RewireError(
                f"no shared first-row diagonal available to rewire side {side.value}"
            )
        swap = swaps[side][:, hits[0]]
        b1[swap] ^= True
        b2[swap] ^= True
        r1 = validate_cycle(g, EdgeSet(g, b1))
        r2 = validate_cycle(g, EdgeSet(g, b2))
        if signature(g, r1) != signature(g, r2):
            raise RewireError("rewiring broke signature equality")
        if r1.edge_set == r2.edge_set:
            raise RewireError("rewiring collapsed the two cycles")
    return r1, r2
