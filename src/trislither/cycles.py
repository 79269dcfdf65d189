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
from .evenalg import EdgeSet, _vertex_degrees, decompose, is_totally_even, permute_bits
from .grid import Dir, Edge, Side, TriGrid, Vertex
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
    counts = c.edge_set.bits[g.face_edges_idx].sum(axis=1)
    return Signature(counts)


# -- enumeration --------------------------------------------------------------


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
    if limit is not None and limit < 0:
        raise InvalidParameterError(f"limit must be >= 0, got {limit}")
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
    if max_cycles is not None and max_cycles < 0:
        raise InvalidParameterError(f"max_cycles must be >= 0, got {max_cycles}")
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
        if rows.shape[0] == 0:
            continue
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
    picked = [
        e
        for e in g.edges
        if e.dir in (Dir.E, Dir.NE) and e.base.x + e.base.y == i + 1
    ]
    return EdgeSet.from_edges(g, picked)


# -- side-sharing rewiring ------------------------------------------------------


def shared_side_edges(g: TriGrid, c1: Cycle, c2: Cycle) -> dict[Side, list[Edge]]:
    """Edges of each side used by both cycles."""
    both = c1.edge_set & c2.edge_set
    return {s: [e for e in g.side_edges(s) if e in both] for s in Side}


def _toggle(bits: np.ndarray, g: TriGrid, edge: Edge) -> None:
    bits[g.edge_index(edge)] ^= True


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
    # Rotations needed to bring each side onto the bottom.
    spins = {Side.BOTTOM: 0, Side.LEFT: 2, Side.RIGHT: 1}
    b1 = c1.edge_set.bits.copy()
    b2 = c2.edge_set.bits.copy()
    side_idx = {s: g.side_edge_indices(s) for s in Side}
    rounds = 0
    while True:
        missing = [s for s in Side if not (b1 & b2)[side_idx[s]].any()]
        if not missing:
            break
        if rounds >= max_rounds:
            raise RewireError(f"no fixpoint after {rounds} rounds; still missing {missing}")
        rounds += 1
        side = missing[0]
        for _ in range(spins[side]):
            b1, b2 = permute_bits(b1, g.rotate_eperm), permute_bits(b2, g.rotate_eperm)
        shared = b1 & b2
        j = next(
            (
                j
                for j in range(2, g.n + 2)
                if shared[g.edge_index(Edge(Vertex(j, 1), Dir.NW))]
            ),
            None,
        )
        if j is None:
            raise RewireError(
                f"no shared first-row diagonal available to rewire side {side.value}"
            )
        for bits in (b1, b2):
            _toggle(bits, g, Edge(Vertex(j, 1), Dir.NW))
            _toggle(bits, g, Edge(Vertex(j - 1, 1), Dir.E))
            _toggle(bits, g, Edge(Vertex(j - 1, 1), Dir.NE))
        for _ in range((3 - spins[side]) % 3):
            b1, b2 = permute_bits(b1, g.rotate_eperm), permute_bits(b2, g.rotate_eperm)
        r1 = validate_cycle(g, EdgeSet(g, b1))
        r2 = validate_cycle(g, EdgeSet(g, b2))
        if signature(g, r1) != signature(g, r2):
            raise RewireError("rewiring broke signature equality")
        if r1.edge_set == r2.edge_set:
            raise RewireError("rewiring collapsed the two cycles")
    out1 = validate_cycle(g, EdgeSet(g, b1))
    out2 = validate_cycle(g, EdgeSet(g, b2))
    return out1, out2
