"""Simple cycles, their signatures (tuples of per-face edge counts), a cycle
stream that ``islice`` cuts, exhaustive signature census, same-signature pair
verification, the odd-index obstruction, and the side-sharing rewiring.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter
from itertools import chain, islice
from typing import Iterator

import numpy as np

from . import _kernels
from .errors import InvalidInputError, InvalidParameterError, NotACycleError, RewireError
from .evenalg import (
    EdgeSet,
    _check_basis_index,
    _check_grid,
    _check_int,
    _int_bits,
    _vertex_degrees,
    decompose,
    is_totally_even,
)
from .grid import Dir, Edge, Side, TriGrid
from .transversal import _components, face_links, links_alternate


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


# -- validation ---------------------------------------------------------------


def cycle_defect(g: TriGrid, a: EdgeSet) -> str | None:
    """None if ``a`` is a single simple cycle, else the reason it is not."""
    _check_grid(g, a)
    if not a:
        return "empty"
    deg = _vertex_degrees(g, a.bits)
    if (deg % 2).any():
        return "odd-degree vertex"
    if (deg > 2).any():
        return "vertex degree exceeds 2"
    # All degrees are 0 or 2: the set is a disjoint union of simple cycles.
    sel = np.flatnonzero(a.bits)
    ends = zip(g.u_of_edge[sel].tolist(), g.v_of_edge[sel].tolist())
    if len(_components(np.flatnonzero(deg).tolist(), ends)) > 1:
        return "disconnected"
    return None


def validate_cycle(g: TriGrid, a: EdgeSet) -> Cycle:
    """Wrap ``a`` as a Cycle, or raise NotACycleError with the reason."""
    reason = cycle_defect(g, a)
    if reason is not None:
        raise NotACycleError(reason)
    return Cycle(a)


def signature(g: TriGrid, c: Cycle) -> tuple[int, ...]:
    """Count, for each finite face in index order, how many of its edges the cycle uses."""
    _check_grid(g, c.edge_set)
    return tuple(c.edge_set.bits[g.face_edges_idx].sum(axis=1).tolist())


# -- enumeration --------------------------------------------------------------


def _rows(g: TriGrid) -> Iterator[bytes]:
    """The cycle rows of every root in turn, as ``num_edges``-byte strings."""
    return chain.from_iterable(_kernels.walk_cycles(g, r) for r in range(g.num_vertices))


def enumerate_cycles(g: TriGrid) -> Iterator[Cycle]:
    """Yield every simple cycle exactly once, in deterministic order.

    Cycles are grouped by their lowest vertex and emitted in depth-first
    order with index-sorted branching; ``itertools.islice`` cuts the stream.
    """
    for row in _rows(g):
        yield Cycle(EdgeSet(g, np.frombuffer(row, bool)))


# -- census -------------------------------------------------------------------

# A census keeps the pairs of the first PAIR_CAP repeated signatures it meets;
# a further repeat sets ``pair_cap_hit``.
PAIR_CAP = 32

# ``rewire_shared_side`` gives up after this many rounds.
REWIRE_ROUNDS = 9

# A budgeted census holds every cycle it takes as a ``num_edges``-byte row,
# and packing the signatures takes about 1.3 times that again, so a budget
# whose rows (one past the budget) would pass this many bytes is refused
# before the walk. A whole census holds no rows.
MAX_ROW_BYTES = 2**27

# A whole census keeps every cycle as a uint64 edge mask, a packed signature
# and its bytes key, and peaks at about 124 bytes a cycle at side 5
# (tracemalloc). Side 6 has 16.8 million cycles, so a census past this side
# needs a budget.
MAX_WHOLE_CENSUS_SIDE = 5


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


def census(g: TriGrid, max_cycles: int | None = None) -> CensusResult:
    """Group every simple cycle by signature and surface repeated ones.

    Signatures are packed two bits per face and keyed exactly, so equal
    keys mean equal signatures. The first ``PAIR_CAP`` repeated signatures
    in enumeration order give the pairs, sorted by packed signature. A
    ``max_cycles`` budget yields a result flagged as partial; a census past
    side ``MAX_WHOLE_CENSUS_SIDE`` needs one.
    """
    if max_cycles is not None:
        _check_int(max_cycles, "max_cycles")
        if max_cycles < 0:
            raise InvalidParameterError(f"max_cycles must be >= 0, got {max_cycles}")
    if max_cycles is None and g.n > MAX_WHOLE_CENSUS_SIDE:
        raise InvalidParameterError(
            f"a census past side {MAX_WHOLE_CENSUS_SIDE} needs max_cycles, got side {g.n}"
        )
    # One cycle past the budget is walked to tell an exact fit from a cut.
    if max_cycles is not None and int(max_cycles) + 1 > MAX_ROW_BYTES // g.num_edges:
        raise InvalidParameterError(
            f"max_cycles must be <= {MAX_ROW_BYTES // g.num_edges - 1} at side {g.n},"
            f" got {max_cycles}"
        )
    if max_cycles is None:
        # Every search state is visited anyway, so each is expanded once, and
        # the signatures are summed from the masks' bytes: no rows are built.
        words = np.concatenate([_kernels.cycle_masks(g, r) for r in range(g.num_vertices)])
        signatures = _kernels.mask_signatures(words, g.mask_signature_table)
        partial = False

        def pair_rows(i: int, j: int) -> list[np.ndarray]:
            return [_int_bits(int(words[k]), g.num_edges) for k in (i, j)]

    else:
        # Grown in place, so the rows are never held twice.
        kept = bytearray()
        stream = _rows(g)
        for row in islice(stream, max_cycles):
            kept += row
        partial = next(stream, None) is not None
        del stream  # ends a cut walk, so its search states are freed before packing
        rows = np.frombuffer(kept, bool).reshape(-1, g.num_edges)
        signatures = _kernels.signature_words(rows, g.face_edges_idx)

        def pair_rows(i: int, j: int) -> np.ndarray:
            return rows[[i, j]]

    multiplicities, repeats, pair_cap_hit = _group(signatures)
    return CensusResult(
        n=g.n,
        total_cycles=signatures.shape[0],
        multiplicities=multiplicities,
        pairs=[
            (validate_cycle(g, EdgeSet(g, a)), validate_cycle(g, EdgeSet(g, b)))
            for a, b in (pair_rows(i, j) for _, i, j in repeats)
        ],
        partial=partial,
        pair_cap_hit=pair_cap_hit,
    )


def _group(
    signatures: np.ndarray,
) -> tuple[dict[bytes, int], list[tuple[bytes, int, int]], bool]:
    """Group packed signature rows by key.

    Gives the multiplicities in first-seen order; (signature, first row,
    second row) of the first ``PAIR_CAP`` repeated signatures met, sorted
    by signature; and whether a further repeat was met.
    """
    # A void view gives every packed row as one bytes key in one call; unlike
    # an "S" view it keeps trailing zero bytes.
    keys = signatures.view(f"V{signatures.shape[1]}").ravel().tolist()
    # Counter counts in one C loop and is itself the multiplicity dict, in
    # first-seen order: a copy would hold a second table at the census's peak.
    multiplicities = Counter(keys)
    if len(multiplicities) == len(keys):
        return multiplicities, [], False
    # Only the rows of repeated keys are gathered, to find their first two.
    repeated = {key for key, m in multiplicities.items() if m > 1}
    rows_of: dict[bytes, list[int]] = {}
    for r, key in enumerate(keys):
        if key in repeated:
            rows_of.setdefault(key, []).append(r)
    # (second row, first row, signature), in the order the repeats are met.
    met = sorted((rows[1], rows[0], key) for key, rows in rows_of.items())
    repeats = sorted((key, i, j) for j, i, key in met[:PAIR_CAP])
    return multiplicities, repeats, len(met) > PAIR_CAP


# -- pair verification ---------------------------------------------------------


@dataclass(frozen=True)
class PairReport:
    """Checks on the symmetric difference of two same-signature cycles."""

    diff_totally_even: bool
    diff_size: int
    divisible_by_12: bool
    decomposition: tuple[int, ...]
    smallest_index_even: bool
    faces_alternate: bool

    @property
    def all_hold(self) -> bool:
        return (
            self.diff_totally_even
            and self.divisible_by_12
            and self.smallest_index_even
            and self.faces_alternate
        )


def _check_pair(g: TriGrid, c1: Cycle, c2: Cycle) -> None:
    """Raise unless the two cycles are distinct and share a signature."""
    if c1.edge_set == c2.edge_set:
        raise InvalidInputError("the two cycles must be distinct")
    _check_same_signature(g, c1, c2)


def _check_same_signature(g: TriGrid, c1: Cycle, c2: Cycle) -> None:
    if signature(g, c1) != signature(g, c2):
        raise InvalidInputError("the two cycles must have equal signatures")


def verify_pair(g: TriGrid, c1: Cycle, c2: Cycle) -> PairReport:
    """Verify the invariants a same-signature cycle pair must satisfy.

    The two cycles must be distinct and share a signature; the report then
    covers total evenness of the difference, divisibility of its size by
    twelve, evenness of the smallest decomposition index, and the per-face
    condition that a face holding two difference edges takes one from each
    cycle.
    """
    _check_pair(g, c1, c2)
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
    _check_basis_index(g, i)
    return EdgeSet(g, (g.edge_dir != Dir.NW) & (g.edge_base_x + g.edge_base_y == i + 1))


# -- side-sharing rewiring ------------------------------------------------------


def shared_side_edges(g: TriGrid, c1: Cycle, c2: Cycle) -> dict[Side, list[Edge]]:
    """Edges of each side used by both cycles."""
    _check_grid(g, c1.edge_set)
    _check_grid(g, c2.edge_set)
    both = (c1.edge_set & c2.edge_set).bits
    return {s: [g.edges[i] for i in g.side_edge_indices(s) if both[i]] for s in Side}


def rewire_shared_side(g: TriGrid, c1: Cycle, c2: Cycle) -> tuple[Cycle, Cycle]:
    """Rewire a same-signature pair until it shares an edge on every side.

    On each deficient side (brought to the bottom by rotation), the
    lowest shared up-left diagonal off the first row is swapped for the
    two boundary edges beneath it, toggling membership in both cycles, and
    both results are revalidated. Raises RewireError if no shared diagonal
    exists or ``REWIRE_ROUNDS`` rounds leave a side deficient.
    """
    _check_pair(g, c1, c2)
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
        if rounds >= REWIRE_ROUNDS:
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
