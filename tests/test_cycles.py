import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest

from trislither import (
    Dir,
    Edge,
    EdgeSet,
    InvalidInputError,
    InvalidParameterError,
    NotACycleError,
    RewireError,
    Side,
    Vertex,
    basis_subset,
    build_grid,
    census,
    cycle_defect,
    enumerate_cycles,
    is_totally_even,
    parity_obstruction,
    rewire_shared_side,
    shared_side_edges,
    signature,
    totally_even_subsets,
    validate_cycle,
    verify_pair,
    zigzag_edges,
)
from trislither.grid import Face

from oracles import edge_mask, reference_rewire_shared_side, simple_cycle_masks
from refcycles import t5_pair


def face_set(g, anchor, up=True):
    return EdgeSet.from_edges(g, g.face_edges(Face(Vertex(*anchor), up)))


# -- validation ----------------------------------------------------------------


def test_unit_triangle_is_a_cycle(g2):
    c = validate_cycle(g2, face_set(g2, (1, 1)))
    assert len(c) == 3


def test_disjoint_triangles_are_disconnected(g3):
    a = face_set(g3, (1, 1)) ^ face_set(g3, (3, 1))
    assert cycle_defect(g3, a) == "disconnected"
    with pytest.raises(NotACycleError):
        validate_cycle(g3, a)


def test_other_defects(g2):
    assert cycle_defect(g2, EdgeSet.empty(g2)) == "empty"
    single = EdgeSet.from_pairs(g2, [((1, 1), (2, 1))])
    assert cycle_defect(g2, single) == "odd-degree vertex"
    # Two triangles sharing the vertex (2,1).
    bowtie = face_set(g2, (1, 1)) ^ face_set(g2, (2, 1))
    assert cycle_defect(g2, bowtie) == "vertex degree exceeds 2"


def test_reference_walks_are_cycles(g5):
    c1, c2 = t5_pair(g5)
    assert len(c1) == len(c2) == 18


# -- signatures ------------------------------------------------------------------


def test_unit_triangle_signature(g2):
    c = validate_cycle(g2, face_set(g2, (1, 1)))
    sig = signature(g2, c)
    expected = {
        g2.face_index(Face(Vertex(1, 1), True)): 3,
        g2.face_index(Face(Vertex(1, 1), False)): 1,
    }
    for fi in range(g2.num_faces):
        assert sig[fi] == expected.get(fi, 0)


def test_reference_pair_signatures_match(g5):
    c1, c2 = t5_pair(g5)
    s1, s2 = signature(g5, c1), signature(g5, c2)
    assert s1 == s2
    assert s1[g5.face_index(Face(Vertex(1, 1), True))] == 2
    assert s1[g5.face_index(Face(Vertex(5, 1), True))] == 2
    assert s1[g5.face_index(Face(Vertex(1, 5), True))] == 2
    assert s1[g5.face_index(Face(Vertex(2, 2), False))] == 0


def test_boundary_cycle_signature():
    g = build_grid(4)
    boundary = EdgeSet.from_edges(g, [e for s in Side for e in g.side_edges(s)])
    c = validate_cycle(g, boundary)
    sig = signature(g, c)
    for fi in range(g.num_faces):
        on_boundary = sum(
            1 for ei in g.face_edges_idx[fi] if g.boundary_edge_mask[ei]
        )
        assert sig[fi] == on_boundary


def test_signature_checks_the_grid(g2, g5):
    c5, _ = t5_pair(g5)
    c2 = validate_cycle(g2, face_set(g2, (1, 1)))
    for g, c in ((g2, c5), (g5, c2), (build_grid(4), c5)):
        with pytest.raises(InvalidInputError, match="^edge set does not belong to this grid$"):
            signature(g, c)
    with pytest.raises(InvalidInputError, match="^edge set does not belong to this grid$"):
        verify_pair(build_grid(4), *t5_pair(g5))


def test_signature_total_counts_incidences(g5):
    c1, _ = t5_pair(g5)
    sig = signature(g5, c1)
    total = int(sig.counts.sum())
    assert total == sum(int(g5.edge_face_count[i]) for i in np.flatnonzero(c1.edge_set.bits))


# -- enumeration ------------------------------------------------------------------


def test_single_triangle_grid_has_one_cycle(g1):
    assert len(list(enumerate_cycles(g1))) == 1


@pytest.mark.parametrize("n", [2, 3])
def test_enumeration_matches_brute_force(n):
    g = build_grid(n)
    expected = simple_cycle_masks(g)
    got = [edge_mask(c.edge_set) for c in enumerate_cycles(g)]
    assert len(got) == len(set(got)), "duplicate cycles emitted"
    assert set(got) == expected


def test_enumeration_deterministic(g3):
    a = [edge_mask(c.edge_set) for c in enumerate_cycles(g3)]
    b = [edge_mask(c.edge_set) for c in enumerate_cycles(g3)]
    assert a == b


def test_enumeration_sound(g3):
    for c in enumerate_cycles(g3):
        assert cycle_defect(g3, c.edge_set) is None


def test_enumeration_limit(g3):
    assert len(list(enumerate_cycles(g3, limit=5))) == 5
    assert len(list(enumerate_cycles(g3, limit=np.int64(5)))) == 5
    assert list(enumerate_cycles(g3, limit=0)) == []


@pytest.mark.parametrize("budget", [2.5, 2.0, True, False, "3", np.float64(3), -1])
def test_budgets_are_non_bool_integers(g3, budget):
    if budget == -1:
        message = r"^{} must be >= 0, got -1$"
    else:
        message = rf"^{{}} must be an integer, got {re.escape(repr(budget))}$"
    with pytest.raises(InvalidParameterError, match=message.format("limit")):
        list(enumerate_cycles(g3, limit=budget))
    with pytest.raises(InvalidParameterError, match=message.format("max_cycles")):
        census(g3, max_cycles=budget)


# -- census -----------------------------------------------------------------------


def test_census_t1(g1):
    r = census(g1)
    assert r.total_cycles == 1
    assert r.distinct_signatures == 1
    assert r.max_multiplicity == 1
    assert not r.partial


@pytest.mark.parametrize("n", [2, 3])
def test_census_small_grids(n):
    g = build_grid(n)
    r = census(g)
    assert r.total_cycles == len(list(enumerate_cycles(g)))
    assert sum(r.multiplicities.values()) == r.total_cycles
    # Only one basis index exists here and it is odd, so no repeated
    # signature can occur: a repeat would force an even smallest index.
    assert r.max_multiplicity == 1
    assert r.pairs == []


def test_census_partial_budget(g3):
    r = census(g3, max_cycles=50)
    assert r.partial
    assert r.total_cycles == 50
    full = census(g3, max_cycles=110)
    assert not full.partial
    assert full.total_cycles == 110


def test_census_t5_finds_repeated_signatures(g5, census5):
    r = census5
    assert r.max_multiplicity == 2
    assert len(r.pairs) == 8
    assert not r.partial
    for c1, c2 in r.pairs:
        rep = verify_pair(g5, c1, c2)
        assert rep.all_hold
        assert rep.diff_size == 24
        assert rep.decomposition == (2,)


# -- pair verification --------------------------------------------------------------


def test_verify_reference_pair(g5):
    c1, c2 = t5_pair(g5)
    rep = verify_pair(g5, c1, c2)
    assert rep.all_hold
    assert rep.diff_size == 24
    assert rep.divisible_by_12
    assert rep.decomposition == (2,)
    assert (c1.edge_set ^ c2.edge_set) == basis_subset(g5, 2)


def test_verify_pair_preconditions(g5):
    c1, c2 = t5_pair(g5)
    with pytest.raises(InvalidInputError):
        verify_pair(g5, c1, c1)
    other = validate_cycle(g5, face_set(g5, (1, 1)))
    with pytest.raises(InvalidInputError):
        verify_pair(g5, c1, other)


# -- obstruction and zigzag -----------------------------------------------------------


def test_parity_obstruction_examples(g2, g5, g6):
    assert parity_obstruction(g2, basis_subset(g2, 1))
    assert not parity_obstruction(g5, basis_subset(g5, 2))
    assert parity_obstruction(g6, basis_subset(g6, 3))


def test_parity_obstruction_rejects_bad_input(g5):
    with pytest.raises(InvalidInputError):
        parity_obstruction(g5, EdgeSet.empty(g5))
    with pytest.raises(InvalidInputError):
        parity_obstruction(g5, EdgeSet.from_pairs(g5, [((1, 1), (2, 1))]))


def test_zigzag_examples(g5):
    z1 = zigzag_edges(g5, 1)
    assert set(z1.edges()) == {
        g5.edge_between((1, 1), (2, 1)),
        g5.edge_between((1, 1), (1, 2)),
    }
    z2 = zigzag_edges(g5, 2)
    assert len(z2) == 4
    assert not (z2.bits & ~basis_subset(g5, 2).bits).any()


@pytest.mark.parametrize("n", range(2, 11))
def test_zigzag_size_and_membership(n):
    g = build_grid(n)
    half = n // 2
    for i in range(1, half + 1):
        z = zigzag_edges(g, i)
        assert len(z) == 2 * i
        # Contained in the basis subset for i, disjoint from later ones.
        assert not (z.bits & ~basis_subset(g, i).bits).any()
        for j in range(i + 1, half + 1):
            assert not (z.bits & basis_subset(g, j).bits).any()


@pytest.mark.parametrize("n", range(2, 11))
def test_zigzag_contained_in_any_subset_with_that_smallest_index(n):
    g = build_grid(n)
    for indices, a in totally_even_subsets(g):
        if indices:
            z = zigzag_edges(g, indices[0])
            assert not (z.bits & ~a.bits).any()


# -- rewiring ---------------------------------------------------------------------------


def _toggled(g, edge_set, js):
    bits = edge_set.bits.copy()
    for j in js:
        for e in (
            Edge(Vertex(j, 1), Dir.NW),
            Edge(Vertex(j - 1, 1), Dir.E),
            Edge(Vertex(j - 1, 1), Dir.NE),
        ):
            bits[g.edge_index(e)] ^= True
    return validate_cycle(g, EdgeSet(g, bits))


def test_rewire_keeps_already_shared_pair(g5):
    c1, c2 = t5_pair(g5)
    shared = shared_side_edges(g5, c1, c2)
    assert all(shared[s] for s in Side)
    r1, r2 = rewire_shared_side(g5, c1, c2)
    assert r1.edge_set == c1.edge_set
    assert r2.edge_set == c2.edge_set


def test_rewire_rejects_identical(g5):
    c1, _ = t5_pair(g5)
    with pytest.raises(InvalidInputError):
        rewire_shared_side(g5, c1, c1)


def test_rewire_restores_bottom_sharing(g5):
    c1, c2 = t5_pair(g5)
    # Undo both bottom sharings: swap each shared corner path for its
    # diagonal shortcut in both cycles.
    f1 = _toggled(g5, c1.edge_set, [2, 6])
    f2 = _toggled(g5, c2.edge_set, [2, 6])
    assert signature(g5, f1) == signature(g5, f2)
    before = shared_side_edges(g5, f1, f2)
    assert before[Side.BOTTOM] == []
    r1, r2 = rewire_shared_side(g5, f1, f2)
    after = shared_side_edges(g5, r1, r2)
    assert all(after[s] for s in Side)
    assert signature(g5, r1) == signature(g5, r2)
    assert r1.edge_set != r2.edge_set
    assert is_totally_even(g5, r1.edge_set ^ r2.edge_set)


def _rewire_outcome(rewire, g, c1, c2, max_rounds):
    try:
        r1, r2 = rewire(g, c1, c2, max_rounds)
    except (InvalidInputError, RewireError) as exc:
        return type(exc).__name__, str(exc)
    return r1.edge_set, r2.edge_set


def test_rewire_matches_reference(g5, census5):
    """Every side-5 pair, under each grid symmetry, with up to two of its
    bottom corner paths swapped for their diagonals, with and without
    rounds to spare."""
    rot, mirror = g5.rotate_eperm, g5.reflect_eperm
    identity = np.arange(g5.num_edges)
    symmetries = [identity, rot, rot[rot], mirror, rot[mirror], rot[rot[mirror]]]
    outcomes = Counter()
    swaps = [js for k in range(3) for js in itertools.combinations(range(2, 7), k)]
    for pair in [t5_pair(g5), *census5.pairs]:
        for perm, js in itertools.product(symmetries, swaps):
            try:
                c1, c2 = (_toggled(g5, c.edge_set.apply_perm(perm), js) for c in pair)
            except NotACycleError:
                continue
            for max_rounds in (0, 9):
                got = _rewire_outcome(rewire_shared_side, g5, c1, c2, max_rounds)
                want = _rewire_outcome(reference_rewire_shared_side, g5, c1, c2, max_rounds)
                assert got == want
                rewired = got != (c1.edge_set, c2.edge_set)
                outcomes[got[0] if isinstance(got[0], str) else rewired] += 1
    assert outcomes[True] and outcomes[False] and outcomes["RewireError"], outcomes


# -- divisibility witness ------------------------------------------------------------------


def test_gcd_witness(g5, g11):
    small = len(basis_subset(g5, 2))
    large = len(basis_subset(g11, 4) ^ basis_subset(g11, 5))
    assert (small, large) == (24, 60)
    assert math.gcd(small, large) == 12
