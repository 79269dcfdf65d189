import time

import numpy as np
import pytest

from trislither import (
    EdgeSet,
    InvalidEdgeError,
    InvalidInputError,
    InvalidParameterError,
    TriGrid,
    Vertex,
    basis_cardinality,
    basis_subset,
    bottom_pattern,
    build_grid,
    check_symmetries,
    count_edges_closed_form,
    decompose,
    gap_profile_doubled,
    is_totally_even,
    max_basis_index,
    null_space_oracle,
    propagate_from_bottom,
    recompose,
    totally_even_subsets,
    totally_even_violation,
)

from conftest import deadline
from oracles import all_even_subset_masks, edge_mask, reference_null_space_oracle
from refcycles import T6_HEX_RING_WALK, cycle_from_walk


def test_empty_set_is_totally_even(g5):
    assert is_totally_even(g5, EdgeSet.empty(g5))


def test_single_edge_is_not(g5):
    a = EdgeSet.from_pairs(g5, [((1, 1), (2, 1))])
    assert not is_totally_even(g5, a)
    assert "odd incidence" in totally_even_violation(g5, a)


def test_from_pairs_takes_vertices_and_integers_of_any_size(g5):
    a = EdgeSet.from_pairs(g5, [(Vertex(1, 1), (2, 1)), ((1, 2), Vertex(1, 1))])
    assert a.edges() == [g5.edge_between((1, 1), (2, 1)), g5.edge_between((1, 1), (1, 2))]
    assert EdgeSet.from_pairs(g5, iter([])) == EdgeSet.empty(g5)
    with pytest.raises(InvalidEdgeError, match=rf"^\(1,1\) and \({10**30},1\) are not adjacent"):
        EdgeSet.from_pairs(g5, [((1, 1), (2, 1)), ((1, 1), (10**30, 1))])


@pytest.mark.parametrize("n", [5, 12])
def test_vertex_pairs_round_trip(n):
    g = build_grid(n)
    assert EdgeSet.empty(g).vertex_pairs() == []
    for i in range(1, max_basis_index(n) + 1):
        a = basis_subset(g, i)
        sel = np.flatnonzero(a.bits)
        # (base, other) of each edge, in edge-index order.
        base, other = (g.vertex_xy[ends[sel]].tolist() for ends in (g.u_of_edge, g.v_of_edge))
        assert a.vertex_pairs() == [(tuple(u), tuple(v)) for u, v in zip(base, other)]
        assert EdgeSet.from_pairs(g, a.vertex_pairs()) == a


def test_odd_face_is_named_without_object_views():
    g = build_grid(7)
    # The boundary of down@(2,2): every vertex is even, and the first odd
    # face in index order is up@(2,2), which holds one of its edges.
    a = EdgeSet.from_pairs(g, [((3, 2), (2, 3)), ((3, 2), (3, 3)), ((2, 3), (3, 3))])
    assert totally_even_violation(g, a) == "face up@(2,2) contains 1 edges"
    assert not {"vertices", "edges"} & set(vars(g))
    # The boundary of up@(1,1), the first face, which holds all three.
    g = TriGrid(3)
    a = EdgeSet.from_pairs(g, [((1, 1), (2, 1)), ((1, 1), (1, 2)), ((2, 1), (1, 2))])
    assert totally_even_violation(g, a) == "face up@(1,1) contains 3 edges"
    assert not {"vertices", "edges"} & set(vars(g))


def test_odd_vertex_message():
    g = build_grid(4)
    # (2,2) meets three of the edges, (1,1) none: the first odd vertex is (2,1).
    a = EdgeSet.from_pairs(g, [((2, 1), (2, 2)), ((2, 2), (3, 2)), ((2, 2), (1, 3))])
    assert totally_even_violation(g, a) == "vertex (2,1) has odd incidence (1)"
    a = EdgeSet.from_pairs(g, [((2, 2), (3, 2)), ((2, 2), (1, 3)), ((2, 2), (2, 3))])
    assert totally_even_violation(g, a) == "vertex (2,2) has odd incidence (3)"



def test_odd_vertex_message_needs_no_neighbour_table():
    g = TriGrid(4)
    a = EdgeSet.from_pairs(g, [((2, 2), (3, 2)), ((2, 2), (1, 3)), ((2, 2), (2, 3))])
    assert totally_even_violation(g, a) == "vertex (2,2) has odd incidence (3)"
    assert "nbr_edge" not in vars(g)

def test_verdict_builds_no_message(monkeypatch):
    """is_totally_even names no face, so it lays out none."""
    from trislither import evenalg

    def no_layout(*args):
        raise AssertionError("a face layout was computed")

    g = build_grid(7)
    a = EdgeSet.from_pairs(g, [((3, 2), (2, 3)), ((3, 2), (3, 3)), ((2, 3), (3, 3))])
    monkeypatch.setattr(evenalg, "_face_layout", no_layout)
    assert not is_totally_even(g, a)
    assert is_totally_even(g, basis_subset(g, 2))


def test_hex_ring_fixture_is_totally_even(g6):
    ring = cycle_from_walk(g6, T6_HEX_RING_WALK).edge_set
    assert len(ring) == 18
    assert is_totally_even(g6, ring)
    assert ring == basis_subset(g6, 3)


def test_size_mismatch_rejected(g2, g5):
    a = EdgeSet.empty(g5)
    with pytest.raises(InvalidInputError):
        is_totally_even(g2, a)
    with pytest.raises(InvalidInputError):
        a ^ EdgeSet.empty(g2)


def test_edge_set_algebra(g5):
    a = basis_subset(g5, 1)
    b = basis_subset(g5, 2)
    assert a ^ a == EdgeSet.empty(g5)
    assert a ^ EdgeSet.empty(g5) == a
    assert (a ^ b) ^ b == a
    assert len(a & b) + len(a ^ b) + len(a & b) == len(a) + len(b)
    assert not EdgeSet.empty(g5)
    assert a


def test_edge_set_rejects_non_binary_bits(g2):
    bits = np.zeros(g2.num_edges, dtype=np.int64)
    bits[0] = 1
    assert len(EdgeSet(g2, bits)) == 1
    bits[1] = 2
    with pytest.raises(InvalidInputError):
        EdgeSet(g2, bits)
    for bad in (0.5, -1, np.nan, "1", None):
        with pytest.raises(InvalidInputError, match="edge bits must be 0 or 1"):
            EdgeSet(g2, [0] * (g2.num_edges - 1) + [bad])


@pytest.mark.parametrize("n,dim", [(6, 3), (1, 0), (13, 6)])
def test_oracle_dimension_examples(n, dim):
    g = build_grid(n)
    basis, d = null_space_oracle(g)
    assert d == dim == len(basis)


@pytest.mark.parametrize("n", range(1, 17))
def test_oracle_vectors_are_totally_even_and_decomposable(n):
    g = build_grid(n)
    basis, d = null_space_oracle(g)
    assert d == max_basis_index(n)
    for vec in basis:
        assert is_totally_even(g, vec)
        assert recompose(g, decompose(g, vec)) == vec


@pytest.mark.parametrize("n", range(1, 25))
def test_oracle_matches_dense_elimination(n):
    """The banded elimination finds the same pivots, so the same basis,
    vector for vector and in order, as dense Gauss-Jordan elimination."""
    g = build_grid(n)
    basis, d = null_space_oracle(g)
    expected, expected_d = reference_null_space_oracle(g)
    assert d == expected_d == len(basis)
    assert basis == expected


@pytest.mark.parametrize("n", [64, 128])
def test_oracle_past_dense_sizes(n):
    """Dense elimination had not finished at side 128 after 600 s; the
    banded one keeps rows as narrow as the band and takes about 0.5 s."""
    g = build_grid(n)
    with deadline(20):
        t0 = time.perf_counter()
        basis, d = null_space_oracle(g)
        elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    assert d == len(basis) == n // 2
    assert all(is_totally_even(g, vec) for vec in basis)
    index_sets = {tuple(decompose(g, vec)) for vec in basis}
    assert len(index_sets) == d and () not in index_sets


@pytest.mark.parametrize("n", [1, 2, 3])
def test_even_space_matches_brute_force(n):
    g = build_grid(n)
    expected = all_even_subset_masks(g)
    via_basis = {edge_mask(a) for _, a in totally_even_subsets(g)}
    assert via_basis == expected
    oracle_basis, d = null_space_oracle(g)
    assert 1 << d == len(expected)


@pytest.mark.parametrize(
    "n,i,size",
    [(5, 2, 24), (6, 3, 18), (12, 3, 126), (2, 1, 6)],
)
def test_basis_subset_sizes(n, i, size):
    g = build_grid(n)
    a = basis_subset(g, i)
    assert len(a) == size == basis_cardinality(n, i)
    assert is_totally_even(g, a)


@pytest.mark.parametrize("n", range(1, 17))
def test_basis_bottom_edges(n):
    g = build_grid(n)
    half = max_basis_index(n)
    for i in range(1, half + 1):
        pattern = bottom_pattern(g, basis_subset(g, i))
        left = np.flatnonzero(pattern[:half]) + 1
        assert list(left) == [i]
        # The mirror edge is the only other bottom edge.
        assert list(np.flatnonzero(pattern) + 1) == sorted({i, n + 1 - i})


def test_basis_index_range(g5):
    with pytest.raises(InvalidParameterError):
        basis_subset(g5, 0)
    with pytest.raises(InvalidParameterError):
        basis_subset(g5, 3)
    with pytest.raises(InvalidParameterError):
        basis_subset(build_grid(1), 1)


def test_decompose_examples(g5, g11):
    assert decompose(g5, EdgeSet.empty(g5)) == []
    assert decompose(g5, basis_subset(g5, 2)) == [2]
    both = basis_subset(g11, 4) ^ basis_subset(g11, 5)
    assert decompose(g11, both) == [4, 5]


def test_decompose_requires_totally_even(g5):
    with pytest.raises(InvalidInputError):
        decompose(g5, EdgeSet.from_pairs(g5, [((1, 1), (2, 1))]))


@pytest.mark.parametrize("n", range(1, 13))
def test_decompose_recompose_roundtrip(n):
    g = build_grid(n)
    for indices, a in totally_even_subsets(g):
        assert tuple(decompose(g, a)) == indices
        assert recompose(g, indices) == a


def test_propagate_examples(g5):
    assert propagate_from_bottom(g5, [0, 0, 0, 0, 0]) == EdgeSet.empty(g5)
    assert propagate_from_bottom(g5, [0, 1, 0, 1, 0]) == basis_subset(g5, 2)
    assert propagate_from_bottom(g5, [0, 1, 0, 0, 0]) is None
    with pytest.raises(InvalidInputError):
        propagate_from_bottom(g5, [0, 1, 0])
    for pattern in (
        [0, 2, 0, 2, 0], [0, 0.5, 0, -1, 0], [0, np.nan, 0, 1, 0],
        [0, "1", 0, "1", 0], [0, None, 0, None, 0], ["0"] * 5, "01010",
    ):
        with pytest.raises(InvalidInputError, match="bottom pattern bits must be 0 or 1"):
            propagate_from_bottom(g5, pattern)


@pytest.mark.parametrize("n", range(1, 11))
def test_propagate_roundtrip(n):
    g = build_grid(n)
    for _, a in totally_even_subsets(g):
        assert propagate_from_bottom(g, bottom_pattern(g, a)) == a


@pytest.mark.parametrize("n", range(1, 11))
def test_propagate_feasibility_is_mirror_symmetry(n):
    g = build_grid(n)
    for code in range(1 << n):
        pattern = np.array([(code >> k) & 1 for k in range(n)], dtype=bool)
        symmetric = all(pattern[k] == pattern[n - 1 - k] for k in range(n))
        middle_clear = n % 2 == 0 or not pattern[(n - 1) // 2]
        result = propagate_from_bottom(g, pattern)
        if symmetric and middle_clear:
            assert result is not None
            assert np.array_equal(bottom_pattern(g, result), pattern)
        else:
            assert result is None


def test_closed_form_examples():
    assert count_edges_closed_form(11, [4, 5]) == 60
    assert count_edges_closed_form(7, []) == 0
    assert count_edges_closed_form(12, [2, 3, 6]) == 90


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: TriGrid(True), "grid side must be an integer >= 1, got True"),
        (lambda: TriGrid(0), "grid side must be an integer >= 1, got 0"),
        (lambda: TriGrid(2.0), "grid side must be an integer >= 1, got 2.0"),
        (lambda: gap_profile_doubled(True, []), "grid side must be an integer >= 1, got True"),
        (lambda: gap_profile_doubled(5, [True]), "index True out of range for n=5"),
    ],
)
def test_side_and_index_messages(call, message):
    with pytest.raises(InvalidParameterError) as info:
        call()
    assert str(info.value) == message


def test_gap_profile_doubled():
    # n=12, {2,3,6}: gaps 2, 1, 3, 1/2 doubled.
    assert gap_profile_doubled(12, [2, 3, 6]) == [4, 2, 6, 1]
    assert gap_profile_doubled(11, [4, 5]) == [8, 2, 2]
    assert gap_profile_doubled(9, []) == [10]
    with pytest.raises(InvalidParameterError):
        gap_profile_doubled(True, [])
    for n in range(1, 13):
        for indices, _ in totally_even_subsets(build_grid(n)):
            gaps = gap_profile_doubled(n, list(indices))
            assert all(gap > 0 for gap in gaps)
            assert sum(gaps) == n + 1


def test_closed_form_matches_direct_instance():
    g = build_grid(12)
    assert len(recompose(g, [2, 3, 6])) == 90


def test_closed_form_rejects_malformed():
    with pytest.raises(InvalidParameterError):
        count_edges_closed_form(11, [5, 4])
    with pytest.raises(InvalidParameterError):
        count_edges_closed_form(11, [4, 4])
    with pytest.raises(InvalidParameterError):
        count_edges_closed_form(11, [0])
    with pytest.raises(InvalidParameterError):
        count_edges_closed_form(11, [6])
    with pytest.raises(InvalidParameterError):
        count_edges_closed_form(0, [])


@pytest.mark.parametrize("n", range(1, 13))
def test_closed_form_matches_direct_everywhere(n):
    g = build_grid(n)
    for indices, a in totally_even_subsets(g):
        assert len(a) == count_edges_closed_form(n, list(indices))


def test_check_symmetries_examples(g5, g6):
    assert check_symmetries(g5, EdgeSet.empty(g5)).all_hold
    assert check_symmetries(g6, basis_subset(g6, 3)).all_hold
    rep = check_symmetries(g5, EdgeSet.from_pairs(g5, [((1, 1), (2, 1))]))
    assert not rep.mirror_invariant


@pytest.mark.parametrize("n", range(1, 13))
def test_nonempty_subsets_have_size_divisible_by_six(n):
    g = build_grid(n)
    for indices, a in totally_even_subsets(g):
        if indices:
            assert len(a) % 6 == 0


@pytest.mark.parametrize("n", range(2, 13))
def test_middle_edges_never_used(n):
    g = build_grid(n)
    assert len(g.middle_edge_idx) > 0
    for _, a in totally_even_subsets(g):
        assert not a.bits[g.middle_edge_idx].any()
