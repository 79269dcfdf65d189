import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trislither import (
    EdgeSet,
    build_grid,
    count_edges_closed_form,
    is_totally_even,
    propagate_from_bottom,
    bottom_pattern,
    recompose,
)

from oracles import reference_neighbours

_GRIDS = {}


def grid(n):
    if n not in _GRIDS:
        _GRIDS[n] = build_grid(n)
    return _GRIDS[n]


@st.composite
def n_and_indices(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    half = n // 2
    indices = sorted(draw(st.sets(st.integers(min_value=1, max_value=half))))
    return n, indices


@given(n_and_indices())
@settings(max_examples=60, deadline=None)
def test_closed_form_agrees_with_construction(case):
    n, indices = case
    g = grid(n)
    assert len(recompose(g, indices)) == count_edges_closed_form(n, indices)


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0))
@settings(max_examples=80, deadline=None)
def test_propagation_feasibility(n, seed):
    g = grid(n)
    code = seed % (1 << n)
    pattern = np.array([(code >> k) & 1 for k in range(n)], dtype=bool)
    result = propagate_from_bottom(g, pattern)
    symmetric = all(pattern[k] == pattern[n - 1 - k] for k in range(n))
    middle_clear = n % 2 == 0 or not pattern[(n - 1) // 2]
    assert (result is not None) == (symmetric and middle_clear)
    if result is not None:
        assert is_totally_even(g, result)
        assert np.array_equal(bottom_pattern(g, result), pattern)


@given(st.integers(min_value=0, max_value=(1 << 18) - 1))
@settings(max_examples=120, deadline=None)
def test_totally_even_matches_direct_definition(mask):
    g = grid(3)
    bits = np.array([(mask >> e) & 1 for e in range(g.num_edges)], dtype=bool)
    a = EdgeSet(g, bits)
    by_definition = True
    for inc in reference_neighbours(g):
        if sum(bits[e] for _, e in inc) % 2:
            by_definition = False
    for triple in g.face_edges_idx:
        if sum(bits[int(e)] for e in triple) % 2:
            by_definition = False
    assert is_totally_even(g, a) == by_definition


@given(
    st.integers(min_value=0, max_value=(1 << 18) - 1),
    st.integers(min_value=0, max_value=(1 << 18) - 1),
)
@settings(max_examples=60, deadline=None)
def test_edge_set_xor_group_laws(m1, m2):
    g = grid(3)
    a = EdgeSet(g, np.array([(m1 >> e) & 1 for e in range(g.num_edges)], dtype=bool))
    b = EdgeSet(g, np.array([(m2 >> e) & 1 for e in range(g.num_edges)], dtype=bool))
    assert a ^ b == b ^ a
    assert (a ^ b) ^ b == a
    assert a ^ a == EdgeSet.empty(g)
