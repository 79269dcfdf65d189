"""End-to-end acceptance suite.

Each test prints one pass/fail line (run with ``pytest -s`` to see them)
and enforces the stated wall-clock budget where one applies.
"""

import math
import time

import numpy as np
import pytest

from trislither import (
    EdgeSet,
    basis_cardinality,
    basis_subset,
    bottom_pattern,
    build_grid,
    census,
    check_symmetries,
    count_edges_closed_form,
    decompose,
    enumerate_cycles,
    is_totally_even,
    max_basis_index,
    null_space_oracle,
    parity_obstruction,
    propagate_from_bottom,
    recompose,
    signature,
    totally_even_subsets,
    verify_pair,
)
from trislither.transversal import (
    ComponentKind,
    alternation_check,
    build_transversal,
    check_mod4,
    decompose_transversals,
)

from oracles import edge_mask, simple_cycle_masks
from refcycles import t5_pair


class _timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def _report(name: str, elapsed: float | None = None, ok: bool = True):
    stamp = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{stamp}")


def test_null_space_dimension_is_half_floor():
    with _timer() as t:
        for n in range(1, 17):
            _, dim = null_space_oracle(build_grid(n))
            assert dim == n // 2, f"n={n}: dimension {dim}"
    assert t.elapsed < 5.0
    _report("null-space dimension = floor(n/2), n=1..16", t.elapsed)


def test_basis_subsets_are_exact():
    with _timer() as t:
        for n in range(1, 17):
            g = build_grid(n)
            half = max_basis_index(n)
            for i in range(1, half + 1):
                a = basis_subset(g, i)
                assert is_totally_even(g, a)
                pattern = bottom_pattern(g, a)
                assert list(np.flatnonzero(pattern[:half]) + 1) == [i]
                assert len(a) == basis_cardinality(n, i) == 6 * (n - 2 * i + 1) * i
    assert t.elapsed < 5.0
    _report("basis subsets exact (evenness, bottom edge, size), n=1..16", t.elapsed)


def test_edge_count_product_formula_is_exact():
    with _timer() as t:
        for n in range(1, 15):
            g = build_grid(n)
            for indices, a in totally_even_subsets(g):
                assert len(a) == count_edges_closed_form(n, list(indices))
        assert count_edges_closed_form(11, [4, 5]) == 60
    assert t.elapsed < 30.0
    _report("edge-count product formula exact on every subset, n=1..14", t.elapsed)


def test_every_subset_is_symmetric_and_middle_free():
    with _timer() as t:
        for n in range(1, 13):
            g = build_grid(n)
            for _, a in totally_even_subsets(g):
                rep = check_symmetries(g, a)
                assert rep.mirror_invariant
                assert rep.rotation_invariant
                assert rep.middle_free
    assert t.elapsed < 30.0
    _report("mirror/rotation invariance and middle exclusion, n=1..12", t.elapsed)


def test_bottom_side_determines_subset():
    with _timer() as t:
        for n in range(1, 13):
            g = build_grid(n)
            for _, a in totally_even_subsets(g):
                assert propagate_from_bottom(g, bottom_pattern(g, a)) == a
            for code in range(1 << n):
                pattern = np.array([(code >> k) & 1 for k in range(n)], dtype=bool)
                symmetric = all(pattern[k] == pattern[n - 1 - k] for k in range(n))
                middle_clear = n % 2 == 0 or not pattern[(n - 1) // 2]
                feasible = propagate_from_bottom(g, pattern) is not None
                assert feasible == (symmetric and middle_clear)
    _report("bottom-side propagation: unique and exactly characterized, n=1..12", t.elapsed)


@pytest.mark.parametrize("n", [41, 64, 127, 128])
def test_bottom_propagation_past_exhaustive_sizes(n):
    # The wedge construction behind recompose is an independent path. Odd
    # sides check the middle bottom edge, which every pattern leaves unset.
    g = build_grid(n)
    rng = np.random.default_rng(n)
    half = n // 2
    solve_s = 0.0
    for _ in range(3):
        left = rng.integers(0, 2, half).astype(bool)
        pattern = np.concatenate([left, np.zeros(n % 2, dtype=bool), left[::-1]])
        flipped = pattern.copy()
        flipped[rng.integers(n)] ^= True
        with _timer() as t:
            a = propagate_from_bottom(g, pattern)
            none = propagate_from_bottom(g, flipped)
        solve_s += t.elapsed
        assert a == recompose(g, [i for i in range(1, half + 1) if left[i - 1]])
        assert none is None
    if n == 128:
        assert solve_s < 1.0
    _report(f"bottom propagation matches recompose and refuses flips, n={n}", solve_s)


def test_reference_pair_reproduction():
    g5 = build_grid(5)
    with _timer() as t:
        c1, c2 = t5_pair(g5)
        assert signature(g5, c1) == signature(g5, c2)
        diff = c1.edge_set ^ c2.edge_set
        assert diff == basis_subset(g5, 2)
        assert len(diff) == 24
        assert len(diff) % 12 == 0
        d = decompose_transversals(build_transversal(g5, diff))
        assert sorted(c.node_count for c in d) == [4, 4, 4, 12]
        assert check_mod4(d)
        assert alternation_check(g5, diff, c1, c2)
    assert t.elapsed < 1.0
    _report("side-5 reference pair: signature, difference, transversals", t.elapsed)


def test_gcd_witness():
    with _timer() as t:
        g5 = build_grid(5)
        g11 = build_grid(11)
        small = len(basis_subset(g5, 2))
        large = len(basis_subset(g11, 4) ^ basis_subset(g11, 5))
        assert small == 24
        assert large == 60
        assert math.gcd(small, large) == 12
    _report("gcd witness: |24| and |60| give gcd 12", t.elapsed)


def test_obstruction_consistency():
    with _timer() as t:
        g2 = build_grid(2)
        hexagon = basis_subset(g2, 1)
        d = decompose_transversals(build_transversal(g2, hexagon))
        assert not check_mod4(d)
        assert parity_obstruction(g2, hexagon)
        for n in (2, 3):
            g = build_grid(n)
            result = census(g)
            assert not result.partial
            for c1, c2 in result.pairs:
                rep = verify_pair(g, c1, c2)
                assert rep.all_hold
                assert rep.smallest_index_even
    assert t.elapsed < 60.0
    _report("obstruction: hexagon fails mod-4, census pairs verified, n<=3", t.elapsed)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "With midpoint links placed only inside finite faces, the side-2 "
        "boundary hexagon decomposes into three 2-node paths; a single "
        "6-node loop would require pairing its edges in the outer face as "
        "well, which contradicts the finite-face transversal definition "
        "used everywhere else (the side-5 reference subset would then not "
        "split into the documented {4,4,4,12} components)."
    ),
)
def test_t2_hexagon_forms_single_six_node_loop():
    g2 = build_grid(2)
    d = decompose_transversals(build_transversal(g2, basis_subset(g2, 1)))
    _report("side-2 hexagon as one 6-node loop (documented discrepancy)", ok=False)
    assert len(d) == 1
    assert d[0].kind is ComponentKind.CYCLE
    assert d[0].node_count == 6


def test_enumeration_matches_subset_filter_oracle():
    with _timer() as t:
        for n in (2, 3):
            g = build_grid(n)
            expected = simple_cycle_masks(g)
            got = {edge_mask(c.edge_set) for c in enumerate_cycles(g)}
            assert got == expected, f"n={n}: {len(got)} vs {len(expected)} cycles"
    assert t.elapsed < 60.0
    _report("cycle enumeration complete vs 2^|E| filter oracle, n=2,3", t.elapsed)
