import itertools
import random

import numpy as np
import pytest

from trislither import EdgeSet, InvalidInputError, build_grid, recompose
from trislither.evenalg import max_basis_index
from trislither.svgfig import render_svg
from trislither.transversal import TransversalGraph, build_transversal

from oracles import reference_render_svg


def assert_same_text(got: str, want: str) -> None:
    """Equal texts, else fail on the first differing line: a diff of two
    large SVG files would take minutes."""
    if got != want:
        pairs = itertools.zip_longest(got.splitlines(), want.splitlines())
        k, (a, b) = next((k, ab) for k, ab in enumerate(pairs) if ab[0] != ab[1])
        pytest.fail(f"line {k + 1}: {a!r} != {b!r}")


@pytest.mark.parametrize("n", [*range(1, 13), 24, 48])
def test_render_matches_reference(n):
    rng = random.Random(n)
    g = build_grid(n)
    subset = EdgeSet(g, np.array([rng.random() < 0.3 for _ in range(g.num_edges)]))
    k = max_basis_index(n)
    even = recompose(g, sorted(rng.sample(range(1, k + 1), rng.randint(0, min(k, 3)))))
    t = build_transversal(g, even)
    for unit in (40.0, 20.0, 7.5):
        for kwargs in ({}, {"subset": subset}, {"subset": even, "transversal": t}):
            want = reference_render_svg(g, unit=unit, **kwargs)
            assert_same_text(render_svg(g, unit=unit, **kwargs), want)


def test_subset_of_another_side_rejected():
    with pytest.raises(InvalidInputError) as exc:
        render_svg(build_grid(5), subset=EdgeSet.empty(build_grid(3)))
    assert "side-3" in str(exc.value)


def test_transversal_of_another_grid_rejected():
    g5 = build_grid(5)
    t = build_transversal(g5, recompose(g5, [2]))
    with pytest.raises(InvalidInputError) as exc:
        render_svg(build_grid(3), transversal=t)
    assert "not an edge index of the side-3 grid" in str(exc.value)
    g3 = build_grid(3)
    for bad in (TransversalGraph(nodes=(0, 1), links=((0, 18),)),
                TransversalGraph(nodes=(-1,), links=())):
        with pytest.raises(InvalidInputError):
            render_svg(g3, transversal=bad)
