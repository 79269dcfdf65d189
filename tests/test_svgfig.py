import itertools
import random
import re

import numpy as np
import pytest

from trislither import EdgeSet, InvalidInputError, InvalidParameterError, build_grid, recompose
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
    # Besides the usual scales, units that are no binary fraction (13.3,
    # 0.001), so that rounding to two decimals is tested on inexact values,
    # and one whose coordinates run to many digits (1e6).
    for unit in (40.0, 20.0, 7.5, 13.3, 0.001, 1e6):
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


# An overflow warning would reach a user's stderr.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 5, 48])
@pytest.mark.parametrize("unit", [1e308, 1.7e308, float.fromhex("0x1.fffffffffffffp+1023")])
def test_a_unit_too_large_to_draw_is_refused(n, unit):
    g = build_grid(n)
    for kwargs in ({}, {"subset": EdgeSet.empty(g)}):
        message = rf"^unit {re.escape(repr(unit))} makes the side-{n} figure too large to draw$"
        with pytest.raises(InvalidParameterError, match=message):
            render_svg(g, unit=unit, **kwargs)


def test_transversal_indices_that_are_not_integers_are_refused():
    g3 = build_grid(3)
    for bad in (TransversalGraph(nodes=(0, 1), links=((0, 1.7),)),
                TransversalGraph(nodes=("1",), links=()),
                TransversalGraph(nodes=(1.0,), links=()),
                TransversalGraph(nodes=(True,), links=())):
        with pytest.raises(InvalidInputError, match="^transversal (node|link)s must be edge indices"):
            render_svg(g3, transversal=bad)
    empty = render_svg(g3, transversal=TransversalGraph(nodes=(), links=()))
    assert empty == render_svg(g3)


@pytest.mark.parametrize("unit", [True, False, "40", None, 1j])
def test_a_unit_that_is_no_real_number_is_refused(unit):
    with pytest.raises(InvalidParameterError, match="^unit must be a finite length > 0"):
        render_svg(build_grid(2), unit=unit)


def test_the_unit_scales_only_the_figure_size():
    """The figure is laid out at 40 px per unit edge whatever the unit, so
    only the header's width and height change with it."""
    g = build_grid(48)
    even = recompose(g, [3, 10])
    kwargs = {"subset": even, "transversal": build_transversal(g, even)}
    text = render_svg(g, **kwargs)
    assert_same_text(render_svg(g, unit=40, **kwargs), text)
    for unit in (1e-3, 1e300):
        scaled = render_svg(g, unit=unit, **kwargs)
        assert abs(len(scaled) - len(text)) < 1000
        assert_same_text(scaled.split("\n", 1)[1], text.split("\n", 1)[1])
