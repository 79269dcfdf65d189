"""Deterministic SVG rendering of grids, edge subsets, and transversals.

Vertex (x, y) is embedded equilaterally at ((x-1) + (y-1)/2, (y-1)*sqrt(3)/2)
and laid out at 40 px per unit edge; subset edges are drawn thick over the
light grid, transversal links as thin straight segments between edge
midpoints. A unit length scales only the ``width`` and ``height``; the
viewBox keeps the 40-px frame. The output is a pure function of its
inputs, byte for byte.

Counting x and y from 0, x + y/2 is exactly k/2 for the half-step column
k = 2x + y, and the pixel y depends on the row alone, so the 2n+1 column
and n+1 row coordinates are computed as float64 arrays and formatted once
each; a vertex reads its strings by column and row, and an edge by
``g.u_of_edge`` and ``g.v_of_edge``. Each class of element is an object
array of its fixed pieces with the coordinate strings between them, and
one ``"".join`` reads them all in order. No ``Vertex`` or ``Edge`` object
is built. A side-48 figure with a subset renders in about 1.2 ms, and a
side-256 one in about 38 ms (medians, 2-core VM, Python 3.11, numpy 2.4).
A unit that makes the figure's size pass the largest float is refused
before any array is built.
"""

from __future__ import annotations

import math
from numbers import Real

import numpy as np

from .errors import InvalidInputError, InvalidParameterError
from .evenalg import EdgeSet, _check_grid
from .grid import TriGrid
from .transversal import TransversalGraph

_S3H = math.sqrt(3.0) / 2.0


def _strs(values: np.ndarray) -> np.ndarray:
    """Each value with two decimals, as an object array of str."""
    return np.array(["%.2f" % v for v in values.tolist()], dtype=object)


def _lines(cls: str, stroke: str, width_px: float, x1, y1, x2, y2) -> list[str]:
    """The pieces, in text order, of one line element per row of the object
    arrays of coordinate strings: an ``(m, 9)`` object array of the fixed
    pieces and the coordinates between them, read row by row."""
    parts = np.empty((len(x1), 9), dtype=object)
    parts[:, 0] = f'<line class="{cls}" x1="'
    parts[:, 2] = '" y1="'
    parts[:, 4] = '" x2="'
    parts[:, 6] = '" y2="'
    parts[:, 8] = (
        f'" stroke="{stroke}" stroke-width="{width_px:.2f}" stroke-linecap="round"/>\n'
    )
    parts[:, 1], parts[:, 3], parts[:, 5], parts[:, 7] = x1, y1, x2, y2
    return parts.ravel().tolist()


def _edge_indices(g: TriGrid, values, what: str) -> np.ndarray:
    idx = np.asarray(values)
    # An empty tuple reads as float64 and an int past int64 as an object. A
    # bool among ints reads as an int, so the values' own types are read too.
    if idx.size and {bool, np.bool_} & set(map(type, np.asarray(values, dtype=object).flat)):
        raise InvalidInputError(f"transversal {what}s must be edge indices, got bool")
    if idx.size and idx.dtype.kind not in "iu":
        raise InvalidInputError(f"transversal {what}s must be edge indices, got {idx.dtype}")
    bad = idx[(idx < 0) | (idx >= g.num_edges)]
    if bad.size:
        raise InvalidInputError(
            f"transversal {what} {int(bad[0])} is not an edge index of the side-{g.n} grid"
        )
    return idx.astype(np.int64)


def render_svg(
    g: TriGrid,
    subset: EdgeSet | None = None,
    transversal: TransversalGraph | None = None,
    unit: float = 40.0,
) -> str:
    if isinstance(unit, bool) or not (isinstance(unit, Real) and 0 < unit < math.inf):
        raise InvalidParameterError(f"unit must be a finite length > 0, got {unit!r}")
    if subset is not None:
        _check_grid(g, subset)
    if transversal is not None:
        _edge_indices(g, transversal.nodes, "node")
        links = _edge_indices(g, transversal.links, "link").reshape(-1, 2)
    # The figure is laid out at 40 px per unit edge; the unit scales its size.
    edge_px = 40.0
    try:
        scale = float(unit) / edge_px
    except OverflowError:  # an int or a fraction past the largest float
        scale = math.inf
    n = g.n
    margin = 0.6 * edge_px
    height_units = n * _S3H
    width = 2 * margin + n * edge_px
    height = 2 * margin + height_units * edge_px
    if not (math.isfinite(width * scale) and math.isfinite(height * scale)):
        raise InvalidParameterError(
            f"unit {unit!r} makes the side-{n} figure too large to draw"
        )

    # Each column k = 2x + y and each row y is placed and formatted once.
    x, y = (g.vertex_xy - 1).T
    col = 2 * x + y
    col_px = margin + (np.arange(2 * n + 1) / 2.0) * edge_px
    row_py = margin + (height_units - np.arange(n + 1) * _S3H) * edge_px
    xs, ys = _strs(col_px)[col], _strs(row_py)[y]
    u, v = g.u_of_edge, g.v_of_edge

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width * scale:.2f}" '
        f'height="{height * scale:.2f}" viewBox="0 0 {width:.2f} {height:.2f}">\n'
    ]
    out += _lines("grid", "#c8c8c8", 0.04 * edge_px, xs[u], ys[u], xs[v], ys[v])
    if subset is not None:
        su, sv = u[subset.bits], v[subset.bits]
        out += _lines("subset", "#101010", 0.12 * edge_px, xs[su], ys[su], xs[sv], ys[sv])
    if transversal is not None:
        px, py = col_px[col], row_py[y]
        mx, my = (px[u] + px[v]) / 2.0, (py[u] + py[v]) / 2.0
        a, b = links.T
        ends = (_strs(mx[a]), _strs(my[a]), _strs(mx[b]), _strs(my[b]))
        out += _lines("transversal", "#c03030", 0.05 * edge_px, *ends)
    circles = np.empty((len(xs), 5), dtype=object)
    circles[:, 0] = '<circle cx="'
    circles[:, 2] = '" cy="'
    circles[:, 4] = f'" r="{0.07 * edge_px:.2f}" fill="#000000"/>\n'
    circles[:, 1], circles[:, 3] = xs, ys
    out += circles.ravel().tolist()
    out.append("</svg>\n")
    return "".join(out)
