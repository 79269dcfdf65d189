"""Deterministic SVG rendering of grids, edge subsets, and transversals.

Vertex (x, y) is embedded equilaterally at ((x-1) + (y-1)/2, (y-1)*sqrt(3)/2)
and scaled by a unit length; subset edges are drawn thick over the light
grid, transversal links as thin straight segments between edge midpoints.
The output is a pure function of its inputs, byte for byte.

Pixel coordinates are computed once per vertex from ``g.vertex_xy`` as
float64 arrays and formatted once; each class of element is then written
with one ``%``-template over those strings, gathered per edge through
``g.u_of_edge`` and ``g.v_of_edge``. No ``Vertex`` or ``Edge`` object is
built.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError, InvalidParameterError
from .evenalg import EdgeSet
from .grid import TriGrid
from .transversal import TransversalGraph

_S3H = math.sqrt(3.0) / 2.0


def _strs(values: np.ndarray) -> np.ndarray:
    """Each value with two decimals, as an object array of str."""
    return np.array(["%.2f" % v for v in values.tolist()], dtype=object)


def _lines(cls: str, stroke: str, width_px: float, x1, y1, x2, y2) -> list[str]:
    """One line element per row of the object arrays of coordinate strings."""
    template = (
        f'<line class="{cls}" x1="%s" y1="%s" x2="%s" y2="%s" '
        f'stroke="{stroke}" stroke-width="{width_px:.2f}" stroke-linecap="round"/>'
    )
    return [template % row for row in zip(x1.tolist(), y1.tolist(), x2.tolist(), y2.tolist())]


def _edge_indices(g: TriGrid, values, what: str) -> np.ndarray:
    idx = np.asarray(values, dtype=np.int64)
    bad = idx[(idx < 0) | (idx >= g.num_edges)]
    if bad.size:
        raise InvalidInputError(
            f"transversal {what} {int(bad[0])} is not an edge index of the side-{g.n} grid"
        )
    return idx


def render_svg(
    g: TriGrid,
    subset: EdgeSet | None = None,
    transversal: TransversalGraph | None = None,
    unit: float = 40.0,
) -> str:
    if not (math.isfinite(unit) and unit > 0):
        raise InvalidParameterError(f"unit must be a finite length > 0, got {unit!r}")
    if subset is not None and subset.grid.n != g.n:
        raise InvalidInputError(
            f"subset of the side-{subset.grid.n} grid drawn on the side-{g.n} grid"
        )
    if transversal is not None:
        _edge_indices(g, transversal.nodes, "node")
        links = _edge_indices(g, transversal.links, "link").reshape(-1, 2)
    margin = 0.6 * unit
    height_units = g.n * _S3H
    x, y = (g.vertex_xy - 1).T
    px = margin + (x + y / 2.0) * unit
    py = margin + (height_units - y * _S3H) * unit
    u, v = g.u_of_edge, g.v_of_edge

    width = 2 * margin + g.n * unit
    height = 2 * margin + height_units * unit
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.2f}" '
        f'height="{height:.2f}" viewBox="0 0 {width:.2f} {height:.2f}">'
    ]
    # A vertex's coordinates are formatted once, for its edges and its circle.
    xs, ys = _strs(px), _strs(py)
    out += _lines("grid", "#c8c8c8", 0.04 * unit, xs[u], ys[u], xs[v], ys[v])
    if subset is not None:
        s = np.flatnonzero(subset.bits)
        out += _lines("subset", "#101010", 0.12 * unit, xs[u[s]], ys[u[s]], xs[v[s]], ys[v[s]])
    if transversal is not None:
        mx, my = (px[u] + px[v]) / 2.0, (py[u] + py[v]) / 2.0
        a, b = links.T
        ends = (_strs(mx[a]), _strs(my[a]), _strs(mx[b]), _strs(my[b]))
        out += _lines("transversal", "#c03030", 0.05 * unit, *ends)
    circle = f'<circle cx="%s" cy="%s" r="{0.07 * unit:.2f}" fill="#000000"/>'
    out += [circle % xy for xy in zip(xs.tolist(), ys.tolist())]
    out.append("</svg>")
    return "\n".join(out) + "\n"
