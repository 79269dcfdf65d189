"""Deterministic SVG rendering of grids, edge subsets, and transversals.

Vertex (x, y) is embedded equilaterally at ((x-1) + (y-1)/2, (y-1)*sqrt(3)/2)
and scaled by a unit length; subset edges are drawn thick over the light
grid, transversal links as thin straight segments between edge midpoints.
The output is a pure function of its inputs, byte for byte.
"""

from __future__ import annotations

import math

from .errors import InvalidParameterError
from .evenalg import EdgeSet
from .grid import TriGrid, Vertex
from .transversal import TransversalGraph

_S3H = math.sqrt(3.0) / 2.0


def _xy(v: Vertex) -> tuple[float, float]:
    return (v.x - 1) + (v.y - 1) / 2.0, (v.y - 1) * _S3H


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def render_svg(
    g: TriGrid,
    subset: EdgeSet | None = None,
    transversal: TransversalGraph | None = None,
    unit: float = 40.0,
) -> str:
    if not (math.isfinite(unit) and unit > 0):
        raise InvalidParameterError(f"unit must be a finite length > 0, got {unit!r}")
    margin = 0.6 * unit
    height_units = g.n * _S3H

    def place(v: Vertex) -> tuple[float, float]:
        x, y = _xy(v)
        return margin + x * unit, margin + (height_units - y) * unit

    width = 2 * margin + g.n * unit
    height = 2 * margin + height_units * unit
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    ]

    def line(a, b, stroke: str, width_px: float, cls: str) -> str:
        x1, y1 = a
        x2, y2 = b
        return (
            f'<line class="{cls}" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke="{stroke}" '
            f'stroke-width="{_fmt(width_px)}" stroke-linecap="round"/>'
        )

    for e in g.edges:
        u, v = e.endpoints
        out.append(line(place(u), place(v), "#c8c8c8", 0.04 * unit, "grid"))
    if subset is not None:
        for e in subset.edges():
            u, v = e.endpoints
            out.append(line(place(u), place(v), "#101010", 0.12 * unit, "subset"))
    if transversal is not None:
        mids = {}
        for node in transversal.nodes:
            u, v = g.edges[node].endpoints
            (x1, y1), (x2, y2) = place(u), place(v)
            mids[node] = ((x1 + x2) / 2.0, (y1 + y2) / 2.0)
        for a, b in transversal.links:
            out.append(line(mids[a], mids[b], "#c03030", 0.05 * unit, "transversal"))
    for v in g.vertices:
        cx, cy = place(v)
        out.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(0.07 * unit)}" fill="#000000"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
