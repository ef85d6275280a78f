"""Newton polygon algebra for irregular differential-module germs.

The polygons here are the unbounded convex regions spanned by a horizontal
ray, a chain of finite edges of increasing slope, and a vertical ray.  Only
the finite edges carry data, stored as a slope-merged multiset of positive
(width, height) pairs anchored at the origin.  Minkowski sums of such regions
concatenate edge multisets.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

__all__ = [
    "NewtonPolygon",
    "slopes",
    "irregularity",
    "polygon_from_branches",
    "polygon_svg",
]


@dataclass(frozen=True)
class NewtonPolygon:
    """Slope-merged finite edges (width, height), sorted by slope ascending."""

    edges: tuple[tuple[Fraction, Fraction], ...] = ()

    @staticmethod
    def from_edges(edges) -> "NewtonPolygon":
        """The Minkowski sum of the one-edge regions (w, h): the edges merged
        by slope."""
        merged: dict[Fraction, list[Fraction]] = {}
        for w, h in edges:
            w, h = Fraction(w), Fraction(h)
            if w <= 0 or h <= 0:
                raise ValueError(f"edge ({w}, {h}) must have positive width and height")
            s = h / w
            acc = merged.setdefault(s, [Fraction(0), Fraction(0)])
            acc[0] += w
            acc[1] += h
        ordered = tuple((merged[s][0], merged[s][1]) for s in sorted(merged))
        return NewtonPolygon(ordered)

    def vertices(self) -> list[tuple[Fraction, Fraction]]:
        """Boundary vertices from the origin, cumulative over edges."""
        pts = [(Fraction(0), Fraction(0))]
        x = y = Fraction(0)
        for w, h in self.edges:
            x += w
            y += h
            pts.append((x, y))
        return pts

    def width(self) -> Fraction:
        return sum((w for w, _ in self.edges), Fraction(0))

    def height(self) -> Fraction:
        return sum((h for _, h in self.edges), Fraction(0))


def slopes(poly: NewtonPolygon) -> set[Fraction]:
    return {h / w for w, h in poly.edges}


def irregularity(poly: NewtonPolygon) -> Fraction:
    """Total height of the finite edges."""
    return poly.height()


def polygon_from_branches(branches) -> NewtonPolygon:
    """The Minkowski sum of the branches' one-edge regions (m*p, m*q)."""
    return NewtonPolygon.from_edges((b.m * b.p, b.m * b.q) for b in branches)


# Pixels per unit, the margin around the polygon in units, and the
# significant digits of a drawn coordinate.
_SCALE, _PAD, _DIGITS = 40, Fraction(1), 14


def _fmt(x: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = _DIGITS + 6
        d = Decimal(x.numerator) / Decimal(x.denominator)
        return format(d.normalize(), "f")


def polygon_svg(poly: NewtonPolygon) -> str:
    """SVG drawing of the boundary with slope labels.

    The exact rational vertices are embedded in a data attribute; drawn
    coordinates carry at least 12 significant digits.
    """
    verts = poly.vertices()
    w = poly.width() + 2 * _PAD
    h = poly.height() + 2 * _PAD

    def sx(x: Fraction) -> str:
        return _fmt((x + _PAD) * _SCALE)

    def sy(y: Fraction) -> str:
        return _fmt((h - (y + _PAD)) * _SCALE)

    exact = ";".join(f"{x.numerator}/{x.denominator},{y.numerator}/{y.denominator}"
                     for x, y in verts)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(w * _SCALE)}" '
        f'height="{_fmt(h * _SCALE)}" data-vertices="{exact}">',
        '  <g fill="none" stroke="black" stroke-width="1.5">',
    ]
    # Horizontal ray into the region's left, vertical ray out of the top.
    x0, y0 = verts[0]
    xn, yn = verts[-1]
    lines.append(f'    <polyline points="{_fmt(Fraction(0))},{sy(y0)} {sx(x0)},{sy(y0)}" stroke-dasharray="4 3"/>')
    lines.append(f'    <polyline points="{sx(xn)},{sy(yn)} {sx(xn)},{_fmt(Fraction(0))}" stroke-dasharray="4 3"/>')
    if len(verts) > 1:
        pts = " ".join(f"{sx(x)},{sy(y)}" for x, y in verts)
        lines.append(f'    <polyline points="{pts}"/>')
    lines.append("  </g>")
    x = y = Fraction(0)
    for w_e, h_e in poly.edges:
        midx, midy = x + w_e / 2, y + h_e / 2
        lines.append(f'  <text x="{sx(midx)}" y="{sy(midy)}" font-size="12">'
                     f'{h_e / w_e}</text>')
        x += w_e
        y += h_e
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
