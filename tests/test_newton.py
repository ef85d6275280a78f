"""Newton polygon algebra against a brute-force grid oracle."""

import itertools
import random
import re
from decimal import getcontext, localcontext
from fractions import Fraction

import numpy as np
import pytest

from expdirect.newton import (
    NewtonPolygon,
    irregularity,
    polygon_from_branches,
    polygon_svg,
    slopes,
)
from tests.helpers import mk

_CODE = 1 << 20


def _region_codes(w: int, h: int) -> np.ndarray:
    """Integer points of the single-edge region within its bounding box."""
    u = np.arange(w + 1)
    v = np.arange(h + 1)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    mask = vv * w >= uu * h
    return (uu[mask] * _CODE + vv[mask]).astype(np.int64)


def _lower_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Andrew monotone-chain lower hull, strict turns only."""
    pts = sorted(set(points))
    hull: list[tuple[int, int]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            cross = (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1)
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def grid_minkowski_vertices(edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Oracle: rasterize each region, sum the point sets, extract the hull."""
    codes = np.zeros(1, dtype=np.int64)
    for w, h in edges:
        codes = np.unique(codes[:, None] + _region_codes(w, h)[None, :])
    pts = [(int(c) // _CODE, int(c) % _CODE) for c in codes]
    total_w = sum(w for w, _ in edges)
    total_h = sum(h for _, h in edges)
    hull = _lower_hull(pts)
    # Keep the chain from (0,0) to (total_w, total_h).
    assert hull[0] == (0, 0)
    out = [p for p in hull if p[0] <= total_w and p[1] <= total_h]
    if out[-1] != (total_w, total_h):
        out.append((total_w, total_h))
    return out


def test_elementary_examples():
    # A branch (m, p, q) contributes the one-edge region (m*p, m*q).
    def region(m, p, q):
        return polygon_from_branches([mk(p=p, q=q, m=m)]).edges

    assert region(1, 1, 1) == ((Fraction(1), Fraction(1)),)
    assert region(2, 1, 1) == ((Fraction(2), Fraction(2)),)
    assert region(1, 2, 3) == ((Fraction(2), Fraction(3)),)


def test_minkowski_examples():
    assert NewtonPolygon.from_edges([]).edges == ()
    assert NewtonPolygon.from_edges([(1, 1), (1, 1)]).edges == ((Fraction(2), Fraction(2)),)
    p = NewtonPolygon.from_edges([(2, 2), (2, 3)])
    assert p.edges == ((Fraction(2), Fraction(2)), (Fraction(2), Fraction(3)))
    assert slopes(p) == {Fraction(1), Fraction(3, 2)}


def test_slopes_and_irregularity_examples():
    p = NewtonPolygon.from_edges([(2, 2), (2, 3)])
    assert slopes(p) == {Fraction(1), Fraction(3, 2)}
    assert irregularity(p) == 5
    assert slopes(NewtonPolygon()) == set()
    assert irregularity(NewtonPolygon()) == 0
    assert slopes(NewtonPolygon.from_edges([(3, 1)])) == {Fraction(1, 3)}
    assert irregularity(NewtonPolygon.from_edges([(1, 4)])) == 4


def test_widths_heights_add():
    rng = random.Random(13)
    for _ in range(200):
        edges = []
        for _ in range(rng.randint(0, 5)):
            m, p, q = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 4)
            edges.append((m * p, m * q))
        polys = [NewtonPolygon.from_edges([e]) for e in edges]
        total = NewtonPolygon.from_edges(edges)
        assert total.width() == sum(p.width() for p in polys)
        assert total.height() == sum(p.height() for p in polys)


def _assert_matches_oracle(int_edges):
    got = NewtonPolygon.from_edges(int_edges)
    expect = grid_minkowski_vertices(int_edges)
    assert [(int(x), int(y)) for x, y in got.vertices()] == expect


def test_grid_oracle_exhaustive_small():
    candidates = [(w, h) for w in range(1, 5) for h in range(1, 5)]
    for n in (1, 2):
        for combo in itertools.combinations_with_replacement(candidates, n):
            if sum(w + h for w, h in combo) <= 12:
                _assert_matches_oracle(list(combo))


def test_grid_oracle_random_up_to_40():
    rng = random.Random(999)
    done = 0
    while done < 40:
        n = rng.randint(1, 5)
        edges = []
        for _ in range(n):
            m, p, q = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 6)
            edges.append((m * p, m * q))
        if sum(w + h for w, h in edges) > 40:
            continue
        _assert_matches_oracle(edges)
        done += 1


def test_svg_vertices_are_cumulative_edge_sums():
    poly = NewtonPolygon.from_edges([(2, 2), (2, 3)])
    svg = polygon_svg(poly)
    m = re.search(r'data-vertices="([^"]+)"', svg)
    assert m
    verts = []
    for pair in m.group(1).split(";"):
        xs, ys = pair.split(",")
        verts.append((Fraction(xs), Fraction(ys)))
    assert verts == [(0, 0), (2, 2), (4, 5)]
    assert "3/2" in svg  # slope label as a reduced fraction
    empty = polygon_svg(NewtonPolygon())
    assert "polyline" in empty  # rays still drawn

    scaled = NewtonPolygon.from_edges([(2, Fraction(2, 3)), (2, 1)])
    m2 = re.search(r'data-vertices="([^"]+)"', polygon_svg(scaled))
    got = [tuple(Fraction(x) for x in p.split(",")) for p in m2.group(1).split(";")]
    assert got == [(0, 0), (2, Fraction(2, 3)), (4, Fraction(5, 3))]


def test_svg_leaves_the_callers_decimal_precision_alone():
    # Coordinates print at 20 significant digits whatever the caller's
    # precision, and the caller's precision is the same afterwards.
    scaled = NewtonPolygon.from_edges([(2, Fraction(2, 3)), (2, 1)])
    expected = polygon_svg(scaled)
    assert 'height="146.66666666666666667"' in expected
    for prec in (7, 28, 50):
        with localcontext() as ctx:
            ctx.prec = prec
            assert polygon_svg(scaled) == expected
            assert getcontext().prec == prec
