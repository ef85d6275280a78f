"""Blow-up resolution oracle for functions 1/y - alpha(x) at the origin.

For a purely polar alpha of pole order q, writing g = (x^q - y*beta(x)) /
(x^q y) with beta(0) != 0, a chain of exactly 2q point blow-ups brings g
into monomial-pole normal form everywhere except along the last exceptional
component, on which g extends holomorphically with a nonvanishing transverse
derivative.  That distinguished component meets the rest of the total
transform of the axes in a single point, where g has a first-order pole along
the neighbouring component.

The chain is completely mechanical: every center is the unique intersection
of the numerator curve's strict transform with the newest exceptional
component, found by solving a linear equation; every chart step is the map
x = u, y = u*v after a recentering translation of v, so g keeps degree at
most 1 in v (a ``BiRational``).  Each crossing, read in the complementary
chart, and each surviving axis point is tagged by
``BiRational.classify_at_point``, whose tags are the two monomial-pole
kinds, and checked against the expected kind where the chain makes it.
Each step records only its shift, crossing tag and pole order.

Strict transforms of the unramified branch copies (``branch.unramify``) are
replayed through the same chart script: step j reads coefficient j of the
copy's series y(t) (``CopySeries``) and compares it with that step's center.
A replay yields one integer, the number of centers the copy tracked; a
copy that tracks all 2q meets the distinguished component, at y[2q].
Each copy's series is built once per point and read by every factor's
replay; its coefficients are computed on demand and kept, so none is
computed twice and the copy's leading coefficient is inverted at most once.
A copy leaves at the first step whose center it misses, so a copy of another
pole order never needs more than the series' leading term.  No replay reads
past y[2q], q the copy's own pole order, and up to there the series depends
only on the copy's polar part and the constant term of its holomorphic part;
a read beyond raises IndexError, never a silent wrong value.

``verify_corollary`` checks one factor of the decomposition against the
chain: its members and their separation, and the rank and monodromy it
assembles over the distinguished component from the copies that meet it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .branch import UnramifiedBranch
from .cyclotomic import CycloNum, CycloPoly
from .decomposition import ExponentialFactor
from .laurent import (
    BiRational,
    ClassificationError,
    LaurentPoly,
    NormalFormKind,
    NormalFormTag,
)

__all__ = [
    "CopySeries",
    "ResolutionTree",
    "CorollaryReport",
    "build_resolution",
    "strict_transform",
    "verify_corollary",
]


# The chain's only chart: every blow-up is read in x = u, y = u*v.
CHART = "x=u, y=u*v"


@dataclass(frozen=True)
class BlowUpStep:
    """Blow-up j of the chain, j counting from 1: the new exceptional
    component E_j.

    ``shift`` recenters v before the blow-up; ``crossing`` tags the point
    where E_j meets E_(j-1), read in the second chart (E_0 is the strict
    transform of the first coordinate axis); ``pole_order`` is the pole
    order of g along E_j.  Every step uses ``CHART``, so the first
    projection pulls back to u^1 on every component and at every crossing:
    its orders are all 1.
    """

    shift: CycloNum
    crossing: NormalFormTag
    pole_order: int


@dataclass(frozen=True)
class AxisPointRecord:
    """Crossing of an exceptional component with the strict transform of the
    second coordinate axis that survives to the final surface."""

    component: int
    tag: NormalFormTag


@dataclass(frozen=True)
class EdChart:
    """Affine description of g on the distinguished component: the value at
    coordinate v0 is (num0 + numlin*v0)/den0, with numlin != 0."""

    num0: CycloNum
    numlin: CycloNum
    den0: CycloNum


@dataclass(frozen=True)
class ResolutionTree:
    """The chain for ``alpha``: one step per blow-up, in order; the last
    step's component is the distinguished one.

    The writers in ``serialize`` derive the rest of the ``resolve`` report
    from these fields: ``pole_order`` from alpha, ``blow_ups`` and
    ``distinguished`` from the number of steps, each step's ``index``,
    ``chart``, crossing ``components`` and ``projection_orders``, the
    ``components`` list, and the ``meeting_point``, which is the last
    step's crossing.
    """

    alpha: LaurentPoly
    steps: tuple[BlowUpStep, ...]
    axis_points: tuple[AxisPointRecord, ...]
    ed_chart: EdChart


def _structural(cond: bool, message: str):
    if not cond:
        raise ClassificationError(f"resolution structure violated: {message}")


def build_resolution(alpha: LaurentPoly) -> ResolutionTree:
    """Run the 2q-step blow-up chain for g = 1/y - alpha(x).

    alpha must be nonzero and purely polar.  Any failure of the expected
    normal forms raises ClassificationError: it signals a bug, not bad input.
    """
    if alpha.is_zero() or not alpha.polar_part() == alpha:
        raise ValueError("alpha must be nonzero and purely polar")
    q = alpha.pole_order()

    # beta(x) = x^q * alpha(x); g = (x^q - y beta) / (x^q y), as columns in
    # x of the coefficients of y^0 and y^1.
    one = CycloNum.one()
    g = BiRational(({q: one}, {e + q: -c for e, c in alpha.terms.items()}),
                   ({}, {q: one}))

    steps: list[BlowUpStep] = []
    axis_points: list[AxisPointRecord] = []
    zero = shift = CycloNum.zero()
    # On every new component the numerator's trace num0 + num1*v has slope
    # num1 = -lead(alpha): it is inverted once here and checked at each step.
    slope = -alpha.terms[-q]
    slope_inv = slope.inv()

    while True:
        _structural(len(steps) < 2 * q, f"chain exceeded {2 * q} blow-ups")

        g = g.translate(shift)
        # Crossing of the new component with the previous total transform,
        # seen in the complementary chart.
        crossing = g.classify_at_point(second=True)
        g = g.compose_monomial_map()

        cu, cv = g.den_content
        num_cu, _ = g.num_content
        _structural(num_cu == 0, "numerator vanishes along the new component")
        # Traces on the new component u = 0: den0 of the residual
        # denominator, num0 + num1*v of the numerator.
        den_lo, den_hi = g.den if cv == 0 else (g.den[1], {})
        den0 = den_lo.get(cu)
        _structural(den0 is not None and cu not in den_hi,
                    "denominator has a non-axis zero on the new component")
        num0 = g.num[0].get(0, zero)
        num1 = g.num[1].get(0)
        _structural(num1 is not None,
                    "numerator trace on the new component not affine")
        _structural(num1 == slope,
                    "numerator trace on the new component not of slope -lead(alpha)")
        steps.append(BlowUpStep(shift, crossing, cu))
        index = len(steps)

        if cu == 0:
            # Distinguished component: g extends with an affine value map.
            _structural(cv == 0, "distinguished component still meets an axis")
            _structural(index == 2 * q, f"chain closed after {index} != {2 * q} steps")
            _structural((crossing.pole_u, crossing.pole_v) == (1, 0),
                        "meeting point of the distinguished component not a "
                        "first-order one-variable pole")
            return ResolutionTree(alpha, tuple(steps), tuple(axis_points),
                                  EdChart(num0=num0, numlin=num1, den0=den0))

        # Next center: the unique root of the numerator on the new component.
        shift = -num0 * slope_inv
        if cv >= 1 and not shift.is_zero():
            # The axis crossing at the origin survives; classify and keep it.
            tag = g.classify_at_point()
            _structural(tag.kind is NormalFormKind.POLE_TWO_VAR,
                        "surviving axis crossing not a two-variable pole")
            axis_points.append(AxisPointRecord(component=index, tag=tag))


class CopySeries:
    """y(t) = t^q / (B(t) + delta0 t^q) of one copy, extended on demand.

    B is the polynomial t^q * alpha_sub(t), of degree below q, with q the
    copy's own pole order, and delta0 the constant term of its holomorphic
    part; ``copy`` is the unramified copy itself.  ``self[j]`` is the
    coefficient of t^j.  For the full holomorphic part delta, y would be
    t^q / (B + t^q delta); a term delta_e t^e with e >= 1 first changes
    y[2q + e], so through y[2q] this series is exact whatever truncation
    was declared.  Reading further raises IndexError.  No replay does so: a
    copy leaves the chain of a factor of pole order q_f by step
    min(q, q_f), and only a copy with q = q_f reads on, to y[2q].

    The reciprocal coefficients inv[0] = 1/B(0) and
    inv[k] = -inv[0] * sum_i d_i inv[k-i] are computed only up to the
    largest k read, summing over the nonzero denominator terms d_i in
    ascending i, and are kept for later reads: one series serves every
    factor's replay of its copy.
    """

    __slots__ = ("copy", "q", "c0", "denom", "inv", "zero")

    def __init__(self, u: UnramifiedBranch):
        q = u.alpha_sub.pole_order()
        f = u.alpha_sub + LaurentPoly({0: u.delta0})
        denom: dict[int, CycloNum] = {e + q: c for e, c in f.terms.items()}
        c0 = denom.pop(0, None)
        if c0 is None:
            raise ValueError(f"branch {u.label}: alpha has no pole of order q")
        self.copy = u
        self.q = q
        self.c0 = c0
        self.denom = sorted(denom.items())
        # inv[k] is None where the coefficient vanishes.
        self.inv: list[CycloNum | None] = []
        self.zero = CycloNum.zero()

    def __getitem__(self, j: int) -> CycloNum:
        if j > 2 * self.q:
            raise IndexError(f"branch {self.copy.label}: y[{j}] is past "
                             f"y[{2 * self.q}], the last coefficient known; "
                             f"it needs the holomorphic part through "
                             f"t^{j - 2 * self.q}")
        k = j - self.q
        if k < 0:
            return self.zero
        inv = self.inv
        if not inv:
            inv.append(self.c0.inv())
        while len(inv) <= k:
            n = len(inv)
            acc = CycloNum.zero()
            for i, di in self.denom:
                if i > n:
                    break
                prev = inv[n - i]
                if prev is not None:
                    acc = acc + di * prev
            inv.append(None if acc.is_zero() else -acc * inv[0])
        c = inv[k]
        return self.zero if c is None else c


def strict_transform(y: CopySeries, tree: ResolutionTree) -> int:
    """The number of blow-up centers an unramified branch copy, given by its
    series, tracks through the chain: ``len(tree.steps)``, which is 2q, for
    a copy whose strict transform meets the distinguished component.

    Step j of the chart script recenters by the step's shift and divides by
    the variable, so the copy's limit point tracks it exactly when the
    coefficient y[j] equals that shift.  The copy leaves at the first step
    it misses; a copy that tracks all 2q centers meets the distinguished
    component at y[2q].  Only coefficients not read before are computed.
    """
    for j, step in enumerate(tree.steps):
        if y[j] != step.shift:
            return j
    return len(tree.steps)


@dataclass(frozen=True)
class CorollaryReport:
    factor: ExponentialFactor
    membership_agrees: bool
    star_agrees: bool
    members_by_blowup: tuple[str, ...]
    members_by_polar: tuple[str, ...]
    star_by_blowup: bool
    star_by_polar: bool
    points: tuple[tuple[str, CycloNum], ...]
    steps_matched: tuple[tuple[str, int], ...]
    rank_by_blowup: int
    charpoly_by_blowup: CycloPoly | None

    @property
    def rank_agrees(self) -> bool:
        return self.rank_by_blowup == self.factor.rank_branchwise

    @property
    def charpoly_agrees(self) -> bool:
        return self.factor.charpoly is None or \
            self.charpoly_by_blowup == self.factor.charpoly

    @property
    def consistent(self) -> bool:
        return (self.membership_agrees and self.star_agrees
                and self.rank_agrees and self.charpoly_agrees)


def verify_corollary(series: Sequence[CopySeries],
                     factor: ExponentialFactor) -> CorollaryReport:
    """Check one exponential factor of the decomposition against the
    blow-up chain of its polar part.

    ``series`` holds one CopySeries per unramified copy of the point; the
    same series are passed for every factor, so each coefficient is
    computed once per point.

    The polar side is the factor as decomposed: its members, separated when
    their constant terms are pairwise distinct.  The blow-up side is the
    copies whose strict transforms track all 2q centers and so meet the
    distinguished component E at y[2q], separated when those meeting points
    are pairwise distinct.  From those copies it assembles the factor's
    rank, -chi of the nearby cycles over E, and its monodromy, 1/zeta.  With
    r the generic rank and k clusters of coinciding points, chi is the
    stratified sum

        -r + sum over clusters of (r - sum of the cluster's m) + (1 - k)*r

    over the meeting point, the marked points and E minus those k + 1
    points.  It telescopes to -(sum of m), so ``rank_by_blowup`` is the
    multiplicity summed over the meeting copies.  The zeta telescopes the
    same way, to the inverse product of their monodromy polynomials; it is
    assembled only under separation, and ``charpoly_by_blowup`` is None
    otherwise.

    The report is consistent when membership and separation agree, the
    rank equals ``rank_branchwise`` and, where the factor has a charpoly,
    the charpolys are equal.  Disagreement flags a bug, not bad input.
    Copies are named ``label#root_index`` in the report; ``steps_matched``
    pairs each name with the number of blow-up centers its copy tracked.
    """
    tree = build_resolution(factor.alpha)
    n = len(tree.steps)
    members = set(factor.members)
    by_blowup, by_polar, points, steps, meeting = [], [], [], [], []
    constants = set()
    for y in series:
        u = y.copy
        name = f"{u.label}#{u.root_index}"
        matched = strict_transform(y, tree)
        steps.append((name, matched))
        if u.origin in members:
            by_polar.append(name)
            constants.add(u.delta0)
        if matched == n:
            by_blowup.append(name)
            points.append((name, y[n]))
            meeting.append(u)
    star_blowup = len({pt for _, pt in points}) == len(points)
    star_polar = len(constants) == len(by_polar)
    charpoly = None
    if star_blowup:
        charpoly = meeting[0].zeta if meeting else CycloPoly([1])
        for u in meeting[1:]:
            charpoly = charpoly * u.zeta

    return CorollaryReport(
        factor=factor,
        membership_agrees=by_blowup == by_polar,
        star_agrees=star_blowup == star_polar,
        members_by_blowup=tuple(by_blowup),
        members_by_polar=tuple(by_polar),
        star_by_blowup=star_blowup,
        star_by_polar=star_polar,
        points=tuple(points),
        steps_matched=tuple(steps),
        rank_by_blowup=sum(u.m for u in meeting),
        charpoly_by_blowup=charpoly,
    )
