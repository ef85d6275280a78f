"""Laurent polynomials over Q(zeta) and the rational forms of the blow-up
chain.

A LaurentPoly is a finite-support map from integer exponents of the local
variable to nonzero cyclotomic coefficients.  Polar parts of branch
parametrizations, their truncated holomorphic parts, and exponential factors
all live here.  BiRational carries the forms (a0 + a1*v)/(d0 + d1*v), each
column a polynomial in u, through the blow-up chain: every form there has
degree at most 1 in v, and recentering v and the chart x = u, y = u*v keep
it so.  ``classify_at_point`` tags the local shape at the origin of the form
or, with ``second=True``, of its pull-back to the other chart x = u*v,
y = v: one of the two monomial-pole normal forms, or a ClassificationError.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd

from .cyclotomic import CycloNum

__all__ = [
    "LaurentPoly",
    "BiRational",
    "NormalFormKind",
    "NormalFormTag",
    "ClassificationError",
    "subst_root_power",
    "support_gcd",
]


class ClassificationError(ValueError):
    """Local form at the origin is not a monomial pole times a unit."""


def _coerce_num(c) -> CycloNum:
    return c if isinstance(c, CycloNum) else CycloNum.from_rational(c)


class LaurentPoly:
    """Finite-support Laurent polynomial in one variable over Q(zeta).

    >>> f = LaurentPoly({-1: 1})
    >>> list((f * f).terms)
    [-2]
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[int, CycloNum] = {}
        if terms:
            for e, c in terms.items():
                c = _coerce_num(c)
                if not c.is_zero():
                    clean[int(e)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def pole_order(self) -> int:
        """Order of the pole at the origin (0 when holomorphic)."""
        if self.is_zero():
            return 0
        low = min(self.terms)
        return -low if low < 0 else 0

    def coeff(self, exponent: int) -> CycloNum:
        c = self.terms.get(exponent)
        return CycloNum.zero() if c is None else c

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return LaurentPoly(out)

    def __mul__(self, other):  # kept for bench/worker.py's product kernel
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, CycloNum] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                p = c1 * c2
                s = out.get(e)
                out[e] = p if s is None else s + p
        return LaurentPoly(out)

    def polar_part(self) -> "LaurentPoly":
        return LaurentPoly({e: c for e, c in self.terms.items() if e < 0})

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        if self.is_zero():
            return "LaurentPoly(0)"
        bits = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mono = "1" if e == 0 else ("t" if e == 1 else f"t^{e}")
            bits.append(f"({c!r})*{mono}" if e else f"({c!r})")
        return f"LaurentPoly({' + '.join(bits)})"


def subst_root_power(f: LaurentPoly, n: int, i: int, k: int) -> LaurentPoly:
    """Substitute the variable by a root of unity times its k-th power:
    f(t) -> f(zeta_n^i * t^k).

    Each term a*t^e becomes a*zeta_n^(i*e)*t^(e*k), an exponent shift of a
    (``CycloNum.times_root``), so no power or inverse of the root is ever
    formed.
    """
    if k <= 0:
        raise ValueError(f"substitution exponent must be positive, got {k}")
    return LaurentPoly({e * k: c.times_root(n, i * e)
                        for e, c in f.terms.items()})


def support_gcd(f: LaurentPoly, extra: int) -> int:
    """gcd of |extra| and the absolute values of the support exponents."""
    g = abs(extra)
    for e in f.terms:
        g = gcd(g, abs(e))
    return g


class BiPoly:
    """Bivariate polynomial over Q(zeta), sparse in both variables: a map
    from exponent pairs to nonzero coefficients, with a product.  The
    benchmark's product kernel is its only user."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[tuple[int, int], CycloNum] = {}
        if terms:
            for (i, j), c in terms.items():
                c = _coerce_num(c)
                if not c.is_zero():
                    if i < 0 or j < 0:
                        raise ValueError("BiPoly exponents must be nonnegative")
                    clean[(int(i), int(j))] = c
        self.terms = clean

    def __mul__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        out: dict[tuple[int, int], CycloNum] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                p = c1 * c2
                s = out.get(k)
                out[k] = p if s is None else s + p
        return BiPoly(out)


class NormalFormKind(Enum):
    POLE_ONE_VAR = "monomial-pole-one-var"
    POLE_TWO_VAR = "monomial-pole-two-var"


@dataclass(frozen=True)
class NormalFormTag:
    """Monomial pole of a bivariate rational function at the origin:
    pole_u/pole_v are its orders in each local variable, and the kind says
    whether one or both are positive."""

    kind: NormalFormKind
    pole_u: int
    pole_v: int


def _content(cols) -> tuple[int, int]:
    """Largest monomial u^a v^b dividing c0 + c1*v, given as its columns
    (c0, c1); (0, 0) for zero."""
    c0, c1 = cols
    if not (c0 or c1):
        return 0, 0
    return min([*c0, *c1]), 0 if c0 else 1


def _divide_monomial(cols, a: int, b: int):
    """(c0 + c1*v) / (u^a v^b), for a monomial dividing every term."""
    c0, c1 = (cols[1], {}) if b else cols
    if a:
        c0 = {i - a: c for i, c in c0.items()}
        c1 = {i - a: c for i, c in c1.items()}
    return c0, c1


def _translate(cols, b: CycloNum):
    """c0 + c1*(v + b): c0 gains b*c1, zero sums dropped."""
    c0, c1 = cols
    if not c1:
        return cols
    out = dict(c0)
    for i, c in c1.items():
        s = out.get(i)
        out[i] = c * b if s is None else s + c * b
    return {i: c for i, c in out.items() if c}, c1


def _corner(cols, second: bool) -> tuple[tuple[int, int], bool]:
    """Content (a, b) of c0 + c1*v, the least exponent of each variable,
    and whether a term sits at u^a*v^b: read from the terms u^i*v^j or,
    when ``second``, from their pull-back under u -> u*v, which sends each
    to the single term u^i*v^(i+j).  A zero form has content (0, 0)."""
    exps = {(i, i + j if second else j) for j, col in enumerate(cols) for i in col}
    if not exps:
        return (0, 0), False
    corner = min(i for i, _ in exps), min(j for _, j in exps)
    return corner, corner in exps


class BiRational:
    """The form (a0 + a1*v) / (d0 + d1*v), common monomial factors cancelled.

    ``num`` is the column pair (a0, a1) and ``den`` is (d0, d1): each column
    maps exponents of u to nonzero CycloNums.  ``num_content`` and
    ``den_content`` are the largest monomials u^a*v^b dividing the
    numerator and the denominator after the cancellation; a zero numerator
    cancels nothing and has content (0, 0).
    """

    __slots__ = ("num", "den", "num_content", "den_content")

    def __init__(self, num, den):
        if not (den[0] or den[1]):
            raise ZeroDivisionError("zero denominator")
        na, nb = _content(num)
        da, db = _content(den)
        ca, cb = min(na, da), min(nb, db)
        if (num[0] or num[1]) and (ca or cb):
            num = _divide_monomial(num, ca, cb)
            den = _divide_monomial(den, ca, cb)
            na, nb, da, db = na - ca, nb - cb, da - ca, db - cb
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "num_content", (na, nb))
        object.__setattr__(self, "den_content", (da, db))

    def __setattr__(self, name, value):
        raise AttributeError("BiRational is immutable")

    def translate(self, b: CycloNum | int) -> "BiRational":
        """Recenter the second variable: substitute v -> v + b."""
        b = _coerce_num(b)
        if b.is_zero():
            return self
        return BiRational(_translate(self.num, b), _translate(self.den, b))

    def compose_monomial_map(self) -> "BiRational":
        """Pull back through the chart x = u, y = u*v: a1 and d1 each gain
        one power of u."""
        (a0, a1), (d0, d1) = self.num, self.den
        return BiRational((a0, {i + 1: c for i, c in a1.items()}),
                          (d0, {i + 1: c for i, c in d1.items()}))

    def classify_at_point(self, *, second: bool = False) -> NormalFormTag:
        """Monomial-pole normal form at the origin of the function or, with
        ``second=True``, of its pull-back under u -> u*v: the origin of the
        blow-up's second chart x = u*v, y = v.

        The function must be a unit times u^-pole_u * v^-pole_v there, with
        at least one order positive: the residual numerator and denominator
        (their contents divided out) may not vanish at the origin, and the
        numerator's content must divide the denominator's.  Any other shape
        raises ClassificationError.  Both readings work from the exponents
        alone: a content is the least exponent of each variable, and a
        residual is a unit at the origin exactly when one term attains both.

        >>> one = CycloNum.one()
        >>> tag = BiRational(({0: one}, {}), ({}, {0: one})).classify_at_point()
        >>> tag.kind.name, tag.pole_u, tag.pole_v
        ('POLE_ONE_VAR', 0, 1)
        >>> g = BiRational(({0: one}, {1: one}), ({}, {3: one}))  # (1 + u*v)/(u^3*v)
        >>> tag = g.classify_at_point()
        >>> tag.kind.name, tag.pole_u, tag.pole_v
        ('POLE_TWO_VAR', 3, 1)
        >>> tag = g.classify_at_point(second=True)
        >>> tag.kind.name, tag.pole_u, tag.pole_v
        ('POLE_TWO_VAR', 3, 4)
        >>> BiRational(({0: 2 * one}, {0: one}), ({0: one}, {})).classify_at_point()
        Traceback (most recent call last):
        ...
        expdirect.laurent.ClassificationError: no pole at the origin
        """
        (na, nb), num_unit = _corner(self.num, second)
        (da, db), den_unit = _corner(self.den, second)
        if not den_unit:
            raise ClassificationError(
                "denominator is not monomial-times-unit at the origin")
        pu, pv = da - na, db - nb
        if pu <= 0 and pv <= 0:
            raise ClassificationError("no pole at the origin")
        if pu < 0 or pv < 0 or not num_unit:
            raise ClassificationError("numerator vanishes against a pole")
        if pu and pv:
            return NormalFormTag(NormalFormKind.POLE_TWO_VAR, pu, pv)
        return NormalFormTag(NormalFormKind.POLE_ONE_VAR, pu, pv)

    def __repr__(self):
        return f"BiRational({self.num!r}, {self.den!r})"
