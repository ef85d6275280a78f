"""Laurent polynomials over Q(zeta) and the bivariate rational forms used by
the blow-up engine.

A LaurentPoly is a finite-support map from integer exponents of the local
variable to nonzero cyclotomic coefficients.  Polar parts of branch
parametrizations, their truncated holomorphic parts, and exponential factors
all live here.  BiRational carries quotients of bivariate polynomials through
the blow-up chain: recentering of the second variable, the two chart maps,
and classification of the local shape at the origin, which is one of the
two monomial-pole normal forms or a ClassificationError.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, gcd

from .cyclotomic import CycloNum

__all__ = [
    "LaurentPoly",
    "BiPoly",
    "BiRational",
    "NormalFormKind",
    "NormalFormTag",
    "ClassificationError",
    "subst_root_power",
    "support_gcd",
    "CHART_FIRST",
    "CHART_SECOND",
]


class ClassificationError(ValueError):
    """Local form at the origin is not a monomial pole times a unit."""


def _coerce_num(c) -> CycloNum:
    return c if isinstance(c, CycloNum) else CycloNum.from_rational(c)


class LaurentPoly:
    """Finite-support Laurent polynomial in one variable over Q(zeta).

    >>> f = LaurentPoly({-1: 1})
    >>> (f * f).support()
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

    def support(self) -> list[int]:
        return sorted(self.terms)

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

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloNum)):
            c = _coerce_num(other)
            return LaurentPoly({e: a * c for e, a in self.terms.items()})
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

    __rmul__ = __mul__

    def polar_part(self) -> "LaurentPoly":
        return LaurentPoly({e: c for e, c in self.terms.items() if e < 0})

    def const_term(self) -> CycloNum:
        c = self.terms.get(0)
        return CycloNum.zero() if c is None else c

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(c == other.terms[e] for e, c in self.terms.items())

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
    """Bivariate polynomial over Q(zeta), sparse in both variables.

    The constructor validates and cleans its input; every arithmetic result
    is built by ``_bipoly`` from an already-clean dict.
    """

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
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    @classmethod
    def monomial(cls, i: int, j: int, c=1) -> "BiPoly":
        return cls({(i, j): c})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            if s is None:
                out[k] = c
            else:
                s = s + c
                if s:
                    out[k] = s
                else:
                    del out[k]
        return _bipoly(out)

    def __neg__(self):
        return _bipoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloNum)):
            c = _coerce_num(other)
            if c.is_zero():
                return _bipoly({})
            return _bipoly({k: a * c for k, a in self.terms.items()})
        if not isinstance(other, BiPoly):
            return NotImplemented
        out: dict[tuple[int, int], CycloNum] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                p = c1 * c2
                s = out.get(k)
                out[k] = p if s is None else s + p
        return _bipoly({k: c for k, c in out.items() if c})

    __rmul__ = __mul__

    def content(self) -> tuple[int, int]:
        """Largest monomial u^a v^b dividing every term."""
        if self.is_zero():
            return (0, 0)
        return (min(i for i, _ in self.terms), min(j for _, j in self.terms))

    def divide_monomial(self, a: int, b: int) -> "BiPoly":
        """Divide by u^a v^b, which must divide every term (a and b at most
        the ``content``)."""
        return _bipoly({(i - a, j - b): c for (i, j), c in self.terms.items()})

    def subst_second_by_product(self) -> "BiPoly":
        """v -> u*v (the chart keeping the first variable)."""
        return _bipoly({(i + j, j): c for (i, j), c in self.terms.items()})

    def subst_first_by_product(self) -> "BiPoly":
        """u -> u*v (the chart keeping the second variable)."""
        return _bipoly({(i, i + j): c for (i, j), c in self.terms.items()})

    def translate(self, b: CycloNum | int) -> "BiPoly":
        """Recenter the second variable: substitute v -> v + b.

        Term c*u^i*v^j contributes c * comb(j, t) * b^t to u^i*v^(j-t), in
        ascending t.  The t = 0 part is c itself and the t = j part does not
        multiply in its binomial 1; the chain's polynomials have degree at
        most 1 in v, so it never builds another.
        """
        b = _coerce_num(b)
        if b.is_zero() or self.is_zero():
            return self
        powers = [CycloNum.one()]
        for _ in range(max(j for _, j in self.terms)):
            powers.append(powers[-1] * b)
        out: dict[tuple[int, int], CycloNum] = {}
        for (i, j), c in self.terms.items():
            for t in range(j + 1):
                k = (i, j - t)
                if t == 0:
                    cj = c
                elif t == j:
                    cj = c * powers[t]
                else:
                    cj = c * comb(j, t) * powers[t]
                s0 = out.get(k)
                out[k] = cj if s0 is None else s0 + cj
        return _bipoly({k: c for k, c in out.items() if c})

    def restrict_first_to_zero(self) -> LaurentPoly:
        """Restriction to u = 0: the terms free of u, as a polynomial in v."""
        return LaurentPoly({j: c for (i, j), c in self.terms.items() if i == 0})

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(c == other.terms[k] for k, c in self.terms.items())

    __hash__ = None

    def __repr__(self):
        if self.is_zero():
            return "BiPoly(0)"
        bits = []
        for (i, j) in sorted(self.terms):
            c = self.terms[(i, j)]
            mono = f"u^{i}*v^{j}"
            bits.append(f"({c!r})*{mono}")
        return f"BiPoly({' + '.join(bits)})"


def _bipoly(terms: dict[tuple[int, int], CycloNum]) -> BiPoly:
    """A BiPoly holding ``terms`` as is: the private constructor for results,
    whose keys are pairs of nonnegative ints and whose values are nonzero
    CycloNums (compare ``cyclotomic._reduced``)."""
    poly = object.__new__(BiPoly)
    object.__setattr__(poly, "terms", terms)
    return poly


# Chart names for point blow-ups centered at the origin.
CHART_FIRST = "x=u, y=u*v"
CHART_SECOND = "x=u*v, y=v"


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


class BiRational:
    """Quotient of bivariate polynomials, common monomial factors cancelled.

    ``num_content`` and ``den_content`` are the ``content()`` of ``num`` and
    ``den`` after the cancellation.
    """

    __slots__ = ("num", "den", "num_content", "den_content")

    def __init__(self, num: BiPoly, den: BiPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        na, nb = num.content()
        da, db = den.content()
        ca, cb = min(na, da), min(nb, db)
        if not num.is_zero() and (ca or cb):
            num = num.divide_monomial(ca, cb)
            den = den.divide_monomial(ca, cb)
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
        return BiRational(self.num.translate(b), self.den.translate(b))

    def compose_monomial_map(self, chart: str) -> "BiRational":
        """Pull back through one of the two standard point blow-up charts."""
        if chart == CHART_FIRST:
            num = self.num.subst_second_by_product()
            den = self.den.subst_second_by_product()
        elif chart == CHART_SECOND:
            num = self.num.subst_first_by_product()
            den = self.den.subst_first_by_product()
        else:
            raise ValueError(f"unknown chart {chart!r}")
        return BiRational(num, den)

    def classify_at_point(self) -> NormalFormTag:
        """Monomial-pole normal form of the function at the origin.

        The function must be a unit times u^-pole_u * v^-pole_v there, with
        at least one order positive: the residual numerator and denominator
        (``num_content`` and ``den_content`` divided out) may not vanish at
        the origin, and the numerator's content must divide the
        denominator's.  Any other shape raises ClassificationError.

        >>> tag = BiRational(BiPoly({(0, 0): 1}), BiPoly.monomial(0, 1)).classify_at_point()
        >>> tag.kind.name, tag.pole_u, tag.pole_v
        ('POLE_ONE_VAR', 0, 1)
        >>> g = BiRational(BiPoly({(0, 0): 1, (1, 1): 1}), BiPoly.monomial(3, 2))
        >>> tag = g.classify_at_point()
        >>> tag.kind.name, tag.pole_u, tag.pole_v
        ('POLE_TWO_VAR', 3, 2)
        >>> BiRational(BiPoly({(0, 0): 2, (0, 1): 1}), BiPoly({(0, 0): 1})).classify_at_point()
        Traceback (most recent call last):
        ...
        expdirect.laurent.ClassificationError: no pole at the origin
        """
        na, nb = self.num_content
        da, db = self.den_content
        if self.den.terms.get((da, db)) is None:
            raise ClassificationError(
                "denominator is not monomial-times-unit at the origin")
        pu, pv = da - na, db - nb
        if pu <= 0 and pv <= 0:
            raise ClassificationError("no pole at the origin")
        if pu < 0 or pv < 0 or self.num.terms.get((na, nb)) is None:
            raise ClassificationError("numerator vanishes against a pole")
        if pu and pv:
            return NormalFormTag(NormalFormKind.POLE_TWO_VAR, pu, pv)
        return NormalFormTag(NormalFormKind.POLE_ONE_VAR, pu, pv)

    def __repr__(self):
        return f"BiRational({self.num!r}, {self.den!r})"
