"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

A value is a rational linear combination of powers of a primitive N-th root
of unity, reduced to the power basis 1, z, ..., z^(phi(N)-1) modulo the N-th
cyclotomic polynomial.  The order N is declared at construction and never
changes behind the caller's back; binary operations lift both operands to the
least common multiple of their orders, so equality across orders is equality
as complex numbers.  All values are immutable.

Every value holds a reduced dict: basis exponents 0 <= k < phi(N) only, each
mapped to a nonzero Fraction.  The public constructor ``CycloNum(order,
coeffs)`` is where outside input enters: it checks that the order is
positive, the coefficient types, and folds and reduces any exponent.
Arithmetic results are already reduced and skip that validation, and so do
the constant constructors ``zero``, ``one`` and ``from_rational``, which
check only their order and value; only the order a value is first built at
(in a constructor, ``lift`` or ``times_root``) is checked, and only for
positivity.  The kernel caps no order: the command line bounds the orders
an input can reach before it starts work.

``a.times_root(n, k)`` is ``a * root_of_unity(n, k)`` done as an exponent
shift.  Its order is the one that product has: ``a.order`` when
zeta_n^k = +-1, ``n`` when ``a`` is rational, and ``lcm(a.order, n)``
otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

__all__ = [
    "CycloNum",
    "CycloPoly",
    "PolyFraction",
    "IncompatibleOrderError",
    "cyclotomic_polynomial",
    "root_of_unity",
    "totient",
]


class IncompatibleOrderError(ValueError):
    """A value cannot be represented at the requested order."""


def _check_order(order: int) -> None:
    if order < 1:
        raise ValueError(f"order must be a positive integer, got {order}")


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    """Euler's phi function."""
    if n < 1:
        raise ValueError("totient is defined for positive integers")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _int_poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, constant term first; den monic
    # up to sign of its leading coefficient.
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    quot = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        assert c % lead == 0
        q = c // lead
        quot[i - dn] = q
        for j, dj in enumerate(den):
            num[i - dn + j] -= q * dj
    assert all(c == 0 for c in num), "non-exact polynomial division"
    return quot


@lru_cache(maxsize=None)
def _cyclotomic_int_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, constant first."""
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    for d in _divisors(n):
        if d < n:
            num = _int_poly_div_exact(num, list(_cyclotomic_int_coeffs(d)))
    return tuple(num)


_reduction_rows: dict[int, list[tuple[int, ...]]] = {}


def _rows_for(order: int, upto: int) -> list[tuple[int, ...]]:
    """Reduction rows row[t] = coefficients of z^(phi+t) in the power basis."""
    phi = totient(order)
    rows = _reduction_rows.setdefault(order, [])
    if not rows:
        cyc = _cyclotomic_int_coeffs(order)
        rows.append(tuple(-c for c in cyc[:phi]))
    while len(rows) <= upto - phi:
        prev = rows[-1]
        base = rows[0]
        shifted = [0] + list(prev[: phi - 1])
        overflow = prev[phi - 1]
        if overflow:
            shifted = [s + overflow * b for s, b in zip(shifted, base)]
        rows.append(tuple(shifted))
    return rows


def _reduce_exponents(order: int, raw: dict[int, Fraction]) -> dict[int, Fraction]:
    """Rewrite exponents 0 <= e < order in the power basis; drop zero values.

    Reduction rows are built only up to the highest exponent read.
    """
    phi = totient(order)
    out: dict[int, Fraction] = {}
    top = max(raw, default=0)
    if top >= phi:
        rows = _rows_for(order, top)
    for e, c in raw.items():
        if not c:
            continue
        if e < phi:
            prev = out.get(e)
            out[e] = c if prev is None else prev + c
        else:
            for i, ri in enumerate(rows[e - phi]):
                if ri:
                    prev = out.get(i)
                    out[i] = c * ri if prev is None else prev + c * ri
    return {e: c for e, c in out.items() if c}


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class CycloNum:
    """An exact element of Q(zeta_N) in the power basis at a declared order.

    ``coeffs`` maps basis exponents k (0 <= k < phi(N)) to nonzero Fractions.
    Exponents outside the basis range are accepted by the constructor and
    reduced; zero coefficients are dropped.

    >>> z = root_of_unity(4, 1)
    >>> z * z == -1
    True
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        _check_order(order)
        raw: dict[int, Fraction] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = _as_fraction(c)
                if not c:
                    continue
                e %= order
                prev = raw.get(e)
                raw[e] = c if prev is None else prev + c
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", _reduce_exponents(order, raw))

    def __setattr__(self, name, value):
        raise AttributeError("CycloNum is immutable")

    # -- constructors -------------------------------------------------

    # An exponent-0 value is in the power basis at every order, so the
    # constant constructors check the order and the value and skip the
    # reduction the public constructor does.

    @classmethod
    def zero(cls, order: int = 1) -> "CycloNum":
        _check_order(order)
        return _reduced(order, {})

    @classmethod
    def one(cls, order: int = 1) -> "CycloNum":
        _check_order(order)
        return _reduced(order, {0: Fraction(1)})

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CycloNum":
        _check_order(order)
        value = _as_fraction(value)
        return _reduced(order, {0: value} if value else {})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        coeffs = self.coeffs
        return not coeffs or (len(coeffs) == 1 and 0 in coeffs)

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs.get(0, Fraction(0))

    def lift(self, order: int) -> "CycloNum":
        """The same field element represented at a multiple of this order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise IncompatibleOrderError(
                f"order {self.order} does not divide {order}"
            )
        _check_order(order)
        step = order // self.order
        return _reduced(order, _reduce_exponents(
            order, {e * step: c for e, c in self.coeffs.items()}))

    def times_root(self, n: int, k: int) -> "CycloNum":
        """``self * root_of_unity(n, k)``, by shifting exponents.

        The result has the order that product has: ``self.order`` when
        zeta_n^k = +-1, ``n`` when ``self`` is rational, and the lcm of
        the two orders otherwise.

        >>> CycloNum.from_rational(2).times_root(4, 3)
        CycloNum(4, -2*z)
        """
        _check_order(n)
        k %= n
        if 2 * k % n == 0:
            return self if k == 0 else -self
        if self.is_rational():
            r = self.coeffs.get(0)
            return _reduced(n, {} if r is None else _reduce_exponents(n, {k: r}))
        m = self.order
        order = m * n // gcd(m, n)
        if order != m:
            _check_order(order)
        step, shift = order // m, k * (order // n)
        raw: dict[int, Fraction] = {}
        for e, c in self.coeffs.items():
            e = e * step + shift
            raw[e - order if e >= order else e] = c
        return _reduced(order, _reduce_exponents(order, raw))

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNum.from_rational(other, 1)
        return None

    def _common(self, other: "CycloNum"):
        n = self.order * other.order // gcd(self.order, other.order)
        return self.lift(n), other.lift(n)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            prev = out.get(e)
            if prev is None:
                out[e] = c
            else:
                c += prev
                if c:
                    out[e] = c
                else:
                    del out[e]
        return _reduced(a.order, out)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(self.order, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_rational():
            return self._scaled(other)
        if self.is_rational():
            return other._scaled(self)
        a, b = self._common(other)
        n = a.order
        conv: dict[int, Fraction] = {}
        for i, ca in a.coeffs.items():
            for j, cb in b.coeffs.items():
                k = i + j
                if k >= n:
                    k -= n
                prev = conv.get(k)
                conv[k] = ca * cb if prev is None else prev + ca * cb
        return _reduced(n, _reduce_exponents(n, conv))

    __rmul__ = __mul__

    def _scaled(self, rational: "CycloNum") -> "CycloNum":
        # self times a rational CycloNum, at self's order.
        r = rational.coeffs.get(0)
        if r is None:
            return _reduced(self.order, {})
        return _reduced(self.order, {e: c * r for e, c in self.coeffs.items()})

    def inv(self) -> "CycloNum":
        """Multiplicative inverse, via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        if self.is_rational():
            return _reduced(self.order, {0: 1 / self.coeffs[0]})
        phi = totient(self.order)
        a = [Fraction(0)] * phi
        for e, c in self.coeffs.items():
            a[e] = c
        modulus = [Fraction(c) for c in _cyclotomic_int_coeffs(self.order)]
        s = _poly_invert_mod(a, modulus)
        return _reduced(self.order, {i: c for i, c in enumerate(s) if c})

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self
        if n < 0:
            base = self.inv()
            n = -n
        result = CycloNum.one(self.order)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.order == other.order:
            return self.coeffs == other.coeffs
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    __hash__ = None  # cross-order equality has no cheap canonical hash

    def __repr__(self):
        if self.is_zero():
            return f"CycloNum({self.order}, 0)"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                parts.append(str(c))
            else:
                mono = "z" if e == 1 else f"z^{e}"
                parts.append(mono if c == 1 else f"{c}*{mono}")
        return f"CycloNum({self.order}, {' + '.join(parts)})"


def _reduced(order: int, coeffs: dict[int, Fraction]) -> CycloNum:
    """A CycloNum holding ``coeffs`` as is: the private constructor for
    results, whose order has been checked and whose dict is already reduced
    (basis exponents only, nonzero Fraction values)."""
    num = object.__new__(CycloNum)
    object.__setattr__(num, "order", order)
    object.__setattr__(num, "coeffs", coeffs)
    return num


def _poly_invert_mod(a: list[Fraction], modulus: list[Fraction]) -> list[Fraction]:
    """Inverse of a modulo a monic polynomial, dense constant-first vectors."""

    def deg(p):
        d = len(p) - 1
        while d >= 0 and not p[d]:
            d -= 1
        return d

    def pad(p, n):
        return p + [Fraction(0)] * (n - len(p))

    def polymod(p, q):
        p = list(p)
        dq = deg(q)
        lead = q[dq]
        for i in range(deg(p), dq - 1, -1):
            if not p[i]:
                continue
            f = p[i] / lead
            for j in range(dq + 1):
                p[i - dq + j] -= f * q[j]
        return p[:dq]

    # Extended Euclid: maintain r0 = s0*a (mod modulus), r1 = s1*a (mod modulus).
    r0, r1 = list(modulus), pad(list(a), len(modulus))
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while deg(r1) > 0:
        d0, d1 = deg(r0), deg(r1)
        q = [Fraction(0)] * max(d0 - d1 + 1, 1)
        rem = list(r0)
        for i in range(d0, d1 - 1, -1):
            if not rem[i]:
                continue
            f = rem[i] / r1[d1]
            q[i - d1] = f
            for j in range(d1 + 1):
                rem[i - d1 + j] -= f * r1[j]
        # s_next = s0 - q*s1
        prod = [Fraction(0)] * (len(q) + len(s1))
        for i, qi in enumerate(q):
            if not qi:
                continue
            for j, sj in enumerate(s1):
                prod[i + j] += qi * sj
        n = max(len(s0), len(prod))
        s_next = [x - y for x, y in zip(pad(s0, n), pad(prod, n))]
        r0, r1 = r1, rem
        s0, s1 = s1, s_next
    c = r1[0] if r1 else Fraction(0)
    if not c:
        raise ZeroDivisionError("element not invertible (gcd not constant)")
    inv = [x / c for x in s1]
    return polymod(pad(inv, 2 * len(modulus)), modulus)


# -- module-level operations -----------------------------------------


def cyclotomic_polynomial(n: int) -> "CycloPoly":
    """The n-th cyclotomic polynomial as a monic polynomial over Q.

    >>> cyclotomic_polynomial(6)
    CycloPoly([1, -1, 1])
    """
    _check_order(n)
    coeffs = _cyclotomic_int_coeffs(n)
    return CycloPoly([CycloNum.from_rational(c) for c in coeffs])


def root_of_unity(n: int, k: int) -> CycloNum:
    """zeta_n^(k mod n) in canonical form at order n."""
    _check_order(n)
    return CycloNum(n, {k % n: Fraction(1)})


class CycloPoly:
    """Polynomial in one variable over the cyclotomic numbers, constant first.

    Used for characteristic polynomials of monodromy; coefficients may live
    at different orders and are lifted on demand by CycloNum arithmetic.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        items = [c if isinstance(c, CycloNum) else CycloNum.from_rational(c)
                 for c in coeffs]
        while items and items[-1].is_zero():
            items.pop()
        object.__setattr__(self, "coeffs", tuple(items))

    def __setattr__(self, name, value):
        raise AttributeError("CycloPoly is immutable")

    @classmethod
    def one(cls) -> "CycloPoly":
        return cls([1])

    @classmethod
    def variable(cls) -> "CycloPoly":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> CycloNum:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return not self.is_zero() and self.leading() == 1

    def monic(self) -> "CycloPoly":
        inv = self.leading().inv()
        return CycloPoly([c * inv for c in self.coeffs])

    def __add__(self, other):
        if not isinstance(other, CycloPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else CycloNum.zero()
            b = other.coeffs[i] if i < len(other.coeffs) else CycloNum.zero()
            out.append(a + b)
        return CycloPoly(out)

    def __neg__(self):
        return CycloPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, CycloPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloNum)):
            return CycloPoly([c * other for c in self.coeffs])
        if not isinstance(other, CycloPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return CycloPoly()
        out = [CycloNum.zero() for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return CycloPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("CycloPoly powers take nonnegative integers")
        result = CycloPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "CycloPoly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead_inv = other.leading().inv()
        quot = [CycloNum.zero()] * max(0, len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i].is_zero():
                continue
            f = rem[i] * lead_inv
            quot[i - d] = f
            for j, oj in enumerate(other.coeffs):
                rem[i - d + j] = rem[i - d + j] - f * oj
        return CycloPoly(quot), CycloPoly(rem[:d] if d else [])

    def __mod__(self, other: "CycloPoly"):
        return divmod(self, other)[1]

    def gcd(self, other: "CycloPoly") -> "CycloPoly":
        """Monic greatest common divisor.  gcd(0, 0) = 0."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a if a.is_zero() else a.monic()

    def __eq__(self, other):
        if not isinstance(other, CycloPoly):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    __hash__ = None

    def __repr__(self):
        def show(c):
            if c.is_rational():
                r = c.as_rational()
                return str(r.numerator) if r.denominator == 1 else str(r)
            return repr(c)

        return f"CycloPoly([{', '.join(show(c) for c in self.coeffs)}])"


class PolyFraction:
    """Reduced fraction of polynomials over Q(zeta), denominator monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: CycloPoly, den: CycloPoly | None = None):
        if den is None:
            den = CycloPoly.one()
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = num.gcd(den)
        if not g.is_zero() and g.degree > 0:
            num = divmod(num, g)[0]
            den = divmod(den, g)[0]
        lead_inv = den.leading().inv()
        object.__setattr__(self, "num", num * lead_inv)
        object.__setattr__(self, "den", den * lead_inv)

    def __setattr__(self, name, value):
        raise AttributeError("PolyFraction is immutable")

    @classmethod
    def one(cls) -> "PolyFraction":
        return cls(CycloPoly.one())

    def inv(self) -> "PolyFraction":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero fraction")
        return PolyFraction(self.den, self.num)

    def __mul__(self, other):
        if isinstance(other, CycloPoly):
            other = PolyFraction(other)
        if not isinstance(other, PolyFraction):
            return NotImplemented
        return PolyFraction(self.num * other.num, self.den * other.den)

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        result = PolyFraction.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, PolyFraction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def __repr__(self):
        return f"PolyFraction({self.num!r}, {self.den!r})"
