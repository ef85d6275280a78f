"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

Every value is held in one canonical form, the one GAP uses (T. Breuer,
AAECC 8, 1997; W. Bosma, AAECC 1, 1990):

- ``order`` is the value's minimal conductor, the least N with the value in
  Q(zeta_N).  It is never 2 mod 4, since Q(zeta_2M) = Q(zeta_M) for odd M,
  and it is 1 exactly for rationals.
- ``coeffs`` maps Zumbroich basis exponents of Q(zeta_N) to nonzero
  Fractions, and the value is the sum of ``coeffs[e] * zeta_N^e``.

So two values are equal exactly when their ``(order, coeffs)`` are, and the
hash is that of the pair.  All values are immutable.

The basis test: for each prime power p^v exactly dividing N let
x_p = e * (N/p^v)^-1 mod p^v, the p-part of zeta_N^e.  Exponent e is in the
basis when the top base-p digit of every x_p is 0 for p = 2 and nonzero for
odd p.  Any other exponent is rewritten (``_normalised``) with
zeta^e = -sum_{t=1..p-1} zeta^(e + t*N/p), which is -zeta^(e + N/2) for
p = 2; each rewrite moves only the top digit of x_p.  A result is then brought to its conductor
(``_canonical``), one prime at a time until no prime applies: when p^2 | N
or p = 2 and every exponent is divisible by p, e -> e/p; when p || N is odd
and the coefficients are constant on every coset {e + t*N/p}, the coset
becomes -c at e0/p, where e0 is the coset member divisible by p.  Negation
and scaling by a nonzero rational keep the conductor and skip that step.

The public constructor ``CycloNum(order, coeffs)`` is where outside input
enters: it takes any integer exponent at any positive order, checks the
coefficient types and stores the canonical form.  Arithmetic results are
built canonical and skip that validation.  ``_check_order`` sees every
order a value is written or computed at; the conductor it is stored at
divides that order.  The kernel caps no order: the command line bounds the
orders an input can reach before it starts work.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

__all__ = ["CycloNum", "CycloPoly", "totient"]


def _check_order(order: int) -> None:  # bench/tracer.py rebinds it to see orders
    if order < 1:
        raise ValueError(f"order must be a positive integer, got {order}")


@lru_cache(maxsize=None)
def _prime_powers(n: int) -> tuple[tuple[int, int, int], ...]:
    """(p, p^v, (n/p^v)^-1 mod p^v) for each p^v exactly dividing n,
    p ascending."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            out.append((p, q, pow(n // q, -1, q)))
        p += 1
    if m > 1:
        out.append((m, m, pow(n // m, -1, m)))
    return tuple(out)


def totient(n: int) -> int:  # kept for bench/worker.py's value generator
    """Euler's phi function."""
    if n < 1:
        raise ValueError("totient is defined for positive integers")
    phi = n
    for p, _, _ in _prime_powers(n):
        phi = phi // p * (p - 1)
    return phi


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


def _divmod(num: list, den: list) -> tuple[list, list]:
    """Quotient and remainder of dense polynomials, constant term first,
    over int or Fraction coefficients only; ``den[-1]`` is nonzero.  A monic
    ``den`` scales nothing, so integers stay integers; any other leading
    coefficient is inverted once, as a Fraction.

    >>> x6_minus_1, phi123 = [-1, 0, 0, 0, 0, 0, 1], [-1, -1, 0, 1, 1]
    >>> _divmod(x6_minus_1, phi123)  # Phi_6 = (x^6 - 1) / (Phi_1 Phi_2 Phi_3)
    ([1, -1, 1], [0, 0, 0, 0])
    """
    d = len(den) - 1
    lead = den[-1]
    scale = None if lead == 1 else Fraction(1) / lead
    terms = [(j, c) for j, c in enumerate(den[:d]) if c]
    rem = list(num)
    quot = [0] * max(len(num) - d, 0)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if not c:
            continue
        if scale is not None:
            c = c * scale
        quot[i - d] = c
        for j, cj in terms:
            rem[i - d + j] -= c * cj
    return quot, rem[:d]


@lru_cache(maxsize=None)
def _cyclotomic_int_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, constant first."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n)[:-1]:
        num, rem = _divmod(num, _cyclotomic_int_coeffs(d))
        assert not any(rem), "non-exact polynomial division"
    return tuple(num)


def _normalised(n: int, raw: dict[int, Fraction]) -> dict[int, Fraction]:
    """``raw`` (exponents 0 <= e < n, nonzero values) rewritten on the
    Zumbroich basis at order n."""
    for p, q, inv in _prime_powers(n):
        top = q // p
        step = n // p  # adds 1 to the top digit of x_p, nothing elsewhere
        odd = p != 2
        if all((e * inv % q >= top) == odd for e in raw):
            continue
        out: dict[int, Fraction] = {}
        for e, c in raw.items():
            if (e * inv % q >= top) == odd:
                prev = out.get(e)
                out[e] = c if prev is None else prev + c
            else:
                for t in range(1, p):
                    f = (e + t * step) % n
                    prev = out.get(f)
                    out[f] = -c if prev is None else prev - c
        raw = {e: c for e, c in out.items() if c}
    return raw


def _coset_sums(n: int, p: int, coeffs: dict[int, Fraction]):
    """For odd p exactly dividing n: ``coeffs`` at order n/p when they are
    constant on every coset {e + t*n/p}, else None."""
    if len(coeffs) % (p - 1):
        return None
    m = n // p
    sums: dict[int, Fraction] = {}
    for e, c in coeffs.items():
        r = e % m
        prev = sums.get(r)
        if prev is None:
            sums[r] = c
        elif prev != c:
            return None
    if len(sums) * (p - 1) != len(coeffs):
        return None
    # e0 = p*f is the coset member divisible by p: f = r * p^-1 mod m.
    w = pow(p, -1, m)
    return {r * w % m: -c for r, c in sums.items()}


def _canonical(n: int, coeffs: dict[int, Fraction]) -> "CycloNum":
    """The value of ``coeffs`` (Zumbroich basis at order n, nonzero values)
    at its minimal conductor."""
    while coeffs:
        for p, q, _ in _prime_powers(n):
            if p == 2 or q != p:
                if all(e % p == 0 for e in coeffs):
                    coeffs = {e // p: c for e, c in coeffs.items()}
                    break
            else:
                lowered = _coset_sums(n, p, coeffs)
                if lowered is not None:
                    coeffs = lowered
                    break
        else:
            return _reduced(n, coeffs)
        n //= p
    return _reduced(1, coeffs)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class CycloNum:
    """An exact element of Q(zeta_N), at its minimal conductor N, on the
    Zumbroich basis.

    ``coeffs`` maps basis exponents to nonzero Fractions.  The constructor
    takes any integer exponent at any positive order and stores the
    canonical form.

    >>> z = CycloNum(4, {1: 1})
    >>> z * z == -1
    True
    >>> CycloNum(6, {1: 1})  # zeta_6 = -zeta_3^2
    CycloNum(3, -1*z^2)
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
        value = _canonical(order, _normalised(
            order, {e: c for e, c in raw.items() if c}))
        object.__setattr__(self, "order", value.order)
        object.__setattr__(self, "coeffs", value.coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CycloNum is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "CycloNum":
        return _reduced(1, {})

    @classmethod
    def one(cls) -> "CycloNum":
        return _reduced(1, {0: Fraction(1)})

    @classmethod
    def from_rational(cls, value) -> "CycloNum":
        value = _as_fraction(value)
        return _reduced(1, {0: value} if value else {})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def lift(self, order: int) -> dict[int, Fraction]:  # bench/tracer.py counts it
        """The coefficients embedded at a multiple ``order`` of this order,
        ``{e * order // self.order: c}``: the same value, but not on the
        basis at ``order`` in general."""
        if order % self.order != 0:
            raise ValueError(f"order {self.order} does not divide {order}")
        _check_order(order)
        step = order // self.order
        return {e * step: c for e, c in self.coeffs.items()}

    def times_root(self, n: int, k: int) -> "CycloNum":
        """``self * zeta_n^k``, by shifting exponents.

        >>> CycloNum.from_rational(2).times_root(4, 3)
        CycloNum(4, -2*z)
        """
        _check_order(n)
        k %= n
        if 2 * k % n == 0:
            return self if k == 0 else -self
        m = self.order
        order = lcm(m, n)
        if order != m:
            _check_order(order)
        step, shift = order // m, k * (order // n)
        raw: dict[int, Fraction] = {}
        for e, c in self.coeffs.items():
            e = e * step + shift
            raw[e - order if e >= order else e] = c
        return _canonical(order, _normalised(order, raw))

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNum.from_rational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        n = self.order
        if n == other.order:
            a, b = self.coeffs, other.coeffs
        else:
            n = lcm(n, other.order)
            a = self.coeffs if n == self.order else _normalised(n, self.lift(n))
            b = other.coeffs if n == other.order else _normalised(n, other.lift(n))
        out = dict(a)
        for e, c in b.items():
            prev = out.get(e)
            if prev is None:
                out[e] = c
            else:
                c += prev
                if c:
                    out[e] = c
                else:
                    del out[e]
        return _canonical(n, out)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(self.order, {e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.order == 1:
            return self._scaled(other)
        if self.order == 1:
            return other._scaled(self)
        n = self.order
        if n == other.order:
            a, b = self.coeffs, other.coeffs
        else:
            n = lcm(n, other.order)
            a, b = self.lift(n), other.lift(n)
        conv: dict[int, Fraction] = {}
        for i, ca in a.items():
            for j, cb in b.items():
                k = i + j
                if k >= n:
                    k -= n
                prev = conv.get(k)
                conv[k] = ca * cb if prev is None else prev + ca * cb
        return _canonical(n, _normalised(n, {k: c for k, c in conv.items() if c}))

    __rmul__ = __mul__  # kept for bench/tracer.py, which counts it

    def _scaled(self, rational: "CycloNum") -> "CycloNum":
        # self times a rational CycloNum: the conductor is kept.
        r = rational.coeffs.get(0)
        if r is None:
            return _reduced(1, {})
        return _reduced(self.order, {e: c * r for e, c in self.coeffs.items()})

    def inv(self) -> "CycloNum":
        """Multiplicative inverse.  A single term c*zeta^e inverts to
        (1/c)*zeta^-e; any other value is inverted by the extended Euclidean
        algorithm on its stored coefficients, whose first steps reduce them
        modulo the cyclotomic polynomial.  The conductor is kept."""
        coeffs = self.coeffs
        if not coeffs:
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        n = self.order
        if len(coeffs) == 1:
            (e, c), = coeffs.items()
            return _reduced(n, _normalised(n, {-e % n: 1 / c}))
        a = [Fraction(0)] * n
        for e, c in coeffs.items():
            a[e] = c
        s = _poly_invert_mod(a, [Fraction(c) for c in _cyclotomic_int_coeffs(n)])
        return _reduced(n, _normalised(n, {i: c for i, c in enumerate(s) if c}))

    def __pow__(self, n: int):  # kept for bench/tracer.py, which counts it
        if not isinstance(n, int):
            return NotImplemented
        base = self
        if n < 0:
            base = self.inv()
            n = -n
        result = CycloNum.one()
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
        return self.order == other.order and self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __hash__(self):
        if self.order == 1:  # equal to an int or Fraction: hash as one
            return hash(self.coeffs.get(0, 0))
        return hash((self.order, frozenset(self.coeffs.items())))

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
    results already in canonical form (minimal conductor, basis exponents,
    nonzero Fraction values)."""
    num = object.__new__(CycloNum)
    object.__setattr__(num, "order", order)
    object.__setattr__(num, "coeffs", coeffs)
    return num


def _monomial(order: int, e: int, c: Fraction) -> CycloNum:
    """``CycloNum(order, {e: c})``: zeta_order^e is a primitive n-th root,
    n = order/gcd(e, order), and at n = 2m, m odd, -zeta_m^(e*(m+1)/2).  So,
    as in ``inv``, the one term put on the basis at n is canonical."""
    _check_order(order)
    if not c:
        return _reduced(1, {})
    g = gcd(e, order)
    n, e = order // g, e // g % (order // g)
    if n % 4 == 2:
        n //= 2
        e, c = e * (n + 1) // 2 % n, -c
    return _reduced(1, {0: c}) if n == 1 else _reduced(n, _normalised(n, {e: c}))


def _trimmed(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_invert_mod(a: list[Fraction], modulus: list[Fraction]) -> list[Fraction]:
    """Inverse of a modulo a monic polynomial, dense constant-first vectors;
    ``a`` may be longer than the modulus."""
    # Extended Euclid: maintain r0 = s0*a (mod modulus), r1 = s1*a (mod modulus).
    r0, r1 = list(modulus), _trimmed(list(a))
    s0, s1 = [], [Fraction(1)]
    while len(r1) > 1:
        q, rem = _divmod(r0, r1)
        s = s0 + [0] * (len(q) + len(s1) - 1 - len(s0))  # s0 - q*s1
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    s[i + j] -= qi * sj
        r0, r1 = r1, _trimmed(rem)
        s0, s1 = s1, _trimmed(s)
    if not r1:
        raise ZeroDivisionError("element not invertible (gcd not constant)")
    c = r1[0]
    return _divmod([x / c for x in s1], modulus)[1]


class CycloPoly:
    """Polynomial in one variable over the cyclotomic numbers, constant first.

    Used for characteristic polynomials of monodromy; each coefficient is
    a CycloNum at its own conductor.
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

    def __mul__(self, other):
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

    def __eq__(self, other):
        if not isinstance(other, CycloPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self):
        def show(c):
            if c.order == 1:
                r = c.coeffs.get(0, 0)
                return str(r.numerator) if r.denominator == 1 else str(r)
            return repr(c)

        return f"CycloPoly([{', '.join(show(c) for c in self.coeffs)}])"
