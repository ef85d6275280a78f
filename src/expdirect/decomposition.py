"""Formal decomposition of the germ after ramification.

The unramified branch copies are grouped by exact equality of their rewritten
polar parts; each group is one exponential factor.  Two rank conventions are
computed: ``rank_branchwise`` sums multiplicities over every contributing
(branch, root) pair, ``rank_distinct`` sums them over the distinct branches
only.  They differ exactly when one branch feeds several root-of-unity copies
into the same factor, which is flagged.  Monodromy characteristic polynomials
are assembled only under the separation condition (pairwise distinctness of
polar part + constant term across all copies).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .branch import (DEFAULT_TRUNCATION, Branch, UnramifiedBranch,
                     ramification_order, require_valid, unramify)
from .cyclotomic import CycloNum, CycloPoly
from .laurent import LaurentPoly

__all__ = [
    "ExponentialFactor",
    "FormalDecomposition",
    "StarConditionError",
    "exponential_factors",
    "star_condition",
    "char_polys",
    "decompose",
    "laurent_sort_key",
]


class StarConditionError(ValueError):
    """Monodromy assembly requested while the separation condition fails;
    ``witness`` is the first violating pair of copy origins, when known."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


@dataclass(frozen=True)
class ExponentialFactor:
    alpha: LaurentPoly
    members: tuple[tuple[str, int], ...]
    rank_branchwise: int
    rank_distinct: int
    charpoly: CycloPoly | None = None

    @property
    def rank_diverges(self) -> bool:
        return self.rank_branchwise != self.rank_distinct

    @property
    def pole_order(self) -> int:
        return self.alpha.pole_order()


@dataclass(frozen=True)
class FormalDecomposition:
    """Exponential factors at ramification p, and the copies they group."""

    p: int
    factors: tuple[ExponentialFactor, ...]
    star_holds: bool
    star_witness: tuple[tuple[str, int], tuple[str, int]] | None = None
    copies: tuple[UnramifiedBranch, ...] = ()


def laurent_sort_key(f: LaurentPoly, order: int):
    """Deterministic total order on Laurent polynomials: (pole order, terms).

    Coefficients are lifted to a common cyclotomic order before keying, so the
    key is stable under permutations and representation order differences.
    """
    items = []
    for e in sorted(f.terms):
        c = f.terms[e].lift(order)
        items.append((e, tuple(sorted(
            (k, v.numerator, v.denominator) for k, v in c.coeffs.items()
        ))))
    return (f.pole_order(), tuple(items))


def _common_order(polys) -> int:
    # lcm over a set, not a generator: CPython builds star-args from a
    # generator as a tuple of guessed length and resizes it, the resized
    # tuple is freed into the free list of another length, and a process
    # that runs many problems grows with their number.
    return lcm(*{c.order for f in polys for c in f.terms.values()})


def exponential_factors(ub: list[UnramifiedBranch]) -> list[ExponentialFactor]:
    """Partition the unramified copies by exact equality of polar parts.

    Factors come back in the canonical order (pole order, then coefficients).
    """
    order = _common_order([u.alpha_sub for u in ub])
    groups: dict[tuple, list[UnramifiedBranch]] = {}
    for u in ub:
        groups.setdefault(laurent_sort_key(u.alpha_sub, order), []).append(u)

    factors = []
    for key in sorted(groups):
        members = groups[key]
        members.sort(key=lambda u: (u.label, u.root_index))
        distinct_labels = []
        for u in members:
            if u.label not in distinct_labels:
                distinct_labels.append(u.label)
        by_label = {u.label: u.m for u in members}
        factors.append(ExponentialFactor(
            alpha=members[0].alpha_sub,
            members=tuple(u.origin for u in members),
            rank_branchwise=sum(u.m for u in members),
            rank_distinct=sum(by_label[lbl] for lbl in distinct_labels),
        ))
    return factors


def star_condition(ub: list[UnramifiedBranch]):
    """Pairwise distinctness of polar part + constant term across copies.

    Returns (holds, witness); the witness is the first violating pair of
    (label, root index) origins.  A polar part has only negative exponents
    and the constant term sits at exponent 0, so two sums are equal exactly
    when both parts are: each copy is keyed by the pair.
    """
    polar_order = _common_order([u.alpha_sub for u in ub])
    const_order = lcm(*{u.delta0.order for u in ub})
    seen: dict[tuple, tuple[str, int]] = {}
    for u in ub:
        key = (laurent_sort_key(u.alpha_sub, polar_order),
               tuple(sorted(u.delta0.lift(const_order).coeffs.items())))
        if key in seen:
            return False, (seen[key], u.origin)
        seen[key] = u.origin
    return True, None


def _product(zetas) -> CycloPoly:
    """The product of monic polynomials, as ``CycloPoly.one()`` times each in
    turn computes it: the first factor comes back with its rational
    coefficients at order 1 (what a product with the rational 1 makes of
    them), and only the later factors are convolved in."""
    first = zetas[0]
    prod = CycloPoly([CycloNum.from_rational(c.as_rational()) if c.is_rational() else c
                      for c in first.coeffs])
    for z in zetas[1:]:
        prod = prod * z
    return prod


def char_polys(factors: list[ExponentialFactor],
               ub: list[UnramifiedBranch]) -> list[ExponentialFactor]:
    """Fill in monodromy characteristic polynomials, one zeta per member.

    Requires the separation condition; the charpoly of a factor is the
    product over its (branch, root) members.
    """
    holds, witness = star_condition(ub)
    if not holds:
        raise StarConditionError(
            f"separation condition fails for {witness[0]} and {witness[1]}",
            witness,
        )
    zetas = {u.origin: u.zeta for u in ub}
    out = []
    for f in factors:
        out.append(ExponentialFactor(
            alpha=f.alpha,
            members=f.members,
            rank_branchwise=f.rank_branchwise,
            rank_distinct=f.rank_distinct,
            charpoly=_product([zetas[origin] for origin in f.members]),
        ))
    return out


def decompose(branches: list[Branch],
              truncation: int = DEFAULT_TRUNCATION) -> FormalDecomposition:
    """Full decomposition driver over validated branch data.

    Empty input is the purely regular case: trivial ramification, no factors.
    Factor order is deterministic and independent of input order.  The
    unramified copies are returned too, for the blow-up oracle to replay.
    """
    branches = list(branches)
    if not branches:
        return FormalDecomposition(p=1, factors=(), star_holds=True)
    require_valid(branches, truncation)
    p = ramification_order(branches)
    ub = unramify(branches, truncation)
    factors = exponential_factors(ub)
    try:
        factors = char_polys(factors, ub)
        holds, witness = True, None
    except StarConditionError as err:
        holds, witness = False, err.witness
    for f in factors:
        assert f.rank_branchwise >= 1
    return FormalDecomposition(
        p=p,
        factors=tuple(factors),
        star_holds=holds,
        star_witness=witness,
        copies=tuple(ub),
    )
