"""Formal decomposition of the germ after ramification.

The unramified branch copies are grouped by exact equality of their rewritten
polar parts; each group is one exponential factor.  Two rank conventions are
computed: ``rank_branchwise`` sums multiplicities over every contributing
(branch, root) pair, ``rank_distinct`` sums them over the distinct branches
only.  They differ exactly when one branch feeds several root-of-unity copies
into the same factor, which is flagged.  Separation (pairwise distinctness of
polar part + constant term across all copies) is decided first, and a factor's
monodromy charpoly is assembled as the factor is built, under separation only.

``decompose`` checks its branches with ``branch.validate_all`` first,
unless the CLI hands them over already checked.  Each copy is keyed once
per ``decompose``: ``keyed_copies`` pairs it with the key of its polar
part, and both the grouping and the separation test read that key.
Cyclotomic values are canonical, so equal polar parts have equal keys as
they stand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul

from .branch import (Branch, UnramifiedBranch, ValidationError, _ValidBranches,
                     ramification_order, unramify, validate_all)
from .cyclotomic import CycloPoly
from .laurent import LaurentPoly

__all__ = [
    "ExponentialFactor",
    "FormalDecomposition",
    "keyed_copies",
    "exponential_factors",
    "star_condition",
    "decompose",
    "laurent_sort_key",
]


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
    star_witness: tuple[tuple[str, int], tuple[str, int]] | None = None
    copies: tuple[UnramifiedBranch, ...] = ()

    @property
    def star_holds(self) -> bool:
        return self.star_witness is None


def laurent_sort_key(f: LaurentPoly):
    """Deterministic total order on Laurent polynomials: (pole order, terms),
    each term keyed by its exponent and its coefficient's canonical
    ``(order, coeffs)``.  Equal polynomials have equal keys."""
    items = []
    for e in sorted(f.terms):
        c = f.terms[e]
        items.append((e, c.order, tuple(sorted(
            (k, v.numerator, v.denominator) for k, v in c.coeffs.items()
        ))))
    return (f.pole_order(), tuple(items))


def keyed_copies(ub: list[UnramifiedBranch]) -> list[tuple[tuple, UnramifiedBranch]]:
    """Each copy paired with ``laurent_sort_key`` of its polar part."""
    return [(laurent_sort_key(u.alpha_sub), u) for u in ub]


def exponential_factors(keyed: list[tuple[tuple, UnramifiedBranch]],
                        separated: bool) -> list[ExponentialFactor]:
    """Partition the keyed copies by exact equality of polar parts.

    Factors come back in the canonical order (pole order, then coefficients).
    ``separated`` says ``star_condition`` found no witness on these copies:
    when it holds, each factor's charpoly is the product of its members'
    zetas, in member order; otherwise no factor has one.
    """
    groups: dict[tuple, list[UnramifiedBranch]] = {}
    for key, u in keyed:
        groups.setdefault(key, []).append(u)

    factors = []
    for key in sorted(groups):
        members = groups[key]
        members.sort(key=lambda u: (u.label, u.root_index))
        by_label = {u.label: u.m for u in members}
        charpoly = reduce(mul, (u.zeta for u in members)) if separated else None
        factors.append(ExponentialFactor(
            alpha=members[0].alpha_sub,
            members=tuple(u.origin for u in members),
            rank_branchwise=sum(u.m for u in members),
            rank_distinct=sum(by_label.values()),
            charpoly=charpoly,
        ))
    return factors


def star_condition(keyed: list[tuple[tuple, UnramifiedBranch]]):
    """Pairwise distinctness of polar part + constant term across the keyed
    copies.

    Returns the witness of a violation, the first colliding pair of
    (label, root index) origins in input order, or None when it holds.  A
    polar part has only negative exponents and the constant term sits at
    exponent 0, so two sums are equal exactly when both parts are: each copy
    is keyed by its polar key and its constant term.
    """
    seen: dict[tuple, tuple[str, int]] = {}
    for polar_key, u in keyed:
        key = (polar_key, u.delta0)
        if key in seen:
            return seen[key], u.origin
        seen[key] = u.origin
    return None


def decompose(branches: list[Branch]) -> FormalDecomposition:
    """The decomposition of the branches.

    The branches are checked by ``validate_all``, which declares no
    truncation, so no bound applies to the support of a holomorphic part;
    the first invalid report is raised as ValidationError.  The CLI's
    ``_ValidBranches`` are taken as already checked.

    Empty input is the purely regular case: trivial ramification, no factors.
    Factor order is deterministic and independent of input order.  The
    unramified copies are returned too, for the blow-up oracle to replay.
    Separation is decided first, and its witness kept, so each factor is
    built once, with its charpoly: under separation (no witness) the product
    of its members' zetas, in member order; otherwise no factor has one.
    """
    if not isinstance(branches, _ValidBranches):
        branches = list(branches)
        for report in validate_all(branches):
            if not report.valid:
                raise ValidationError(report)
    if not branches:
        return FormalDecomposition(p=1, factors=())
    p = ramification_order(branches)
    ub = unramify(branches)
    keyed = keyed_copies(ub)
    witness = star_condition(keyed)
    return FormalDecomposition(
        p=p,
        factors=tuple(exponential_factors(keyed, witness is None)),
        star_witness=witness,
        copies=tuple(ub),
    )
