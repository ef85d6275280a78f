"""Realize a formal-module description as branch data and check the round trip.

A formal description lists exponential summands (polar part, rank, monodromy
polynomial) at a declared ramification order.  Realization normalizes each
summand to a primitive pair, groups summands into root-of-unity orbits, and
emits one branch per orbit with trivial holomorphic part; decomposing those
branches regenerates the whole orbit of every summand.  The round-trip
comparison therefore works with ramification-independent canonical classes:
primitive pair plus orbit closure plus rank plus monodromy polynomial.

One orbit table per spec: ``_spec_orbits`` puts each summand in primitive
form once and keys it, closing each spec orbit once; ``realize`` and the
round trip both read that table.  The round trip keys each computed factor
in the same table, so a factor in a spec orbit closes nothing, and it reads
an orbit's size off its key.  A ``FormalModuleSpec`` checks its invariants
when it is built, so every spec that reaches ``realize`` or
``roundtrip_check`` is well formed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .branch import Branch
from .cyclotomic import CycloPoly
from .decomposition import FormalDecomposition, decompose, laurent_sort_key
from .laurent import LaurentPoly, subst_root_power, support_gcd

__all__ = [
    "FormalSummand",
    "FormalModuleSpec",
    "NormalizationConflictError",
    "canonicalize",
    "orbit_closure",
    "realize",
    "roundtrip_check",
    "RoundTripReport",
]


class NormalizationConflictError(ValueError):
    """Summands in one root-of-unity orbit disagree on rank or monodromy."""


@dataclass(frozen=True)
class FormalSummand:
    alpha: LaurentPoly
    rank: int
    charpoly: CycloPoly


@dataclass(frozen=True)
class FormalModuleSpec:
    """A formal description at ramification ``p``.  Construction raises
    ValueError unless the invariants checked below hold."""

    p: int
    summands: tuple[FormalSummand, ...]
    regular_rank: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("ramification order must be positive")
        if self.regular_rank < 0:
            raise ValueError("regular rank must be nonnegative")
        for s in self.summands:
            if not s.alpha.is_polar():
                raise ValueError("summand polar parts must be nonzero with only "
                                 "negative exponents")
            if s.rank < 1:
                raise ValueError("summand rank must be positive")
            if not s.charpoly.is_monic() or s.charpoly.degree != s.rank:
                raise ValueError("summand charpoly must be monic of degree rank")
        if len({laurent_sort_key(s.alpha) for s in self.summands}) < len(self.summands):
            raise ValueError("summand polar parts must be pairwise distinct")


def canonicalize(p: int, alpha: LaurentPoly) -> tuple[int, LaurentPoly]:
    """Primitive form of a ramified polar part.

    Divides the ramification order and every exponent by their common gcd,
    so the result satisfies gcd(p', exponents) = 1 and names the same formal
    object at the smallest ramification, whatever common factor scales p
    and the exponents:

    >>> canonicalize(2, LaurentPoly({-3: 1})) == canonicalize(4, LaurentPoly({-6: 1}))
    True
    """
    if not alpha.is_polar():
        raise ValueError("alpha must be nonzero and purely polar")
    d = support_gcd(alpha, p)
    if d <= 1:
        return p, alpha
    return p // d, LaurentPoly({e // d: c for e, c in alpha.terms.items()})


def orbit_closure(p: int, alpha: LaurentPoly) -> list[LaurentPoly]:
    """Distinct twists alpha(xi * t) over the p-th roots of unity xi,
    in canonical order."""
    seen: dict[tuple, LaurentPoly] = {}
    for i in range(1, p + 1):
        f = subst_root_power(alpha, p, i, 1)
        seen.setdefault(laurent_sort_key(f), f)
    return [seen[k] for k in sorted(seen)]


def _orbit_key(orbit_of: dict, p0: int, a0: LaurentPoly) -> tuple:
    """Orbit-class key of a primitive pair ``(p0, a0)``: ``p0`` with the
    sorted keys of the orbit's members.  ``orbit_of`` maps ``(p0, member
    key)`` to the key of each orbit already built; a pair not found there
    closes its orbit once and records it."""
    key = orbit_of.get((p0, laurent_sort_key(a0)))
    if key is None:
        key = (p0, tuple(laurent_sort_key(f) for f in orbit_closure(p0, a0)))
        for member in key[1]:
            orbit_of[(p0, member)] = key
    return key


def _spec_orbits(spec: FormalModuleSpec):
    """The orbit table of a spec: each orbit key, in order of first
    appearance, with the primitive pair of its first summand and its
    summands in spec order; and the ``orbit_of`` table that keyed them."""
    orbit_of: dict[tuple, tuple] = {}
    orbits: dict[tuple, tuple[int, LaurentPoly, list[FormalSummand]]] = {}
    for s in spec.summands:
        p0, a0 = canonicalize(spec.p, s.alpha)
        orbits.setdefault(_orbit_key(orbit_of, p0, a0), (p0, a0, []))[2].append(s)
    return orbits, orbit_of


def _branches(orbits) -> list[Branch]:
    """One branch per orbit of the table, in key order; see ``realize``."""
    branches = []
    for idx, key in enumerate(sorted(orbits), start=1):
        p0, rep, members = orbits[key]
        ranks = {s.rank for s in members}
        if len(ranks) > 1:
            raise NormalizationConflictError(
                f"orbit of {members[0].alpha!r} carries ranks {sorted(ranks)}"
            )
        if any(s.charpoly != members[0].charpoly for s in members[1:]):
            raise NormalizationConflictError(
                f"orbit of {members[0].alpha!r} carries distinct "
                "monodromy polynomials"
            )
        branches.append(Branch(
            label=f"s{idx}",
            p=p0,
            q=rep.pole_order(),
            alpha=rep,
            delta=LaurentPoly.zero(),
            m=members[0].rank,
            zeta=members[0].charpoly,
        ))
    return branches


def realize(spec: FormalModuleSpec) -> list[Branch]:
    """One branch per root-of-unity orbit of summands, in key order.

    Each branch carries as polar part the primitive form (``canonicalize``)
    of the alpha of its orbit's first summand in ``spec`` order, a trivial
    holomorphic part, the orbit's rank as multiplicity and its monodromy
    polynomial; decomposing the output regenerates every orbit element.
    Orbit members with conflicting rank or monodromy raise
    NormalizationConflictError.  The regular summand produces no branch.
    """
    return _branches(_spec_orbits(spec)[0])


@dataclass(frozen=True)
class RoundTripReport:
    """Outcome of a round trip.  ``matched``, ``missing`` and ``extra`` hold
    ``(ramification, alpha, rank)`` entries, alpha primitive: ``matched``
    names each computed factor that matched an element of a spec orbit,
    ``missing`` a spec summand once per unmatched element of its orbit,
    ``extra`` an unmatched computed factor once.  ``ok``, a property, holds
    when none is missing or extra and nothing conflicts."""

    spec_ramification: int
    matched: tuple[tuple[int, LaurentPoly, int], ...] = ()
    missing: tuple[tuple[int, LaurentPoly, int], ...] = ()
    extra: tuple[tuple[int, LaurentPoly, int], ...] = ()
    conflicts: tuple[str, ...] = ()
    decomposition: FormalDecomposition | None = None

    @property
    def ok(self) -> bool:
        return not (self.missing or self.extra or self.conflicts)


def roundtrip_check(spec: FormalModuleSpec) -> RoundTripReport:
    """Compare decompose(realize(spec)) with the orbit closure of the spec.

    One orbit table is built for the spec: the branches come from it, and
    each computed factor is keyed in it.  Both sides are mapped to canonical
    classes (primitive pair, orbit, rank, charpoly) counted with
    multiplicity; mismatches are reported, never raised.  A spec whose
    summands cannot be consistently orbit-closed is reported as a conflict.
    """
    orbits, orbit_of = _spec_orbits(spec)
    try:
        branches = _branches(orbits)
    except NormalizationConflictError as err:
        return RoundTripReport(spec_ramification=spec.p, conflicts=(str(err),))

    dec = decompose(branches)

    # The orbit closure of the spec is a union: summands sharing an orbit
    # contribute that orbit once (their rank and charpoly agree), as many
    # entries as its key has elements.  The computed side is put in
    # primitive form at its own ramification, which divides the declared
    # one; the primitive form does not depend on the scale.
    spec_entries = [(key, p0, a0, members[0].rank, members[0].charpoly)
                    for key, (p0, a0, members) in orbits.items() for _ in key[1]]
    remaining = []
    for f in dec.factors:
        p0, a0 = canonicalize(dec.p, f.alpha)
        remaining.append((_orbit_key(orbit_of, p0, a0), p0, a0,
                          f.rank_branchwise, f.charpoly))

    matched, missing = [], []
    for key, p0, a0, rank, cp in spec_entries:
        hit = next((i for i, other in enumerate(remaining)
                    if other[0] == key and other[3] == rank and other[4] == cp), None)
        if hit is None:
            missing.append((p0, a0, rank))
        else:
            matched.append(remaining.pop(hit)[1:4])
    extra = [(p0, a0, rank) for (_, p0, a0, rank, _cp) in remaining]

    return RoundTripReport(
        spec_ramification=spec.p,
        matched=tuple(matched),
        missing=tuple(missing),
        extra=tuple(extra),
        decomposition=dec,
    )
