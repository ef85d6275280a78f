"""Realize a formal-module description as branch data and check the round trip.

A formal description lists exponential summands (polar part, rank, monodromy
polynomial) at a declared ramification order.  Realization normalizes each
summand to a primitive pair, groups summands into root-of-unity orbits, and
emits one branch per orbit with trivial holomorphic part; decomposing those
branches regenerates the whole orbit of every summand.  The round-trip
comparison therefore works with ramification-independent canonical classes:
primitive pair plus orbit closure plus rank plus monodromy polynomial.

Each side of the round trip is put in primitive form once, at its own
ramification.  Keys are of those primitive pairs, and ``_orbit_class_keys``
builds each orbit once per call: a pair whose key is that of a member of an
orbit already built reuses that orbit's key, and the round trip reads an
orbit's size off its key.  A
``FormalModuleSpec`` checks its invariants when it is built, so every spec
that reaches ``realize`` or ``roundtrip_check`` is well formed.
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
            if s.alpha.is_zero() or not s.alpha.polar_part() == s.alpha:
                raise ValueError("summand polar parts must be nonzero with only "
                                 "negative exponents")
            if s.rank < 1:
                raise ValueError("summand rank must be positive")
            if s.charpoly.is_zero() or not s.charpoly.is_monic() \
                    or s.charpoly.degree != s.rank:
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
    if alpha.is_zero() or not alpha.polar_part() == alpha:
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


def _orbit_class_keys(pairs) -> list[tuple]:
    """Orbit-class keys for several primitive pairs ``(p0, a0)`` at once,
    as ``canonicalize`` returns them.

    The key of an orbit is its primitive ramification ``p0`` with the sorted
    keys of its members.  Each root-of-unity orbit is closed once: a pair
    whose polar part has the key of a member of an orbit already built at
    the same ``p0`` takes that orbit's key.
    """
    orbit_of: dict[tuple, tuple] = {}
    keys = []
    for p0, a0 in pairs:
        key = orbit_of.get((p0, laurent_sort_key(a0)))
        if key is None:
            key = (p0, tuple(laurent_sort_key(f) for f in orbit_closure(p0, a0)))
            for member in key[1]:
                orbit_of[(p0, member)] = key
        keys.append(key)
    return keys


def realize(spec: FormalModuleSpec) -> list[Branch]:
    """One branch per root-of-unity orbit of summands.

    Each branch carries as polar part the primitive form (``canonicalize``)
    of the alpha of its orbit's first summand in ``spec`` order, a trivial
    holomorphic part, the orbit's rank as multiplicity and its monodromy
    polynomial; decomposing the output regenerates every orbit element.
    Orbit members with conflicting rank or monodromy raise
    NormalizationConflictError.  The regular summand produces no branch.
    """
    pairs = [canonicalize(spec.p, s.alpha) for s in spec.summands]
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(_orbit_class_keys(pairs)):
        groups.setdefault(key, []).append(i)

    branches = []
    for idx, key in enumerate(sorted(groups), start=1):
        members = [spec.summands[i] for i in groups[key]]
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
        p0, rep = pairs[groups[key][0]]
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


@dataclass(frozen=True)
class RoundTripReport:
    """Outcome of a round trip.  ``matched``, ``missing`` and ``extra`` hold
    ``(ramification, alpha, rank)`` entries, alpha primitive: ``matched``
    names each computed factor that matched an element of a spec orbit,
    ``missing`` a spec summand once per unmatched element of its orbit,
    ``extra`` an unmatched computed factor once."""

    ok: bool
    spec_ramification: int
    computed_ramification: int
    matched: tuple[tuple[int, LaurentPoly, int], ...] = ()
    missing: tuple[tuple[int, LaurentPoly, int], ...] = ()
    extra: tuple[tuple[int, LaurentPoly, int], ...] = ()
    conflicts: tuple[str, ...] = ()
    decomposition: FormalDecomposition | None = None


def roundtrip_check(spec: FormalModuleSpec) -> RoundTripReport:
    """Compare decompose(realize(spec)) with the orbit closure of the spec.

    Both sides are mapped to canonical classes (primitive pair, orbit, rank,
    charpoly) counted with multiplicity; mismatches are reported, never
    raised.  A spec whose summands cannot be consistently orbit-closed is
    reported as a conflict.
    """
    try:
        branches = realize(spec)
    except NormalizationConflictError as err:
        return RoundTripReport(
            ok=False, spec_ramification=spec.p, computed_ramification=0,
            conflicts=(str(err),),
        )

    dec = decompose(branches)

    # Each side in primitive form once, at its own ramification: the
    # computed one divides the declared one, and the primitive form does not
    # depend on the scale.  Key both sides together, so each orbit is closed
    # once.
    spec_pairs = [canonicalize(spec.p, s.alpha) for s in spec.summands]
    got_pairs = [canonicalize(dec.p, f.alpha) for f in dec.factors]
    all_keys = _orbit_class_keys(spec_pairs + got_pairs)
    spec_keys = all_keys[:len(spec_pairs)]
    got_keys = all_keys[len(spec_pairs):]

    # The orbit closure of the spec is a union: summands sharing an orbit
    # contribute that orbit once (realize already checked consistency), as
    # many entries as its key has elements.
    first: dict[tuple, tuple] = {}
    for key, (p0, a0), s in zip(spec_keys, spec_pairs, spec.summands):
        first.setdefault(key, (key, p0, a0, s.rank, s.charpoly))
    spec_entries = [entry for key, entry in first.items() for _ in key[1]]

    matched, missing = [], []
    remaining = [(key, p0, a0, f.rank_branchwise, f.charpoly)
                 for key, (p0, a0), f in zip(got_keys, got_pairs, dec.factors)]
    for key, p0, a0, rank, cp in spec_entries:
        hit = next((i for i, other in enumerate(remaining)
                    if other[0] == key and other[3] == rank and other[4] == cp), None)
        if hit is None:
            missing.append((p0, a0, rank))
        else:
            matched.append(remaining.pop(hit)[1:4])
    extra = [(p0, a0, rank) for (_, p0, a0, rank, _cp) in remaining]

    return RoundTripReport(
        ok=not missing and not extra,
        spec_ramification=spec.p,
        computed_ramification=dec.p,
        matched=tuple(matched),
        missing=tuple(missing),
        extra=tuple(extra),
        decomposition=dec,
    )
