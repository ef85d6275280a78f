"""Local branch data of the singular support and its unramification.

A Branch records one irreducible local component through finite data: the
two intersection multiplicities (p, q), the polar and truncated holomorphic
parts of its parametrization, the conormal multiplicity m, and the monic
characteristic polynomial of the attached monodromy.  ``unramify`` passes to
the common ramification order p, splitting each branch into p_l copies indexed
by p_l-th roots of unity.  It is the one place where a branch is rewritten in
the ramified variable: both the formal decomposition and the blow-up oracle
read the copies it returns.  A copy carries its polar part twisted by its
root and the constant term of its holomorphic part, which the twist leaves
as it is.  Nothing reads more of the holomorphic part: the oracle's series
depends on these two alone as far as it is read (``resolution.CopySeries``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .cyclotomic import CycloNum, CycloPoly
from .laurent import LaurentPoly, subst_root_power, support_gcd

__all__ = [
    "Branch",
    "UnramifiedBranch",
    "ValidationReport",
    "ValidationError",
    "validate",
    "ramification_order",
    "unramify",
]


class ValidationError(ValueError):
    """Branch data violates a hard invariant."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        super().__init__("; ".join(report.errors))


@dataclass(frozen=True)
class Branch:
    label: str
    p: int
    q: int
    alpha: LaurentPoly
    delta: LaurentPoly
    m: int
    zeta: CycloPoly


@dataclass(frozen=True)
class UnramifiedBranch:
    """One root-of-unity copy of a branch after the common ramification.

    ``alpha_sub`` is the polar part rewritten in the ramified variable, by
    t -> zeta_{p_l}^i t^(p/p_l) with i the root index.  ``delta0`` is the
    constant term of the holomorphic part, which the substitution leaves as
    it is.
    """

    label: str
    root_index: int
    alpha_sub: LaurentPoly
    delta0: CycloNum
    m: int
    zeta: CycloPoly

    @property
    def origin(self) -> tuple[str, int]:
        return (self.label, self.root_index)


@dataclass(frozen=True)
class ValidationReport:
    label: str
    errors: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()
    support_divisor: int = 1

    @property
    def valid(self) -> bool:
        return not self.errors


def validate(b: Branch, truncation: int | None = None) -> ValidationReport:
    """Check all Branch invariants; warnings do not invalidate.

    ``truncation`` is the declared exactness order of the holomorphic part,
    which bounds its support; None declares none, and skips that bound.

    The support divisor d = gcd(p, exponents of alpha and delta) is reported,
    with a warning when d > 1: the parametrization is then either
    non-primitive or its holomorphic part is truncated too early to tell.
    """
    errors: list[str] = []
    warnings: list[str] = []

    if b.p < 1:
        errors.append(f"p must be >= 1, got {b.p} (vertical components are not representable)")
    if b.q < 1:
        errors.append(f"q must be >= 1, got {b.q} (horizontal components are not representable)")
    if b.m < 1:
        errors.append(f"m must be >= 1, got {b.m}")

    if b.q >= 1:
        if b.alpha.coeff(-b.q).is_zero():
            errors.append(f"alpha must have a nonzero coefficient at exponent {-b.q}")
        if any(e < -b.q or e >= 0 for e in b.alpha.terms):
            errors.append(f"alpha support must lie in [{-b.q}, -1]")
    if any(e < 0 for e in b.delta.terms):
        errors.append("delta must have no negative exponents")
    if truncation is not None and any(e > truncation for e in b.delta.terms):
        errors.append(f"delta support exceeds the declared truncation {truncation}")

    if not b.zeta.is_monic():
        errors.append("zeta must be monic")
    elif b.zeta.degree != b.m:
        errors.append(f"deg(zeta) = {b.zeta.degree} must equal m = {b.m}")

    d = gcd(support_gcd(b.alpha, b.p), support_gcd(b.delta, 0))
    if not errors and d > 1:
        warnings.append(
            f"support divisor {d} > 1: parametrization may be non-primitive "
            "or delta truncated too early"
        )

    return ValidationReport(
        label=b.label,
        errors=tuple(errors),
        warnings=tuple(warnings),
        support_divisor=d if not errors else 1,
    )


def validate_all(branches, truncation: int | None = None) -> list[ValidationReport]:
    reports = [validate(b, truncation) for b in branches]
    labels = [b.label for b in branches]
    if len(set(labels)) != len(labels):
        dupes = sorted({x for x in labels if labels.count(x) > 1})
        reports.append(ValidationReport(
            label=",".join(dupes), errors=(f"duplicate branch labels: {dupes}",),
        ))
    return reports


class _ValidBranches(tuple):
    """Branches ``validate_all`` found no error in, at the declared
    truncation, as the CLI wraps them once it has checked them: ``decompose``,
    which validates any other input itself, does not check them again."""


def ramification_order(branches) -> int:
    """Least common multiple of the branch ramification indices p_l."""
    branches = list(branches)
    if not branches:
        raise ValueError("ramification order of an empty branch list")
    return lcm(*(b.p for b in branches))


def unramify(branches) -> list[UnramifiedBranch]:
    """Split each branch into its root-of-unity copies at the lcm ramification.

    Branch l yields p_l copies; copy i substitutes t -> zeta_{p_l}^i t^(p/p_l)
    in alpha.  Every copy keeps the constant term delta0 of delta, taken once
    per branch; the rest of delta is not carried, since the oracle reads a
    copy's series only as far as alpha and delta0 decide it.  Multiplicity
    and monodromy polynomial transport unchanged.
    """
    branches = list(branches)
    if not branches:
        return []
    p = ramification_order(branches)
    out: list[UnramifiedBranch] = []
    for b in branches:
        k = p // b.p
        delta0 = b.delta.coeff(0)
        for i in range(1, b.p + 1):
            out.append(UnramifiedBranch(
                label=b.label,
                root_index=i,
                alpha_sub=subst_root_power(b.alpha, b.p, i, k),
                delta0=delta0,
                m=b.m,
                zeta=b.zeta,
            ))
    return out
