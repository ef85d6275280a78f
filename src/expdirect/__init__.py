"""Exact formal invariants of direct images of exponential-type differential
modules, computed from finite branch-germ data.

The pipeline: branch data -> Newton polygon (slopes, irregularity) and the
formal decomposition after ramification (exponential factors, ranks,
monodromy characteristic polynomials), cross-checked by an independent
blow-up resolution oracle and a realization round trip.  All arithmetic is
exact, over the union of the cyclotomic fields.
"""

from .branch import Branch, UnramifiedBranch, ramification_order, unramify, validate
from .cyclotomic import CycloNum, CycloPoly
from .decomposition import ExponentialFactor, FormalDecomposition, decompose
from .laurent import LaurentPoly, subst_root_power
from .newton import (
    NewtonPolygon,
    irregularity,
    polygon_from_branches,
    slopes,
)
from .realization import (
    FormalModuleSpec,
    FormalSummand,
    canonicalize,
    realize,
    roundtrip_check,
)
from .resolution import (
    CopySeries,
    ResolutionTree,
    build_resolution,
    strict_transform,
    verify_corollary,
    verify_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "Branch", "UnramifiedBranch", "ramification_order", "unramify", "validate",
    "CycloNum", "CycloPoly",
    "ExponentialFactor", "FormalDecomposition", "decompose",
    "LaurentPoly", "subst_root_power",
    "NewtonPolygon", "irregularity", "polygon_from_branches", "slopes",
    "FormalModuleSpec", "FormalSummand", "canonicalize", "realize",
    "roundtrip_check",
    "CopySeries", "ResolutionTree", "build_resolution", "strict_transform",
    "verify_corollary", "verify_decomposition",
]
