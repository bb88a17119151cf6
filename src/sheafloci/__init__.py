"""sheafloci: exact fibre-wise analysis of singular-sheaf loci.

For plane curves of degree d >= 4 and point schemes of length
(d-1)(d-2)/2, this package computes, entirely in exact rational
arithmetic, the linear subspaces of curves whose associated sheaf is
singular at a prescribed point, their codimensions and intersections,
the Kronecker-module (linear syzygy) resolution machinery behind them,
and local-freeness tests for ideals of simple and fat curvilinear
points on curve germs.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateError,
    GenericityError,
    NotInFibreError,
    ParseError,
    ShapeError,
    SheafLociError,
)
from .exactalg import QMatrix, Rational, rat_from_str, rat_to_str
from .kronecker import (
    IdealResolution,
    KroneckerModule,
    SheafMatrix,
    curve_from_pair,
    injectivity_check,
    kronecker_from_points,
    maximal_minors,
    pair_from_curve,
    resolution_check,
    stability_sufficient,
)
from .linsys import Fibre, ProjSubspace, fibre
from .localfree import (
    CurveGerm,
    FatIdealData,
    fat_ideal_free,
    germ_at_fat_point,
    jet_principality_oracle,
    maximal_ideal_free,
    u_at_zero,
)
from .poly import HomPoly, LocalPoly, parse, parse_homogeneous, parse_local
from .rng import SplitMix64
from .schemes import (
    FatPoint,
    PointConfig,
    SimplePoint,
    expected_length,
    membership_conditions,
    random_config,
)
from .singloci import (
    SingularLocusReport,
    asserted_violations,
    classify_curve,
    impose_singularities,
    locus_report,
    normal_space_dim,
    singular_conditions,
)

__all__ = [
    "CurveGerm",
    "ConfigError",
    "DegenerateError",
    "FatIdealData",
    "FatPoint",
    "Fibre",
    "GenericityError",
    "HomPoly",
    "IdealResolution",
    "KroneckerModule",
    "LocalPoly",
    "NotInFibreError",
    "ParseError",
    "PointConfig",
    "ProjSubspace",
    "QMatrix",
    "Rational",
    "ShapeError",
    "SheafLociError",
    "SheafMatrix",
    "SimplePoint",
    "SingularLocusReport",
    "SplitMix64",
    "asserted_violations",
    "classify_curve",
    "curve_from_pair",
    "expected_length",
    "fat_ideal_free",
    "fibre",
    "germ_at_fat_point",
    "impose_singularities",
    "injectivity_check",
    "jet_principality_oracle",
    "kronecker_from_points",
    "locus_report",
    "maximal_ideal_free",
    "maximal_minors",
    "membership_conditions",
    "normal_space_dim",
    "pair_from_curve",
    "parse",
    "parse_homogeneous",
    "parse_local",
    "rat_from_str",
    "rat_to_str",
    "random_config",
    "resolution_check",
    "singular_conditions",
    "stability_sufficient",
    "u_at_zero",
]
