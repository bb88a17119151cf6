"""sheafloci: exact fibre-wise analysis of singular-sheaf loci.

For plane curves of degree d >= 4 and point schemes of length
(d-1)(d-2)/2, this package computes, entirely in exact rational
arithmetic, the linear subspaces of curves whose associated sheaf is
singular at a prescribed point, their codimensions and intersections,
the Kronecker-module (linear syzygy) resolution machinery behind them,
and local-freeness tests for ideals of simple and fat curvilinear
points on curve germs.

Importing the package loads none of its modules: each public name is
imported from its home module on first access (PEP 562).  Every
``sheafloci`` command is a fresh process that compiles the modules it
loads, so a command pays only for the modules it runs.
"""

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    "ConfigError": "errors",
    "DegenerateError": "errors",
    "GenericityError": "errors",
    "NotInFibreError": "errors",
    "ParseError": "errors",
    "ShapeError": "errors",
    "SheafLociError": "errors",
    "QMatrix": "exactalg",
    "IdealResolution": "kronecker",
    "KroneckerModule": "kronecker",
    "SheafMatrix": "kronecker",
    "curve_from_pair": "kronecker",
    "injectivity_check": "kronecker",
    "kronecker_from_points": "kronecker",
    "maximal_minors": "kronecker",
    "pair_from_curve": "kronecker",
    "resolution_check": "kronecker",
    "stability_sufficient": "kronecker",
    "Fibre": "linsys",
    "ProjSubspace": "linsys",
    "fibre": "linsys",
    "CurveGerm": "localfree",
    "FatIdealData": "localfree",
    "fat_ideal_free": "localfree",
    "germ_at_fat_point": "localfree",
    "jet_principality_oracle": "localfree",
    "u_at_zero": "localfree",
    "HomPoly": "poly",
    "LocalPoly": "poly",
    "parse_homogeneous": "poly",
    "parse_local": "poly",
    "SplitMix64": "rng",
    "FatPoint": "schemes",
    "PointConfig": "schemes",
    "SimplePoint": "schemes",
    "expected_length": "schemes",
    "membership_conditions": "schemes",
    "random_config": "schemes",
    "SingularLocusReport": "singloci",
    "asserted_violations": "singloci",
    "classify_curve": "singloci",
    "impose_singularities": "singloci",
    "locus_report": "singloci",
    "normal_space_dim": "singloci",
    "singular_conditions": "singloci",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # imported here so that the package namespace holds only public names
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
