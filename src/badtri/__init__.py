"""Exact verification and tiling toolkit for badly approximable triangles."""

import importlib

from .quadfield import QuadRat, sqrt2, sqrt3
from .cf import (
    FiniteCF,
    PeriodicCF,
    Cylinder,
    expand_quadratic,
    gauss_map,
    one_minus,
    cf_compare,
    bad_class,
    in_bad_class,
    expand_real,
    parse_cf,
    format_cf,
)
from .theorems import (
    ForbiddenPattern,
    forbidden_interval,
    excludes_b2,
    CaseRow,
    table_rows,
    verify_case_row,
    verify_case21_symbolic,
    verify_tables,
    SolutionTriple,
    MAIN_SOLUTIONS,
    MAIN2_SOLUTIONS,
    B22_SOLUTIONS,
    check_sum,
    insertion,
    extra_identity,
    generate_solutions,
    scalene_family,
    search_triples,
)
# The geometry layer needs numpy and scipy; its names load on first use
# (PEP 562), so the exact layer imports without them.
_LAZY = {
    "gifs": (
        "Angles",
        "PRESETS",
        "DerivedConstants",
        "Similitude",
        "Prototile",
        "TileInstance",
        "Patch",
        "Gifs",
        "derive_constants",
        "build_prototiles",
        "build_gifs",
        "closure_report",
        "subdivide",
        "epsilon_rule",
        "stationary_sequence",
        "stationary_nesting_ok",
        "orientation_angles",
        "patch_to_json",
    ),
    "delone": (
        "PointSet",
        "DiskRegion",
        "ConvexRegion",
        "patch_region",
        "delone_radii",
        "check_uniform_discrete",
        "check_relatively_dense",
        "chabauty_fell_distance",
        "restricted_convergence_check",
        "star_discrepancy",
        "orientation_discrepancy",
        "analysis_report",
    ),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_MODULE))


__version__ = "0.1.0"
