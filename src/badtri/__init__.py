"""Exact verification and tiling toolkit for badly approximable triangles.

The package exports each module's ``__all__``.
"""

import importlib

from . import cf, quadfield, theorems
from .quadfield import *
from .cf import *
from .theorems import *

# The geometry layer needs numpy and scipy; its names load on first use
# (PEP 562), so the exact layer imports without them.  Each tuple repeats
# its module's __all__, which tests/test_source.py checks.
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
        "recurs_in",
        "stationary_nesting_ok",
        "orientation_angles",
        "patch_doc",
        "patch_to_json",
        "patch_from_doc",
    ),
    "delone": (
        "PointSet",
        "ConvexRegion",
        "patch_region",
        "delone_radii",
        "UniformDiscreteResult",
        "CoveringResult",
        "check_uniform_discrete",
        "check_covering_radius",
        "chabauty_fell_distance",
        "cf_distance_brute",
        "restricted_convergence_check",
        "star_discrepancy",
        "star_discrepancy_brute",
        "orientation_discrepancy",
        "analysis_report",
    ),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [*quadfield.__all__, *cf.__all__, *theorems.__all__, *_LAZY_MODULE]


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
