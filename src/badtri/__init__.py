"""Exact verification and tiling toolkit for badly approximable triangles.

The package exports each module's ``__all__``.
"""

import importlib

from . import cf, quadfield, theorems
from .quadfield import *
from .cf import *
from .theorems import *


# The geometry layer needs numpy, so gifs and delone load on the
# first public name, __all__ or dir() asked of the package (PEP 562), and
# the exact layer imports without them.
def _load_geometry():
    names = [*quadfield.__all__, *cf.__all__, *theorems.__all__]
    for stem in ("gifs", "delone"):
        module = importlib.import_module(f".{stem}", __name__)
        names += module.__all__
        globals().update((name, getattr(module, name)) for name in module.__all__)
    globals()["__all__"] = names


def __getattr__(name):
    if name == "__all__" or not name.startswith("_"):
        _load_geometry()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    _load_geometry()
    return sorted(globals())


__version__ = "0.1.0"
