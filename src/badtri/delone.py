"""Delone-parameter certification and Chabauty-Fell distances.

Uniform discreteness is decided exactly, by the closest pair.  Relative
denseness follows from the tiling (Baake & Grimm, Aperiodic Order vol. 1,
2013, section 2.1): every point of a patch's footprint lies in a tile, so
it is within that tile's centroid-to-vertex reach of a point.  That holds
for a patch its system builds, so a report rebuilds the patch
(gifs._rebuilds) and bounds R by the largest reach plus the build's
splitting and rounding error; a hand-edited patch gets no R.  The
Chabauty-Fell distances from a patch to its cuts to balls about the
origin are measured values, reported beside gifs' orientation discrepancy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .gifs import _rebuilds, closure_report, orientation_discrepancy

__all__ = [
    "PointSet",
    "delone_radii",
    "UniformDiscreteResult",
    "check_uniform_discrete",
    "analysis_report",
]


class PointSet:
    """A finite planar point set; equal points (0.0 == -0.0) are rejected.

    The points are read-only, so the KD-tree over them is built once, on
    first use, and shared by every query.
    """

    def __init__(self, points):
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        # complex sorts by real, then imaginary part, so equal points end adjacent
        keys = np.sort(pts[:, 0] + 1j * pts[:, 1])
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate points")
        pts.flags.writeable = False
        self.points = pts

    def __len__(self):
        return len(self.points)

    @functools.cached_property
    def tree(self):
        return cKDTree(self.points)


def delone_radii(gifs):
    """(r, R) certified for every patch of this system: r = sqrt(a_min)*r0."""
    t1, t2 = gifs.prototiles
    r0 = min(t1.r0, t2.r0)
    R0 = max(t1.R0, t2.R0)
    return math.sqrt(gifs.a_min) * r0, R0


@dataclass(frozen=True)
class UniformDiscreteResult:
    status: str  # "certified" | "violation"
    pair: tuple | None
    min_distance: float


def check_uniform_discrete(ps, r):
    """Exact: certified iff the minimum pairwise distance is >= 2r.

    Two points closer than 2r both lie in the open r-ball around their
    midpoint; at distance >= 2r no open r-ball holds both.

    The check needs no premise on the coordinates' range: a coordinate
    difference is one rounded subtraction, so each distance is the exact
    distance of the stored points to within a few ulps, relatively.  A
    patch placed far from the origin has its points rounded as they are
    placed, and the verdict is then the one for those rounded points,
    unless their least distance lies within those few ulps of 2r.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if len(ps) < 2:
        return UniformDiscreteResult("certified", None, math.inf)
    d, idx = ps.tree.query(ps.points, k=2)
    i = int(np.argmin(d[:, 1]))
    dmin = float(d[i, 1])
    if dmin >= 2 * r:
        return UniformDiscreteResult("certified", None, dmin)
    return UniformDiscreteResult("violation", (i, int(idx[i, 1])), dmin)


def _cut_distances(ps, radii):
    """The Chabauty-Fell distance from ps to each cut ps ∩ B(0, R), from
    one pass of norms.

    A point p of one set, at distance delta_p from the other, passes the
    windowed predicate exactly when eps >= delta_p or eps > 1/|p|, so the
    distance is the largest term min(delta_p, 1/|p|) over both sets,
    capped at 1 (delta_p = inf against an empty set).  A point in the cut
    is in both sets, with delta_p = 0, so only the points outside the cut
    count, each queried in the cut's KD-tree.  A term is at most 1/|p|:
    after the term w of the outside point nearest 0, only the points with
    1/|p| > w can exceed it, and only they are queried.
    """
    norms = np.linalg.norm(ps.points, axis=1)
    out = []
    for radius in radii:
        inside = norms <= radius
        far, inv = ps.points[~inside], 1.0 / norms[~inside]
        w = 0.0
        if len(far):
            tree = cKDTree(ps.points[inside])  # an empty tree gives inf
            first = int(np.argmax(inv))
            w = min(float(tree.query(far[first])[0]), float(inv[first]))
            rest = inv > w
            if rest.any():
                w = max(w, float(np.minimum(tree.query(far[rest])[0], inv[rest]).max()))
        out.append(min(1.0, w))
    return out


def _covering_bound(patch):
    """reach + eta: no point of the footprint of a patch its system builds
    (the start prototile under the build's root pose, inflated by
    lam = epsilon**-0.5) is farther than this from the patch's points.

    reach, the largest distance from a tile's vertex to its centroid, is
    read off patch.vertices and patch.points: a triangle lies in the disc
    of that radius about its centroid.  eta bounds how far a point of the
    footprint can be from every tile, with D the greatest tile depth:

    - splitting, 2*delta*lam*D.  _SPLIT splits a parent at its corners and
      at one point strictly inside each edge (closure_report checks this),
      so ideal children with their vertices on those points tile it
      exactly.  Each child vertex is within 2*delta of its ideal point
      (within delta of a sibling's vertex there, and that one within delta
      of the edge line), so each point of an ideal child, a convex
      combination of its vertices, is within 2*delta of the child's same
      combination: 2*delta*s for a parent of scale s <= 1, and over D
      levels, after inflation, at most 2*delta*lam*D.
    - rounding, 32*u*size*(D + 3), u = 2**-53, with size lam times the
      prototiles' largest coordinate (which bounds every coordinate before
      inflation) plus the patch's.  Each _compose rounds a translation (cos,
      sin, four products, two sums) and an angle below 4*pi, which turns
      the subtree inside its tile by a few ulps: it puts a point within 32
      ulps of size of the exact composition, as do the inflation (or the
      stationary turn and shift), the last _place and reach's own rounding.
    """
    gifs, depth = patch.gifs, int(patch.tiles["depth"].max())
    reach = float(np.sqrt(((patch.vertices - patch.points[:, None]) ** 2).sum(axis=2)).max())
    lam = patch.epsilon**-0.5
    size = lam * max(float(np.abs(p.vertices).max()) for p in gifs.prototiles)
    size += float(np.abs(patch.vertices).max())
    eta = 2 * closure_report(gifs)["delta"] * lam * depth + 32 * 2.0**-53 * size * (depth + 3)
    return reach + eta


def analysis_report(patch):
    """Full Delone/metric/discrepancy report for one patch, JSON-shaped.

    r is certified by the closest pair.  R is certified for a patch its
    system rebuilds whose _covering_bound is at most R; otherwise the
    report adds R_reason, which says which of the two failed.
    cf_distances holds the Chabauty-Fell distance from the patch's point
    set A to its cut A ∩ B(0, R), for R = 5, 10 and 20.
    """
    ps = PointSet(patch.points)
    r, big_r = delone_radii(patch.gifs)
    ud = check_uniform_discrete(ps, r)
    if not _rebuilds(patch):
        reason = "not a patch this system builds"
    elif _covering_bound(patch) > big_r:
        reason = "largest tile reach plus rounding bound exceeds R"
    else:
        reason = None
    n, dstar = orientation_discrepancy(patch)
    report = {
        "r_certified": ud.status == "certified",
        "R_certified": reason is None,
        "r": r,
        "R": big_r,
        "cf_distances": _cut_distances(ps, (5, 10, 20)),
        "discrepancy": {"N": n, "Dstar": dstar},
    }
    if reason is not None:
        report["R_reason"] = reason
    return report
