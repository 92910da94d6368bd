"""Delone-parameter certification and Chabauty-Fell distances.

Point sets produced by the tiling engine are finite, so each certificate
here is an exact reduction over a finite candidate set: uniform
discreteness from the closest pair, and relative denseness from the
covering radius over the convex hull of a patch, which peaks at a
Voronoi vertex, a hull vertex or a Voronoi edge's crossing of the hull
boundary.  The Chabauty-Fell distance between finite sets is a measured
value, not a verdict: its closed form takes one nearest-neighbour query
per set, and a patch's report gives it from the patch to its cuts to
balls about the origin, beside the orientation discrepancy from gifs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, Delaunay, QhullError, cKDTree

from .gifs import orientation_discrepancy

__all__ = [
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

    def restrict(self, radius):
        """Points within the closed ball of the given radius about 0."""
        return PointSet(self.points[np.linalg.norm(self.points, axis=1) <= radius])


# a point is in a region when its excess is at most this (Region.contains)
_INSIDE_TOL = 1e-12


class ConvexRegion:
    """Closed convex hull of a point set, e.g. of a patch's tile vertices."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        try:
            hull = ConvexHull(pts)
        except (QhullError, ValueError) as exc:
            raise ValueError("region empty") from exc
        self.vertices = pts[hull.vertices]
        # rows (n_x, n_y, c) with unit outward normal n: n.p + c <= 0 inside
        self.equations = hull.equations

    def excess(self, pts):
        """Largest signed distance past an edge line: <= 0 inside, and
        outside positive but at most the distance to the region."""
        eq = self.equations
        return (np.atleast_2d(pts) @ eq[:, :2].T + eq[:, 2]).max(axis=1)

    def contains(self, pts):
        return self.excess(pts) <= _INSIDE_TOL


def patch_region(patch):
    """Convex hull of the tile vertices, a superset of the footprint.

    Epsilon-rule and stationary patches tile one prototile image, so for them
    the hull is the footprint itself.
    """
    return ConvexRegion(patch.vertices)


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


# location error of a covering candidate; see check_covering_radius
_TAU = 1e-9


@dataclass(frozen=True)
class CoveringResult:
    status: str  # "certified" | "counterexample" | "inconclusive"
    witness: tuple | None
    radius: float


def _covering_candidates(pts, region):
    """Every point where the distance to pts can peak on a convex region.

    On a Voronoi cell the distance is convex, so it peaks at a Voronoi
    vertex (a Delaunay circumcentre), a region vertex, or a crossing of a
    region edge with a Voronoi edge: the part of a Delaunay edge pq's
    bisector where w1 and w2, the vertices facing pq, are no nearer than p.
    """
    try:
        tri = Delaunay(pts)
    except QhullError:
        # under 3 points, or all on one line: there are no Voronoi
        # vertices, and the Voronoi edges bisect neighbours along the line
        axis = np.linalg.svd(pts - pts.mean(axis=0), full_matrices=False)[2][0]
        order = np.argsort(pts @ axis)
        p, q = pts[order[:-1]], pts[order[1:]]
        w1 = w2 = p  # w = p bounds nothing
        centres = np.empty((0, 2))
    else:
        simp, nbr = tri.simplices, tri.neighbors
        # every Voronoi vertex is the circumcentre of a non-flat triangle
        a, b, c = (pts[simp[:, k]] for k in range(3))
        b, c = b - a, c - a
        det = 2 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
        keep = det != 0
        a, b, c, det = a[keep], b[keep], c[keep], det[keep]
        b2, c2 = (b**2).sum(axis=1), (c**2).sum(axis=1)
        centres = a + np.column_stack(
            [c[:, 1] * b2 - b[:, 1] * c2, b[:, 0] * c2 - c[:, 0] * b2]
        ) / det[:, None]
        # the edge facing vertex k of triangle s, once: from its lower
        # triangle, or from its only one on the hull (nbr = -1)
        s, k = np.divmod(np.arange(simp.size), 3)
        n = nbr[s, k]
        once = (n < 0) | (s < n)
        s, k, n = s[once], k[once], n[once]
        i = simp[s, (k + 1) % 3]
        p, q, w1 = pts[i], pts[simp[s, (k + 2) % 3]], pts[simp[s, k]]
        w2 = pts[np.where(n < 0, i, simp[n, np.argmax(nbr[n] == s[:, None], axis=1)])]
    normal, mid = q - p, (p + q) / 2
    cands = [centres, region.vertices]
    for v0, v1 in zip(region.vertices, np.roll(region.vertices, -1, axis=0)):
        # v0 + t (v1 - v0) on the bisector {x : normal . (x - mid) = 0}
        with np.errstate(divide="ignore", invalid="ignore"):
            t = ((mid - v0) * normal).sum(axis=1) / (normal @ (v1 - v0))
        on = (t >= 0) & (t <= 1)
        x = v0 + t[on, None] * (v1 - v0)
        keep = np.ones(len(x), dtype=bool)
        for w in (w1[on], w2[on]):  # x within _TAU of p's side of the w-p bisector
            pw = w - p[on]
            keep &= ((x - (p[on] + w) / 2) * pw).sum(axis=1) <= _TAU * np.linalg.norm(pw, axis=1)
        cands.append(x[keep])
    return np.concatenate(cands)


def check_covering_radius(ps, R, region):
    """Is every point of a convex region within R of the set?

    One KD-tree query gives the true distance at each candidate.  One in
    the region farther than R is a counterexample.  The set is certified
    when `radius`, the largest distance over candidates with excess <= tau,
    plus tau is at most R: distance and excess are 1-Lipschitz, so this is
    sound while tau bounds each candidate's location error.  A candidate
    solves a 2x2 system relative to a defining point, so its error is about
    8u(|x| + k*rho) (u = 2**-53, size |x|, distance rho to that point,
    condition number k), and tau = 1e-9 covers |x| + k*rho up to 10**6.
    Patches under gifs.MAX_EPSILON_TILES have |x| < 10**4; a Delaunay
    triangle with sides >= 2r and circumradius rho has k <= 16(rho/2r)**3,
    which for the preset systems (r > 0.15) covers every rho below 6, six
    times R; a crossing has k = 1/sin of the angle between its two lines.
    Anything else is inconclusive.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    if len(ps) == 0:
        raise ValueError("empty point set")
    cands = _covering_candidates(ps.points, region)
    dist = ps.tree.query(cands)[0]
    excess = region.excess(cands)
    radius = float(dist[excess <= _TAU].max())
    inside = np.where(excess <= _INSIDE_TOL, dist, -math.inf)
    k = int(np.argmax(inside))
    if inside[k] > R:
        return CoveringResult("counterexample", tuple(cands[k].tolist()), radius)
    if radius + _TAU <= R:
        return CoveringResult("certified", None, radius)
    return CoveringResult("inconclusive", None, radius)


def _cf_predicate(a_pts, a_norms, b_pts, b_norms, eps):
    """A within the 1/eps window is eps-covered by B, and vice versa."""
    window = 1.0 / eps
    for s_pts, s_norms, t_pts in (
        (a_pts, a_norms, b_pts),
        (b_pts, b_norms, a_pts),
    ):
        sel = s_pts[s_norms <= window]
        if len(sel) == 0:
            continue
        if len(t_pts) == 0:
            return False
        diff = sel[:, None, :] - t_pts[None, :, :]
        dmin = np.sqrt((diff**2).sum(axis=2)).min(axis=1)
        if float(dmin.max()) > eps:
            return False
    return True


def chabauty_fell_distance(a, b):
    """Exact Chabauty-Fell distance between finite sets, capped at 1.

    A point p of one set, at distance delta_p from the other, passes the
    windowed predicate exactly when eps >= delta_p or eps > 1/|p|.  So the
    infimum is the largest min(delta_p, 1/|p|) over both sets, with
    1/0 = inf and delta_p = inf against an empty set.  An argument that
    is not a PointSet is read as one, so it must hold distinct finite
    points; each set's points are queried in the other set's KD-tree,
    which that set builds once.
    """
    a, b = (s if isinstance(s, PointSet) else PointSet(s) for s in (a, b))
    worst = 0.0
    for s, t in ((a, b), (b, a)):
        if len(s) == 0:
            continue
        delta = t.tree.query(s.points)[0] if len(t) else math.inf
        with np.errstate(divide="ignore"):
            inv_norm = 1.0 / np.linalg.norm(s.points, axis=1)
        worst = max(worst, float(np.minimum(delta, inv_norm).max()))
    return min(1.0, worst)


def cf_distance_brute(a, b):
    """Exact infimum by probing between the epsilons where the predicate flips.

    Flips happen where the fattening crosses a pair distance (a closed
    flip, true at the candidate) or where the window crosses a point norm
    (an open flip, true only strictly above it); either way the infimum
    is a candidate value, located by testing the open interval above each.
    """
    a_pts = a.points if isinstance(a, PointSet) else np.asarray(a, float).reshape(-1, 2)
    b_pts = b.points if isinstance(b, PointSet) else np.asarray(b, float).reshape(-1, 2)
    a_norms = np.linalg.norm(a_pts, axis=1)
    b_norms = np.linalg.norm(b_pts, axis=1)
    cands = set()
    if len(a_pts) and len(b_pts):
        diff = a_pts[:, None, :] - b_pts[None, :, :]
        cands.update(np.sqrt((diff**2).sum(axis=2)).ravel().tolist())
    for n in np.concatenate([a_norms, b_norms]):
        if n > 0:
            cands.add(1.0 / float(n))
    cands = sorted(x for x in cands if 0 < x < 1.0)
    edges = [0.0] + cands + [1.0]
    for lo, hi in zip(edges, edges[1:]):
        if _cf_predicate(a_pts, a_norms, b_pts, b_norms, (lo + hi) / 2):
            return lo
    return 1.0


def analysis_report(patch):
    """Full Delone/metric/discrepancy report for one patch, JSON-shaped.

    cf_distances holds the Chabauty-Fell distance from the patch's point set
    A to its cut A ∩ B(0, R), for R = 5, 10 and 20.
    """
    ps = PointSet(patch.points)
    r, big_r = delone_radii(patch.gifs)
    ud = check_uniform_discrete(ps, r)
    rd = check_covering_radius(ps, big_r, patch_region(patch))
    n, dstar = orientation_discrepancy(patch)
    return {
        "r_certified": ud.status == "certified",
        "R_certified": rd.status == "certified",
        "r": r,
        "R": big_r,
        "cf_distances": [chabauty_fell_distance(ps, ps.restrict(radius)) for radius in (5, 10, 20)],
        "discrepancy": {"N": n, "Dstar": dstar},
    }
