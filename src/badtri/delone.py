"""Delone-parameter certification and Chabauty-Fell distances.

Point sets produced by the tiling engine are finite, so each certificate
here is an exact reduction over a finite candidate set: uniform
discreteness from the closest pair, and relative denseness from the
covering radius over the convex hull of a patch, which peaks at a
Voronoi vertex, a hull vertex or a Voronoi edge's crossing of the hull
boundary; one Delaunay triangulation gives the candidates and a bound on
each one's distance, so only the few that could decide the verdict are
looked up in the KD-tree.  The Chabauty-Fell distance is a measured
value, not a verdict: a patch's report gives it from the patch to its
cuts to balls about the origin, beside the orientation discrepancy from
gifs.
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


# a counterexample lies in the region: its excess is at most this
_INSIDE_TOL = 1e-12


class ConvexRegion:
    """Closed convex hull of a point set, e.g. of a patch's tile vertices;
    ValueError, with qhull's reason, where qhull cannot build the hull."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        try:
            hull = ConvexHull(pts)
        except (QhullError, ValueError) as exc:
            n, reason = len(pts), str(exc).partition("\n")[0]  # qhull's first line: the failure
            raise ValueError(f"the convex hull of {n} points could not be built: {reason}") from exc
        self.vertices = pts[hull.vertices]
        # rows (n_x, n_y, c) with unit outward normal n: n.p + c <= 0 inside
        self.equations = hull.equations

    def excess(self, pts):
        """Largest signed distance past an edge line: <= 0 inside, and
        outside positive but at most the distance to the region."""
        eq = self.equations
        return (np.atleast_2d(pts) @ eq[:, :2].T + eq[:, 2]).max(axis=1)


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


# location error of a covering candidate, for points and region vertices
# of size |x| < _TAU_RANGE; see check_covering_radius
_TAU = 1e-9
_TAU_RANGE = 1e4


@dataclass(frozen=True)
class CoveringResult:
    status: str  # "certified" | "counterexample" | "inconclusive"
    witness: tuple | None
    radius: float


def _distance(x, y):
    """Row-wise distance, in the KD-tree's own arithmetic."""
    return np.sqrt(((x - y) ** 2).sum(axis=-1))


def _covering_candidates(pts, region):
    """Every point where the distance to pts can peak on a convex region,
    with a bound no smaller than its distance to pts, and whether qhull's
    triangulation holds every point: it leaves a point out as coplanar
    where rounding hides it, and then the candidates are those of the
    points it kept.  None where a simplex names qhull's point at infinity
    (index len(pts)).

    On a Voronoi cell the distance is convex, so it peaks at a Voronoi
    vertex (a Delaunay circumcentre), a region vertex, or a crossing of a
    region edge with a Voronoi edge: the part of a Delaunay edge pq's
    bisector where w1 and w2, the vertices facing pq, are no nearer than p.
    A circumcentre's bound is its least distance to its own triangle's
    vertices and a crossing's is its distance to p, each a distance to a
    point of pts; a region vertex has none (inf).

    Only edges whose Voronoi edge can leave the region are crossed with its
    boundary: those on the hull of pts, beside a flat triangle, or with a
    circumcentre whose excess exceeds -tau.  Any other pq has two computed
    circumcentres at least tau inside the region, and the true ones lie
    within tau of them (check_covering_radius), so inside it.  Its Voronoi
    edge is the segment between those two, inside the convex region too: it
    meets the boundary at most at an end, and each end is a candidate.
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
        centres, near, whole = np.empty((0, 2)), np.empty(0), True
    else:
        simp, nbr = tri.simplices, tri.neighbors
        if simp.max() >= len(pts):
            return None
        whole = len(tri.coplanar) == 0
        # every Voronoi vertex is the circumcentre of a non-flat triangle
        corners = pts[simp]
        a, b, c = corners[:, 0], corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]
        det = 2 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
        keep = det != 0
        a, b, c, det = a[keep], b[keep], c[keep], det[keep]
        b2, c2 = (b**2).sum(axis=1), (c**2).sum(axis=1)
        centres = a + np.column_stack(
            [c[:, 1] * b2 - b[:, 1] * c2, b[:, 0] * c2 - c[:, 0] * b2]
        ) / det[:, None]
        with np.errstate(over="ignore"):  # a sliver's far circumcentre: an infinite bound
            near = _distance(centres[:, None], corners[keep]).min(axis=1)
        shallow = ~keep
        shallow[keep] = region.excess(centres) > -_TAU
        # the edge facing vertex k of triangle s, once: from its lower
        # triangle, or from its only one on the hull (nbr = -1); crossed
        # only where its Voronoi edge can leave the region
        s, k = np.divmod(np.arange(simp.size), 3)
        n = nbr[s, k]
        cross = (n < 0) | ((s < n) & (shallow[s] | shallow[n]))
        s, k, n = s[cross], k[cross], n[cross]
        i = simp[s, (k + 1) % 3]
        p, q, w1 = pts[i], pts[simp[s, (k + 2) % 3]], pts[simp[s, k]]
        w2 = pts[np.where(n < 0, i, simp[n, np.argmax(nbr[n] == s[:, None], axis=1)])]
    normal, mid = q - p, (p + q) / 2
    cands, bound = [centres, region.vertices], [near, np.full(len(region.vertices), np.inf)]
    for v0, v1 in zip(region.vertices, np.roll(region.vertices, -1, axis=0)):
        # v0 + t (v1 - v0) on the bisector {x : normal . (x - mid) = 0}
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t = ((mid - v0) * normal).sum(axis=1) / (normal @ (v1 - v0))
        on = (t >= 0) & (t <= 1)
        x = v0 + t[on, None] * (v1 - v0)
        keep = np.ones(len(x), dtype=bool)
        for w in (w1[on], w2[on]):  # x within _TAU of p's side of the w-p bisector
            pw = w - p[on]
            keep &= ((x - (p[on] + w) / 2) * pw).sum(axis=1) <= _TAU * np.linalg.norm(pw, axis=1)
        cands.append(x[keep])
        bound.append(_distance(x[keep], p[on][keep]))
    return np.concatenate(cands), np.concatenate(bound), whole


def check_covering_radius(ps, R, region):
    """Is every point of a convex region within R of the set?

    Each candidate's distance is at most its bound, and equal to it where
    qhull's triangulation is Delaunay; rounding on near-degenerate sets can
    break that, so a bound alone never sets `radius`.  One KD-tree query
    gives the region vertices' distances; the largest with excess <= tau is
    a floor under the answer.  A second gives the distance of every
    candidate with excess <= tau whose bound exceeds the floor, or R if
    that is lower: no other can set `radius` or be a counterexample.  So
    `radius` is the largest distance over candidates with excess <= tau,
    and a candidate in the region farther than R is a counterexample.  The
    set is certified when radius plus tau is at most R: distance and excess
    are 1-Lipschitz, so this is sound while tau bounds each candidate's
    location error.

    A candidate solves a 2x2 system relative to a defining point, so its
    error is about 8u(|x| + k*rho) (u = 2**-53, size |x|, distance rho to
    that point, condition number k), and tau = 1e-9 covers |x| + k*rho up
    to 10**6.  Patches under gifs.MAX_EPSILON_TILES have |x| < 10**4; a
    Delaunay triangle with sides >= 2r and circumradius rho has
    k <= 16(rho/2r)**3, which for the preset systems (r > 0.15) covers
    every rho below 6, six times R; a crossing has k = 1/sin of the angle
    between its two lines.  Anything else is inconclusive, with `radius`
    inf: a point or region vertex with |x| >= 10**4 (every candidate that
    counts lies within tau of the region, the hull of those vertices), or
    a simplex naming qhull's point at infinity.  A triangulation that
    leaves a point out as coplanar is not the set's, so it certifies
    nothing; `radius` is then read off the kept points' candidates, and a
    counterexample still stands, since its distance is queried.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    if len(ps) == 0:
        raise ValueError("empty point set")
    unknown = CoveringResult("inconclusive", None, math.inf)
    size = np.linalg.norm(np.concatenate([ps.points, region.vertices]), axis=1)
    if size.max() >= _TAU_RANGE:
        return unknown
    found = _covering_candidates(ps.points, region)
    if found is None:
        return unknown
    cands, bound, whole = found
    excess = region.excess(cands)
    counted = excess <= _TAU
    vertex = np.isinf(bound)  # the region vertices, and any sliver's far circumcentre
    bound[vertex] = ps.tree.query(cands[vertex])[0]
    floor = min(R, bound[vertex & counted].max(initial=0.0))
    ask = counted & ~vertex & (bound > floor)
    if ask.any():
        bound[ask] = ps.tree.query(cands[ask])[0]
    radius = float(bound[counted].max())
    inside = np.where(excess <= _INSIDE_TOL, bound, -math.inf)
    k = int(np.argmax(inside))
    if inside[k] > R:
        return CoveringResult("counterexample", tuple(cands[k].tolist()), radius)
    if whole and radius + _TAU <= R:
        return CoveringResult("certified", None, radius)
    return CoveringResult("inconclusive", None, radius)


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


def analysis_report(patch):
    """Full Delone/metric/discrepancy report for one patch, JSON-shaped.

    cf_distances holds the Chabauty-Fell distance from the patch's point set
    A to its cut A ∩ B(0, R), for R = 5, 10 and 20.  Where qhull cannot
    build the patch's hull, as for vertices at widely mixed scales, R is
    not certified.
    """
    ps = PointSet(patch.points)
    r, big_r = delone_radii(patch.gifs)
    ud = check_uniform_discrete(ps, r)
    try:
        region = patch_region(patch)
    except ValueError:
        covering = "inconclusive"
    else:
        covering = check_covering_radius(ps, big_r, region).status
    n, dstar = orientation_discrepancy(patch)
    return {
        "r_certified": ud.status == "certified",
        "R_certified": covering == "certified",
        "r": r,
        "R": big_r,
        "cf_distances": _cut_distances(ps, (5, 10, 20)),
        "discrepancy": {"N": n, "Dstar": dstar},
    }
