"""Delone-parameter certification, Chabauty-Fell distances, discrepancy.

Point sets produced by the tiling engine are finite, so every check here
is either an exact reduction (uniform discreteness), a certified
two-sided grid test with an explicit inconclusive band over the convex
hull of a patch (relative denseness), or a closed form from one
nearest-neighbour query per set (the Chabauty-Fell metric restricted to
finite sets).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

__all__ = [
    "PointSet",
    "DiskRegion",
    "ConvexRegion",
    "patch_region",
    "delone_radii",
    "UniformDiscreteResult",
    "RelativeDenseResult",
    "check_uniform_discrete",
    "check_relatively_dense",
    "chabauty_fell_distance",
    "cf_distance_brute",
    "restricted_convergence_check",
    "star_discrepancy",
    "star_discrepancy_brute",
    "orientation_discrepancy",
    "analysis_report",
]


class PointSet:
    """A finite planar point set; equal points (0.0 == -0.0) are rejected."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if len(np.unique(pts, axis=0)) < len(pts):
            raise ValueError("duplicate points")
        pts.flags.writeable = False
        self.points = pts

    def __len__(self):
        return len(self.points)

    def min_pairwise_distance(self):
        if len(self.points) < 2:
            return math.inf
        d, _ = cKDTree(self.points).query(self.points, k=2)
        return float(d[:, 1].min())

    def norms(self):
        return np.linalg.norm(self.points, axis=1)

    def restrict(self, radius):
        """Points within the closed ball of the given radius about 0."""
        keep = self.norms() <= radius
        return _raw_point_set(self.points[keep])


def _raw_point_set(pts):
    ps = PointSet.__new__(PointSet)
    pts = np.asarray(pts, dtype=float).reshape(-1, 2).copy()
    pts.flags.writeable = False
    ps.points = pts
    return ps


# a point is in a region when its excess is at most this (Region.contains)
_INSIDE_TOL = 1e-12


class DiskRegion:
    def __init__(self, center, radius):
        if radius <= 0:
            raise ValueError("region empty")
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)

    def bbox(self):
        c, r = self.center, self.radius
        return (c[0] - r, c[1] - r, c[0] + r, c[1] + r)

    def excess(self, pts):
        """Signed distance from the boundary circle, negative inside."""
        return np.linalg.norm(np.atleast_2d(pts) - self.center, axis=1) - self.radius

    def contains(self, pts):
        return self.excess(pts) <= _INSIDE_TOL


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

    def bbox(self):
        lo, hi = self.vertices.min(axis=0), self.vertices.max(axis=0)
        return (float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))

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
    d, idx = cKDTree(ps.points).query(ps.points, k=2)
    i = int(np.argmin(d[:, 1]))
    dmin = float(d[i, 1])
    if dmin >= 2 * r:
        return UniformDiscreteResult("certified", None, dmin)
    return UniformDiscreteResult("violation", (i, int(idx[i, 1])), dmin)


@dataclass(frozen=True)
class RelativeDenseResult:
    status: str  # "certified" | "counterexample" | "inconclusive"
    counterexample: tuple | None
    h: float
    max_gap: float


def _dense_pass(ps, R, region, h):
    x0, y0, x1, y1 = region.bbox()
    nx = int(math.floor((x1 - x0) / h)) + 2
    ny = int(math.floor((y1 - y0) / h)) + 2
    if nx * ny > 3 * 10**7:
        raise ValueError("grid too fine; enlarge h")
    tree = cKDTree(ps.points)
    margin = h * math.sqrt(2) / 2
    worst_d, worst_in = -math.inf, (-math.inf, None)
    xs = x0 + h * np.arange(nx)
    chunk = max(1, 10**6 // max(nx, 1))
    for j0 in range(0, ny, chunk):
        ys = y0 + h * np.arange(j0, min(j0 + chunk, ny))
        gx, gy = np.meshgrid(xs, ys)
        nodes = np.column_stack([gx.ravel(), gy.ravel()])
        ex = region.excess(nodes)
        keep = ex <= margin
        nodes, ex = nodes[keep], ex[keep]
        if len(nodes) == 0:
            continue
        d, _ = tree.query(nodes)
        worst_d = max(worst_d, float(d.max()))
        d[~(ex <= _INSIDE_TOL)] = -math.inf  # witnesses lie in the region
        k = int(np.argmax(d))
        if d[k] > worst_in[0]:
            worst_in = (float(d[k]), tuple(nodes[k]))
    if worst_d == -math.inf:
        return RelativeDenseResult("inconclusive", None, h, math.nan)
    if worst_d <= R - margin:
        return RelativeDenseResult("certified", None, h, worst_d)
    if worst_in[0] > R + margin:
        return RelativeDenseResult("counterexample", worst_in[1], h, worst_in[0])
    return RelativeDenseResult("inconclusive", None, h, worst_d)


def check_relatively_dense(ps, R, region, h=None):
    """Grid-certified covering test with a two-sided inconclusive band.

    The grid runs one step past the bounding box, so each region point
    lies in the cell of a node with excess <= h*sqrt(2)/2.  Such a node
    within R - h*sqrt(2)/2 of the set covers its whole cell; a node in the
    region farther than R + h*sqrt(2)/2 is a genuine uncovered witness.
    With h=None the step starts at R/10 and halves until conclusive or
    h < 1e-4 * R.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    if len(ps) == 0:
        raise ValueError("empty point set")
    if h is not None:
        if h <= 0:
            raise ValueError("h must be positive")
        return _dense_pass(ps, R, region, h)
    h = R / 10
    result = _dense_pass(ps, R, region, h)
    while result.status == "inconclusive" and h / 2 >= 1e-4 * R:
        h /= 2
        result = _dense_pass(ps, R, region, h)
    return result


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
    1/0 = inf and delta_p = inf against an empty set.
    """
    a_pts = a.points if isinstance(a, PointSet) else np.asarray(a, float).reshape(-1, 2)
    b_pts = b.points if isinstance(b, PointSet) else np.asarray(b, float).reshape(-1, 2)
    worst = 0.0
    for s_pts, t_pts in ((a_pts, b_pts), (b_pts, a_pts)):
        if len(s_pts) == 0:
            continue
        delta = cKDTree(t_pts).query(s_pts)[0] if len(t_pts) else math.inf
        with np.errstate(divide="ignore"):
            inv_norm = 1.0 / np.linalg.norm(s_pts, axis=1)
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


def restricted_convergence_check(ps, radii):
    """d(A, A cut to B(0, R_n)) for increasing R_n; each is <= 1/R_n."""
    radii = [float(r) for r in radii]
    if not all(map(math.isfinite, radii)):
        raise ValueError("radii must be finite")
    if any(r <= 0 for r in radii) or any(
        r2 <= r1 for r1, r2 in zip(radii, radii[1:])
    ):
        raise ValueError("radii must be positive and increasing")
    distances, bounds = [], []
    for r in radii:
        distances.append(chabauty_fell_distance(ps, ps.restrict(r)))
        bounds.append(1.0 / r)
    return {
        "radii": radii,
        "distances": distances,
        "bounds": bounds,
        "ok": all(d <= b for d, b in zip(distances, bounds)),
    }


def star_discrepancy(xs):
    """Exact D*_N of a sample in [0,1) via the sorted-order formula."""
    x = np.sort(np.asarray(list(xs), dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("empty sample")
    if x[0] < 0 or x[-1] >= 1:
        raise ValueError("values must lie in [0, 1)")
    i = np.arange(1, n + 1)
    return float(np.maximum(i / n - x, x - (i - 1) / n).max())


def star_discrepancy_brute(xs):
    """O(N^2) scan over all anchored intervals [0, x_i] and [0, x_i)."""
    x = np.asarray(list(xs), dtype=float)
    n = len(x)
    if n == 0:
        raise ValueError("empty sample")
    best = 0.0
    for xi in x:
        lt = float(np.count_nonzero(x < xi)) / n
        le = float(np.count_nonzero(x <= xi)) / n
        best = max(best, abs(lt - xi), abs(le - xi))
    return best


def orientation_discrepancy(patch):
    """(N, D*) of the tile orientations scaled to [0, 1)."""
    xs = [t.orientation / (2 * math.pi) for t in patch.tiles]
    return len(xs), star_discrepancy(xs)


def analysis_report(patch, radii=(5.0, 10.0, 20.0)):
    """Full Delone/metric/discrepancy report for one patch, JSON-shaped."""
    ps = PointSet(patch.points)
    r, big_r = delone_radii(patch.gifs)
    ud = check_uniform_discrete(ps, r)
    rd = check_relatively_dense(ps, big_r, patch_region(patch))
    conv = restricted_convergence_check(ps, radii)
    n, dstar = orientation_discrepancy(patch)
    return {
        "r_certified": ud.status == "certified",
        "R_certified": rd.status == "certified",
        "r": r,
        "R": big_r,
        "cf_distances": conv["distances"],
        "discrepancy": {"N": n, "Dstar": dstar},
    }
