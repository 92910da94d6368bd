"""Reference implementations that tests compare the package against.

No `badtri` command calls these, so they live beside the tests; the
package never imports this module.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.spatial import ConvexHull, Delaunay, QhullError, cKDTree

from badtri.cf import convergents, hull_pairs
from badtri.delone import PointSet
from badtri.gifs import _TILE, _TWO_PI, POSE_TOL
from badtri.quadfield import QuadRat
from badtri.theorems import (MAIN_SOLUTIONS, _IDENTITIES, _INSERTIONS, _RESIDUALS, _check_row,
                             _decide, _one_minus, _triple)


def sqrt2() -> QuadRat:
    return QuadRat(0, 1, 1, 2)


def sqrt3() -> QuadRat:
    return QuadRat(0, 1, 1, 3)


def verify_case_row(row, n):
    """Exact containment check for one table row at one n.

    The closed hull of Z = 1 - X - Y over the row's cylinders must land
    inside the row's endpoint interval, which itself must instantiate a
    forbidden pattern of the correct parity.
    """
    return _check_row(row, n, convergents((2,) * (n + 1)), convergents((3,) + (2,) * n))[-1]


def case21_endpoints(n):
    """Closed-form cylinder endpoints for row 2.1 in Q(sqrt 2), even n.

    Returns (A, B, C, D): I(3,(2)^n,1,2) = (A, B] and I(3,(2)^n,2,2) = (C, D]
    as exact quadratic expressions in powers of the fundamental unit 1+sqrt2.
    """
    if n < 0 or n % 2:
        raise ValueError("closed forms are for even n")
    s2 = sqrt2()
    u = 1 + s2
    base = 1 - s2 / 2
    a = base + (12 - 19 * s2) / (-19 + 6 * s2 + 17 * u ** (2 * n + 4))
    b = base + (10 + s2) / (1 + 5 * s2 - 7 * u ** (2 * n + 5))
    c = base + s2 / (1 - u ** (2 * n + 8))
    d = base + s2 / (1 + u ** (2 * n + 8))
    return a, b, c, d


def verify_case21_symbolic(n):
    """Cross-check: the closed forms reproduce the exact cylinder endpoints."""
    a, b, c, d = case21_endpoints(n)
    hulls = [tuple(Fraction(*end) for end in hull_pairs(convergents((3,) + (2,) * n + tail)))
             for tail in ((1, 2), (2, 2))]
    return [(a, b), (c, d)] == hulls


def _pair(v):
    """v as a numerator/denominator pair; a QuadRat enters as (v, 1)."""
    return (v, 1) if isinstance(v, QuadRat) else (v.numerator, v.denominator)


def identity(ident, x, y):
    """theorems._identity, for rational or quadratic x and y."""
    return _decide(*_IDENTITIES[ident](*_pair(x), *_pair(y)))


def _value(n, d):
    """The pair n/d as one Fraction, or one QuadRat division."""
    if isinstance(n, QuadRat) or isinstance(d, QuadRat):
        return n / d
    return Fraction(n, d)


def insertion(kind, x, y, z):
    """Apply one insertion transform to a triple with x+y+z=1.

    kind "2": a 2 goes in after the leading 3 of x and y, and foremost
    into z.  kind "11211": 3,1,3 after the leading 3 of x and y, and
    1,1,2,1,1 after the leading 2 of z.  As words that end in a real
    entry w (the tail 1/w, see _bracket), kind "2" gives X = [3, 1/x-1]
    and Z = [2, z], z's own word behind a 2; kind "11211" gives
    X = [3, 3, 1+x] and Z = [2,1,1,2,1, 1/z-1].  Returns (X, Y, Z,
    residual) where the residual 1-X-Y-Z equals a closed-form rational
    function of x and y alone that vanishes iff x = y — so insertions map
    equal-pair solutions of x+y+z=1 to new solutions.  The words are built
    once, and their residual is checked against that form by `_decide`.
    """
    (a, b), (c, d), (e, f) = _pair(x), _pair(y), _pair(z)
    if (a * d + b * c) * f + e * b * d != b * d * f:
        raise ValueError("insertion requires x + y + z = 1")
    if kind not in _INSERTIONS:
        raise ValueError(f"unknown insertion kind {kind!r}")
    try:
        words = _INSERTIONS[kind](a, b, c, d)
        residual, _, holds = _decide(_one_minus(*words), _RESIDUALS[kind](a, b, c, d))
    except ZeroDivisionError as exc:
        raise ValueError("insertion transform hit a pole") from exc
    if not holds:
        raise AssertionError("residual identity violated — arithmetic bug")
    return (*(_value(*w) for w in words), _value(*residual))


_X_BLOCKS = {"2": (2,), "11211": (3, 1, 3)}
_Z_BLOCKS = {"2": (2,), "11211": (1, 1, 2, 1, 1)}


def generate_solutions(code=()):
    """Compose insertions over the code alphabet {"2", "11211"}.

    Starting from MAIN_SOLUTIONS[1] = ([3,per(2)], [3,per(2)], [per(2)]),
    each symbol inserts its block just after the leading digit of the x, y
    and z words; values are carried exactly through the Möbius transforms,
    so the sum stays 1 exactly.  Digits never exceed 3, and a length-L
    all-"2" code keeps the triple inside B_{2,L+1}.
    """
    code = tuple(code)
    if len(code) > 40:
        raise ValueError("code length capped at 40: a 40-symbol code takes ~8 ms, and the "
                         "time grows about as its length squared")
    if any(sym not in _X_BLOCKS for sym in code):
        raise ValueError("code symbols must be '2' or '11211'")
    x, y, z = MAIN_SOLUTIONS[1].values()
    x_mid = ()
    z_mid = ()
    for sym in code:
        x, y, z, _ = insertion(sym, x, y, z)
        x_mid = _X_BLOCKS[sym] + x_mid
        z_mid = _Z_BLOCKS[sym] + z_mid
    triple = _triple(
        ((3,) + x_mid, (2,)), ((3,) + x_mid, (2,)), ((2,) + z_mid, (2,))
    )
    vx, vy, vz = triple.values()
    if (vx, vy, vz) != (x, y, z) or vx + vy + vz != 1:
        raise AssertionError("insertion words and values drifted apart — bug")
    return triple


@dataclass(frozen=True)
class Similitude:
    """scale * R(rotation) * (reflect ? (-x, y) : (x, y)) + translation."""

    scale: float
    rotation: float
    reflect: bool
    tx: float
    ty: float

    def apply(self, pts):
        pts = np.asarray(pts, dtype=float)
        xs = -pts[..., 0] if self.reflect else pts[..., 0]
        ys = pts[..., 1]
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        out = np.empty_like(pts)
        out[..., 0] = self.scale * (c * xs - s * ys) + self.tx
        out[..., 1] = self.scale * (s * xs + c * ys) + self.ty
        return out


IDENTITY = Similitude(1.0, 0.0, False, 0.0, 0.0)


def similitude(record):
    """The Similitude of one _TILE record, or of a one-record array such as
    a map of gifs.build_gifs."""
    return Similitude(*(record[f].item() for f in ("scale", "rotation", "reflect", "tx", "ty")))


def compose(outer, inner):
    """outer after inner (i.e. z -> outer(inner(z)))."""
    rot = outer.rotation + (-inner.rotation if outer.reflect else inner.rotation)
    tx, ty = outer.apply(np.array([inner.tx, inner.ty]))
    return Similitude(
        outer.scale * inner.scale,
        rot % _TWO_PI,
        outer.reflect != inner.reflect,
        float(tx),
        float(ty),
    )


@dataclass(frozen=True)
class TileInstance:
    """A placed copy of a prototile: kind, composed transform, exact area."""

    kind: int
    transform: Similitude
    depth: int
    area: Fraction

    @property
    def orientation(self):
        return self.transform.rotation % _TWO_PI

    @property
    def parity(self):
        return self.transform.reflect


def subdivide(tile, gifs):
    """The four children of a tile, in the deterministic edge order."""
    children = []
    for edge, child_kind in gifs.edges(tile.kind):
        m = similitude(gifs.maps[edge])
        children.append(
            TileInstance(
                child_kind,
                compose(tile.transform, m),
                tile.depth + 1,
                tile.area * Fraction(m.scale) ** 2,
            )
        )
    return children


def kd_recurs_in(patch, other):
    """Per tile of `patch`: does `other` hold a tile in the same pose,
    anywhere?  The reference for gifs.nested_in, which compares one index:
    a KD-tree over `other`'s centroids gives the pairs within POSE_TOL,
    whose pose columns are then compared."""
    near = cKDTree(other.points).query_ball_point(patch.points, POSE_TOL)
    i = np.repeat(np.arange(len(near)), [len(js) for js in near])
    j = np.array([j for js in near for j in js], dtype=np.int64)
    a, b = patch.tiles[i], other.tiles[j]
    gap = np.abs(a["rotation"] % _TWO_PI - b["rotation"] % _TWO_PI) % _TWO_PI
    same = ((a["kind"] == b["kind"]) & (a["reflect"] == b["reflect"])
            & (np.abs(a["scale"] - b["scale"]) <= POSE_TOL)
            & (np.minimum(gap, _TWO_PI - gap) <= POSE_TOL))
    return np.bincount(i[same], minlength=len(near)).astype(bool).tolist()


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


def patch_doc(patch):
    """The patch as a JSON-ready dict (tile transforms plus centroid points);
    a translation is an (x, y) tuple, cheaper to build than a list."""
    return {
        "epsilon": patch.epsilon,
        "angles": list(patch.gifs.angles.as_tuple()),
        "tiles": [
            {"kind": k, "scale": m, "rotation": r, "reflect": f, "translation": (x, y), "depth": d}
            for k, m, r, f, x, y, d in zip(*(patch.tiles[c].tolist() for c in _TILE.names))
        ],
        "points": patch.points.tolist(),
    }


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


def restrict(ps, radius):
    """The points of ps within the closed ball of the given radius about 0."""
    return PointSet(ps.points[np.linalg.norm(ps.points, axis=1) <= radius])


def chabauty_fell_distance(a, b):
    """Exact Chabauty-Fell distance between finite sets, capped at 1.

    A point p of one set, at distance delta_p from the other, passes the
    windowed predicate exactly when eps >= delta_p or eps > 1/|p|.  So the
    infimum is the largest min(delta_p, 1/|p|) over both sets, with
    1/0 = inf and delta_p = inf against an empty set.  An argument that
    is not a PointSet is read as one, so it must hold distinct finite
    points; each set's points are queried in a KD-tree over the other's.
    """
    a, b = (s if isinstance(s, PointSet) else PointSet(s) for s in (a, b))
    worst = 0.0
    for s, t in ((a, b), (b, a)):
        if len(s) == 0:
            continue
        delta = cKDTree(t.points).query(s.points)[0] if len(t) else math.inf
        with np.errstate(divide="ignore"):
            inv_norm = 1.0 / np.linalg.norm(s.points, axis=1)
        worst = max(worst, float(np.minimum(delta, inv_norm).max()))
    return min(1.0, worst)


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
    tree = cKDTree(ps.points)
    bound[vertex] = tree.query(cands[vertex])[0]
    floor = min(R, bound[vertex & counted].max(initial=0.0))
    ask = counted & ~vertex & (bound > floor)
    if ask.any():
        bound[ask] = tree.query(cands[ask])[0]
    radius = float(bound[counted].max())
    inside = np.where(excess <= _INSIDE_TOL, bound, -math.inf)
    k = int(np.argmax(inside))
    if inside[k] > R:
        return CoveringResult("counterexample", tuple(cands[k].tolist()), radius)
    if whole and radius + _TAU <= R:
        return CoveringResult("certified", None, radius)
    return CoveringResult("inconclusive", None, radius)


def covering_candidates(pts, region):
    """Every point where the distance to pts can peak on a convex region.

    On a Voronoi cell the distance is convex, so it peaks at a Voronoi
    vertex (a Delaunay circumcentre), a region vertex, or a crossing of a
    region edge with a Voronoi edge: the part of a Delaunay edge pq's
    bisector where w1 and w2, the vertices facing pq, are no nearer than p.
    Every Delaunay edge is crossed with every region edge.
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


def check_covering_radius_queried(ps, R, region):
    """check_covering_radius with a KD-tree query at every candidate
    of covering_candidates, and no check of the triangulation or of the
    coordinate range."""
    if R <= 0:
        raise ValueError("R must be positive")
    if len(ps) == 0:
        raise ValueError("empty point set")
    cands = covering_candidates(ps.points, region)
    dist = cKDTree(ps.points).query(cands)[0]
    excess = region.excess(cands)
    radius = float(dist[excess <= _TAU].max())
    inside = np.where(excess <= _INSIDE_TOL, dist, -math.inf)
    k = int(np.argmax(inside))
    if inside[k] > R:
        return CoveringResult("counterexample", tuple(cands[k].tolist()), radius)
    if radius + _TAU <= R:
        return CoveringResult("certified", None, radius)
    return CoveringResult("inconclusive", None, radius)
