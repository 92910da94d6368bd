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

Both nearest-point questions, the closest pair and the cut distances,
are answered exactly on uniform grids with numpy alone.  A distance is
always sqrt(dx*dx + dy*dy) of a coordinate difference, the arithmetic of
a KD-tree query, so each equals that query's answer bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gifs import _rebuilds, closure_report, orientation_discrepancy

__all__ = [
    "PointSet",
    "delone_radii",
    "UniformDiscreteResult",
    "check_uniform_discrete",
    "analysis_report",
]


class PointSet:
    """A finite planar point set, stored read-only; equal points
    (0.0 == -0.0) are rejected."""

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


def delone_radii(gifs):
    """(r, R) certified for every patch of this system: r = sqrt(a_min)*r0."""
    t1, t2 = gifs.prototiles
    r0 = min(t1.r0, t2.r0)
    R0 = max(t1.R0, t2.R0)
    return math.sqrt(gifs.a_min) * r0, R0


# The grids.  A cell is an integer pair (i, j) and a block is a list of
# rows (i, j): the cells (ci + i, cj - j .. cj + j) about a point's cell
# (ci, cj).  _BLOCK is the 3 x 3 block.
_BLOCK = ((-1, 1), (0, 1), (1, 1))
_K = 32  # the most points a cell of the final closest-pair grid may hold
_CHUNK = 1 << 20  # pair distances computed at once
_MAX_PAIRS = 1 << 27  # pair distances one cut may list
_TINY = 2.0**-500  # below this a squared distance may lose bits to underflow


def _side(d):
    """A cell side s >= d such that two points whose dx*dx + dy*dy is at
    most d*d, as computed, lie within s of each other along each axis:
    the computed square is the exact one to a relative 4 ulps, except
    for an absolute 2**-1074 of underflow, which 2**-16 covers above
    _TINY and a fixed side covers below it."""
    return d * (1 + 2.0**-16) if d >= _TINY else 2 * _TINY


def _cells(v, side, reach):
    """Integer cells of this side along one axis.

    The sorted values split into runs wherever a gap exceeds reach*side.
    Each run is floored from its own least value and starts 2*reach + 2
    cells past the previous one: values in one run keep their cells'
    offsets, values in two runs are more than reach*side apart and their
    cells more than 2*reach apart, and no quotient or index passes
    (3*reach + 3)*len(v), so each is exact however far the values spread.
    """
    order = np.argsort(v)
    s = v[order]
    new = np.empty(len(s), dtype=bool)
    new[0] = True
    np.greater(np.diff(s), reach * side, out=new[1:])
    first = np.flatnonzero(new)
    run = np.cumsum(new) - 1
    c = np.floor((s - s[first][run]) / side)
    span = c[np.append(first[1:], len(s)) - 1] + 2 * reach + 2
    base = np.cumsum(span) - span
    cells = np.empty(len(v), dtype=np.int64)
    cells[order] = c + base[run]
    return cells


def _grid(pts, side, reach):
    """(keys, width): each point's cell (i, j) as the key i*width + j, with
    width wide enough that a block row of half-width up to reach is one
    range of keys.  Two points within reach*side along each axis have
    cells at most that many apart."""
    ci, cj = _cells(pts[:, 0], side, reach), _cells(pts[:, 1], side, reach)
    width = int(cj.max()) + 2 * reach + 1
    return ci * width + cj, width


def _ranges(sorted_keys, keys, width, rows):
    """lo, hi, one row per block row: sorted_keys[lo[r, p]:hi[r, p]] are
    the keys in row r of the block about the cell of keys[p]."""
    lo = np.array([np.searchsorted(sorted_keys, keys + (i * width - j)) for i, j in rows])
    hi = np.array([np.searchsorted(sorted_keys, keys + (i * width + j), "right")
                   for i, j in rows])
    return lo, hi


def _disc(k):
    """The block of cells of side w/k whose points are all within
    w*sqrt(1 - 1/k**2) < w of every point of the middle cell: it holds
    every point within about (1 - 3/k)*w of a point of the middle cell."""
    return tuple((i, math.isqrt(k * k - 1 - (abs(i) + 1) ** 2) - 1) for i in range(2 - k, k - 1))


_NEAR_K = 16
_NEAR = _disc(_NEAR_K)  # it reaches _NEAR_K - 2 cells each way


def _d2(pts, p):
    """dx*dx + dy*dy from p to each point of pts."""
    dx, dy = pts[:, 0] - p[0], pts[:, 1] - p[1]
    return dx * dx + dy * dy


def _block_min(q, b, lo, hi, own=None):
    """For each point of q, the least dx*dx + dy*dy to the points
    b[lo[r]:hi[r]] of its block rows r, inf where the rows are empty.
    own, if given, is each point's own index in b, which is skipped.  The
    pairs are computed about _CHUNK at a time, each point's in one chunk."""
    n, nrows = len(q), len(lo)
    best = np.full(n, np.inf)
    lens, starts = (hi - lo).T.ravel(), lo.T.ravel()  # point-major
    per = lens.reshape(n, nrows).sum(axis=1)
    ends = np.cumsum(per)
    s = 0
    while s < n:
        e = max(s + 1, int(np.searchsorted(ends, (ends[s - 1] if s else 0) + _CHUNK, "right")))
        ln, cnt = lens[s * nrows:e * nrows], per[s:e]
        idx = np.arange(cnt.sum()) - np.repeat(np.cumsum(ln) - ln - starts[s * nrows:e * nrows], ln)
        dx = np.repeat(q[s:e, 0], cnt) - b[idx, 0]
        dy = np.repeat(q[s:e, 1], cnt) - b[idx, 1]
        d2 = dx * dx + dy * dy
        if own is not None:
            d2[idx == np.repeat(own[s:e], cnt)] = np.inf
        has = cnt > 0
        if has.any():
            best[s:e][has] = np.minimum.reduceat(d2, (np.cumsum(cnt) - cnt)[has])
        s = e
    return best


def _closest_pair(pts):
    """(d2, i, j): the least dx*dx + dy*dy over the pairs of two or more
    points, exactly, and a pair i < j at that distance.

    Khuller & Matias' sieve (Information and Computation 118, 1995) sets
    the grid.  A random live point's nearest live distance d is a pair's,
    so no less than the least, and a grid of side _side(d) holds every
    pair at the least distance in adjacent cells.  While a cell of that
    grid holds more than _K points, each live point alone in its 3 x 3
    block of cells of side d/3, so with no live point within d/3, leaves,
    and d is drawn again.  A point that stays has a live point within
    2*sqrt(2)*d/3, so d falls by a twentieth or more each round, and, the
    point being random, a fixed share of the live points leaves in
    expectation.  Once none is live, no two points are within d/3 of
    each other, and a cell holds at most 20.
    The sieve counts its blocks' points and lists no pair; only the
    final grid's 3 x 3 blocks are listed, at most 9*_K pairs a point.
    """
    n = len(pts)
    rng = np.random.default_rng(0)
    live = np.arange(n)
    while True:
        x = live[rng.integers(len(live))]
        d2 = _d2(pts[live], pts[x])
        d2[live == x] = np.inf
        k = int(np.argmin(d2))
        if d2[k] == 0:
            return 0.0, *sorted((int(x), int(live[k])))
        d = min(math.sqrt(d2[k]), 2.0**512)  # a finite d2 is below 2**1024
        keys, width = _grid(pts, _side(d), 1)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if not np.any(keys[_K:] == keys[:-_K]):  # no cell holds more than _K
            break
        sub, sub_width = _grid(pts[live], d / 3, 1)
        sub_order = np.argsort(sub, kind="stable")
        sub = sub[sub_order]
        lo, hi = _ranges(sub, sub, sub_width, _BLOCK)
        live = np.sort(live[sub_order[(hi - lo).sum(axis=0) > 1]])
        if len(live) < 2:
            break
    # in key order, each block row's search runs along the keys
    lo, hi = _ranges(keys, keys, width, _BLOCK)
    best = np.empty(n)
    best[order] = _block_min(pts[order], pts[order], lo, hi, np.arange(n))
    i = int(np.argmin(best))
    d2 = _d2(pts, pts[i])
    d2[i] = np.inf
    return float(best[i]), i, int(np.argmin(d2))


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
    if not r > 0:  # nan too
        raise ValueError("r must be positive")
    if len(ps) < 2:
        return UniformDiscreteResult("certified", None, math.inf)
    with np.errstate(over="ignore"):  # a distance past the float range is inf
        d2, i, j = _closest_pair(ps.points)
    dmin = math.sqrt(d2)
    if dmin >= 2 * r:
        return UniformDiscreteResult("certified", None, dmin)
    return UniformDiscreteResult("violation", (i, j), dmin)


def _cut_distances(ps, radii):
    """The Chabauty-Fell distance from ps to each cut ps ∩ B(0, R), from
    one pass of norms.

    A point p of one set, at distance delta_p from the other, passes the
    windowed predicate exactly when eps >= delta_p or eps > 1/|p|, so the
    distance is the largest term min(delta_p, 1/|p|) over both sets,
    capped at 1 (delta_p = inf against an empty set).  A point in the cut
    is in both sets, with delta_p = 0, so only the points outside the cut
    count: _farthest finds their largest term.
    """
    out = []
    with np.errstate(over="ignore"):  # a norm or distance past the float range is inf
        norms = np.linalg.norm(ps.points, axis=1)
        for radius in radii:
            inside = norms <= radius
            far, inv = ps.points[~inside], 1.0 / norms[~inside]
            out.append(min(1.0, _farthest(ps.points[inside], far, inv)))
    return out


def _farthest(inside, far, inv):
    """The largest term min(delta_q, inv_q) over the points q of far, with
    delta_q the distance from q to inside; 0 if far is empty.

    A term is at most inv_q.  So after the term w of the point nearest 0,
    only the points with inv_q > w can exceed it, and only they are kept.
    Of those, a point with a point of inside in its _NEAR block of cells
    of side w/_NEAR_K is within w of it and leaves too.  The kept points' terms are
    then found on one grid of side max inv_q: q's 3 x 3 block there holds
    every point of inside within inv_q of q, so the least distance to
    those, or inv_q if it is less, is q's term.  While that grid would
    list more than _K pairs a point, the exact terms of 16 random kept
    points raise w, the points that can no longer exceed it leave, and
    the count is taken again; once a round leaves w where it was, the
    grid is listed unless it holds more than _MAX_PAIRS pairs.
    """
    if not len(far) or not len(inside):
        return float(inv.max(initial=0.0))  # delta_q = inf against no points
    n = len(inside)
    first = int(np.argmax(inv))
    w = min(math.sqrt(_d2(inside, far[first]).min()), float(inv[first]))
    rng = np.random.default_rng(0)
    raised = True
    while True:
        keep = inv > w
        if w >= _TINY and keep.any():
            keys, width = _grid(np.concatenate([inside, far[keep]]), w / _NEAR_K, _NEAR_K - 2)
            lo, hi = _ranges(np.sort(keys[:n]), keys[n:], width, _NEAR)
            keep[keep] = (hi - lo).sum(axis=0) == 0
        far, inv = far[keep], inv[keep]
        if not len(far):
            return w
        keys, width = _grid(np.concatenate([inside, far]), _side(float(inv.max())), 1)
        order = np.argsort(keys[:n], kind="stable")
        lo, hi = _ranges(keys[:n][order], keys[n:], width, _BLOCK)
        pairs = int((hi - lo).sum())
        if pairs <= _K * (n + len(far)) or not raised:
            break
        pick = rng.choice(len(far), min(16, len(far)), replace=False)
        t = max(min(math.sqrt(_d2(inside, far[p]).min()), float(inv[p])) for p in pick)
        raised = t > w
        w = max(w, t)
        keep = np.ones(len(far), dtype=bool)
        keep[pick] = False
        far, inv = far[keep], inv[keep]
    if pairs > _MAX_PAIRS:
        raise ValueError(f"cut distance capped at {_MAX_PAIRS} pair distances, which take ~3 s: "
                         f"this cut lists {pairs}")
    best = _block_min(far, inside[order], lo, hi)
    return max(w, float(np.minimum(np.sqrt(best), inv).max()))


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
