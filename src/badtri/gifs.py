"""Graph-directed IFS engine for the two-prototile triangle system.

Given an angle triple (alpha, beta, gamma) with gamma < pi/2, this module
builds the scalene/isosceles prototile pair of unit area, the eight
contractive similitudes whose unions reproduce the prototiles (a closure
checked on every build against the one split pattern all systems share),
and runs the area-threshold subdivision that yields finite patches and
the rotated stationary patch sequence.  A patch holds its tiling system
and places its tile vertices and centroid point set once, when it is
built, and refuses to be built unless they are finite and bounded.  The
star discrepancy of a patch's tile orientations is measured here too.

All geometry is double precision; subdivision decides each split on the
tile's exact area, the product of its maps' squared float scales, so
patch shape never depends on summation order.

A patch's tiles are one numpy record array, one _TILE record per tile
(kind, pose and depth: the columns of a patch file), from subdivision
through placement, JSON and loading.  Subdivision runs level by level
over that array: each level replaces every tile whose area exceeds the
threshold by its four children, in place, so the records stay in
depth-first order.  A tile's area is the product of its maps' squared
scales, so few values occur: subdivision keeps beside the tiles an
integer *area class* per tile, one exact dyadic pair (m, e) = m / 2**e
per class, and the exact `area > threshold` test, one integer
comparison, runs once per class and threshold.  The classes stay
inside subdivision; a patch is its tiles.  Child poses come from
_compose, bit-identical to the per-tile subdivision that tests/oracles.py
keeps as the reference.

The eight maps are _TILE records too, each of its child's kind, so a
pose has one form and one arithmetic: _place puts the closure check's
child vertices, every tile's vertices and centroid, and the stationary
anchor where they go, and _compose chains two poses through it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .theorems import PRESET_TRIPLES

__all__ = [
    "Angles",
    "PRESETS",
    "DerivedConstants",
    "Prototile",
    "Patch",
    "Gifs",
    "derive_constants",
    "build_prototiles",
    "build_gifs",
    "closure_report",
    "epsilon_rule",
    "stationary_sequence",
    "nested_in",
    "stationary_nesting_ok",
    "star_discrepancy",
    "orientation_discrepancy",
    "patch_texts",
    "patch_to_json",
    "patch_from_doc",
    "read_patch_file",
]

_TWO_PI = 2.0 * math.pi
MAX_EPSILON_TILES = 10**6  # a priori tile count allowed in epsilon_rule and stationary_sequence
# bound on every patch's placed coordinates: the squared distance of two
# points within it stays below the float range
MAX_COORDINATE = 1e150


@dataclass(frozen=True)
class Angles:
    """A triangle's angles in radians; must sum to pi."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not all(map(math.isfinite, self.as_tuple())):
            raise ValueError("angles must be finite")
        if min(self.alpha, self.beta, self.gamma) <= 0:
            raise ValueError("angles must be positive")
        if abs(self.alpha + self.beta + self.gamma - math.pi) > 1e-12:
            raise ValueError("angles must sum to pi")

    def as_tuple(self):
        return (self.alpha, self.beta, self.gamma)


PRESETS = {name: Angles(*(math.pi * float(v) for v in triple))
           for name, triple in PRESET_TRIPLES.items()}


@dataclass(frozen=True)
class DerivedConstants:
    s: float
    t: float
    u: float
    C: float
    a: float
    b: float


def derive_constants(angles):
    """The six similitude constants; gamma must be acute.

    u has two printed forms that disagree off the alpha = gamma diagonal;
    u = 2*s*t^2*cos(gamma) is the one the closure tests confirm.  The
    alternate, 2*sin(gamma)^2 / (sin(beta)*tan(gamma)), matches it only on
    that diagonal.
    """
    al, be, ga = angles.as_tuple()
    if ga >= math.pi / 2:
        raise ValueError("gamma must be acute")
    s = math.sin(be) / math.sin(ga)
    t = math.sin(al) / math.sin(be)
    u = 2 * s * t * t * math.cos(ga)
    cot_ga = math.cos(ga) / math.sin(ga)
    # a tiny alpha or beta takes t*t out of the float range: refuse by name
    # before a division by 0 or a float power past the range raises
    for name, den in (("t*(s*t + u)", t * (s * t + u)), ("s*t*(s*t + u)", s * t * (s * t + u)),
                      ("s*sin(alpha)", s * math.sin(al))):
        if den == 0:
            raise ValueError(f"degenerate angles: {name} underflows to 0")
    try:
        square = (1 + t * t) ** 2
    except OverflowError:
        raise ValueError("degenerate angles: (1 + t*t)**2 overflows") from None
    C = 2 * square * math.sin(al) * cot_ga / (t * (s * t + u) * (1 + 2 * t * math.cos(ga)))
    a = math.sqrt(2 / (s * math.sin(al))) / (1 + t * t)
    b = 2 * math.sqrt(cot_ga / (s * t * (s * t + u) * (2 * t * math.cos(ga) + 1)))
    if not all(math.isfinite(v) and v > 0 for v in (s, t, u, C, a, b)):
        raise ValueError("degenerate angles: constants not finite positive")
    return DerivedConstants(s, t, u, C, a, b)


@dataclass(frozen=True)
class Prototile:
    """Unit-area prototile with centroid-based in/out radii.

    r0 is the least centroid-to-edge distance and R0 the greatest
    centroid-to-vertex distance, so B(centroid, r0) sits inside the tile
    and the tile inside B(centroid, R0).
    """

    kind: int
    vertices: np.ndarray
    centroid: np.ndarray
    r0: float
    R0: float


def _make_prototile(kind, vertices):
    v = np.asarray(vertices, dtype=float)
    centroid = v.mean(axis=0)
    r0 = min(
        _point_edge_distance(centroid, v[i], v[(i + 1) % 3]) for i in range(3)
    )
    R0 = max(float(np.linalg.norm(p - centroid)) for p in v)
    return Prototile(kind, v, centroid, r0, R0)


def _point_edge_distance(p, e0, e1):
    d = e1 - e0
    return abs(float(d[0] * (p[1] - e0[1]) - d[1] * (p[0] - e0[0]))) / float(np.linalg.norm(d))


def build_prototiles(angles):
    """The scalene tile (angle alpha at the origin) and the isosceles tile.

    Both have unit area with their base on the positive x-axis.  The
    placement is the one the closure validation accepts: the scalene
    triangle puts alpha at the origin, beta at (w, 0) and gamma at the
    apex; the isosceles triangle has base angles gamma and apex pi-2*gamma.
    """
    al, be, ga = angles.as_tuple()
    if ga >= math.pi / 2:
        raise ValueError("gamma must be acute")
    product = math.sin(al) * math.sin(be) * math.sin(ga)
    if product == 0:  # two tiny angles: refuse by name before dividing
        raise ValueError("degenerate angles: sin(alpha)*sin(beta)*sin(gamma) underflows to 0")
    k = math.sqrt(2 / product)
    w = k * math.sin(ga)
    v = k * math.sin(be)
    w2 = 2 / math.sqrt(math.tan(ga))
    v1 = [(0.0, 0.0), (w, 0.0), (v * math.cos(al), v * math.sin(al))]
    v2 = [(0.0, 0.0), (w2, 0.0), (w2 / 2, (w2 / 2) * math.tan(ga))]
    if not all(math.isfinite(c) for p in v1 + v2 for c in p):  # a subnormal product
        raise ValueError("degenerate angles: prototile vertices are not finite")
    t1, t2 = _make_prototile(1, v1), _make_prototile(2, v2)
    for tile in (t1, t2):
        area = _triangle_area(tile.vertices)
        if abs(area - 1.0) > 1e-12:
            raise AssertionError(f"prototile {tile.kind} has area {area}, not 1")
    return t1, t2


def _triangle_area(v):
    e1, e2 = v[1] - v[0], v[2] - v[0]
    return abs(float(e1[0] * e2[1] - e1[1] * e2[0])) / 2.0


# child edge labels per parent kind, in deterministic subdivision order
T1_EDGES = (("g1", 2), ("f1", 1), ("f2", 1), ("f3", 1))
T2_EDGES = (("g2", 2), ("g3", 2), ("f4", 1), ("f5", 1))


@dataclass(frozen=True)
class Gifs:
    """A tiling system: angles, constants, prototiles and the eight maps.

    The prototiles (arrays) and maps (a dict from edge name to a one-record
    _TILE array of the child's kind) follow from the angles, so equality
    and hashing leave them out; patches of equal systems and
    equal tile records then compare and hash by value.
    """

    angles: Angles
    consts: DerivedConstants
    prototiles: tuple = field(compare=False)
    maps: dict = field(compare=False)
    a_min: float

    def prototile(self, kind):
        return self.prototiles[kind - 1]

    def edges(self, kind):
        return T1_EDGES if kind == 1 else T2_EDGES


def build_gifs(angles):
    """Construct the eight similitudes and validate closure: each parent
    split as _SPLIT says, to within closure_report's bounds.  A defect
    raises with the report — a failed closure signals a bad placement,
    not a rendering quirk."""
    consts = derive_constants(angles)
    al, be, ga = angles.as_tuple()
    s, t, u, C, a, b = consts.s, consts.t, consts.u, consts.C, consts.a, consts.b
    rC = math.sqrt(C)
    f_scale = t / (1 + t * t)
    # each map's pose: scale, rotation, reflect, tx, ty
    poses = {
        "f1": (1 / (1 + t * t), 0.0, False, 0.0, 0.0),
        "f2": (
            t / (s * (1 + t * t)),
            (math.pi - be) % _TWO_PI,
            True,
            a + a * t * math.cos(ga),
            a * t * math.sin(ga),
        ),
        "f3": (f_scale, ga, False, a, 0.0),
        "f4": (rC * f_scale, (math.pi + al) % _TWO_PI, True, b * u, 0.0),
        "f5": (rC * f_scale, al, True, b * u + b * t * math.cos(al), b * t * math.sin(al)),
        "g1": (
            u / (rC * (s * t + u)),
            (math.pi - be) % _TWO_PI,
            False,
            a + a * t * math.cos(ga),
            a * t * math.sin(ga),
        ),
        "g2": (u / (s * t + u), 0.0, False, 0.0, 0.0),
        "g3": (
            s * t / (s * t + u),
            0.0,
            False,
            b * s * t * t * math.cos(ga),
            b * s * t * t * math.sin(ga),
        ),
    }
    maps = {e: _record(ck, *poses[e]) for e, ck in T1_EDGES + T2_EDGES}
    gifs = Gifs(
        angles,
        consts,
        build_prototiles(angles),
        maps,
        min(m["scale"].item() ** 2 for m in maps.values()),
    )
    report = closure_report(gifs)
    if not report["ok"]:
        raise ValueError(f"GIFS closure validation failed: {report}")
    return gifs


# each child's vertices, in its prototile's order, as its parent's vertices
# P0-P2 or split points E0-E2, E_i inside the edge from P_i to P_(i+1); f3
# and f5 are the middle children, the ones nested_in relies on
_SPLIT = {"g1": "E1 P2 E2", "f1": "P0 E0 E2", "f2": "E1 P1 E0", "f3": "E0 E1 E2",
          "g2": "P0 E0 E2", "g3": "E2 E1 P2", "f4": "E0 E1 P1", "f5": "E1 E0 E2"}


def closure_report(gifs):
    """How far the maps are from splitting each prototile as _SPLIT says:
    area_defect, the largest |sum of child scale^2 - 1|; delta, the largest
    distance between two vertices _SPLIT puts at one point (a parent vertex
    is at its P) or from a vertex at E_i to its edge's line; and whether
    each vertex at an E_i is strictly inside its edge.  Children each within
    delta of an exact split overlap by about 2*delta at most."""
    areas, gaps, inside = [], [], True
    for kind in (1, 2):
        edges = gifs.edges(kind)
        maps = np.concatenate([gifs.maps[e] for e, _ in edges])
        areas.append(abs(sum(v**2 for v in maps["scale"].tolist()) - 1.0))
        # each child: its map's record places the prototile of the record's kind
        polys = _place(maps, np.stack([gifs.prototile(k).vertices for k in maps["kind"].tolist()]))
        parent = gifs.prototile(kind).vertices.tolist()
        at = {f"P{i}": [p] for i, p in enumerate(parent)}
        for (e, _), poly in zip(edges, polys.tolist()):
            for name, p in zip(_SPLIT[e].split(), poly):
                at.setdefault(name, []).append(p)
        gaps += [math.dist(p, q) for pts in at.values() for p, q in itertools.combinations(pts, 2)]
        for i, (x0, y0) in enumerate(parent):
            dx, dy = parent[i - 2][0] - x0, parent[i - 2][1] - y0  # P_(i+1) - P_i, never 0
            for x, y in at[f"E{i}"]:
                gaps.append(abs(dx * (y - y0) - dy * (x - x0)) / math.hypot(dx, dy))
                inside &= 0 < dx * (x - x0) + dy * (y - y0) < dx * dx + dy * dy
    # numpy's max, unlike max(), keeps a nan
    area_defect, delta = float(np.max(areas)), float(np.max(gaps))
    return {"area_defect": area_defect, "delta": delta, "edge_points_inside": inside,
            "ok": area_defect <= 1e-12 and delta <= 5e-10 and inside}


# one record per tile, or per map of a system (of its child's kind): kind,
# pose and depth, in the key order a patch file holds them.  The pose
# (scale, rotation, reflect, tx, ty) places a local point (x, y) at
# scale * R(rotation) * (reflect ? (-x, y) : (x, y)) + (tx, ty); see _place
_TILE = np.dtype([
    ("kind", np.int64), ("scale", float), ("rotation", float), ("reflect", bool),
    ("tx", float), ("ty", float), ("depth", np.int64),
])
# copy() and fancy indexing move a packed record dtype field by field; take,
# np.put and a copy through this raw view move whole records, 5-9x faster
_TILE_BYTES = np.dtype((np.void, _TILE.itemsize))


def _place(tiles, local):
    """local[i] (K x 2) under the pose of tiles[i], or of a one-record
    tiles for every i: with x negated where the pose reflects, and c and s
    math's cosine and sine of the rotation, the point goes to
    (scale * (c*x - s*y) + tx, scale * (s*x + c*y) + ty), in that order of
    operations.

    Maps, tiles and the stationary anchor are all placed here, so this is
    the one function whose rounding an error bound has to cover.
    """
    # math's cos and sin refuse +-inf, which is placed as nan instead, for
    # Patch to refuse by name
    rot = np.where(np.isinf(tiles["rotation"]), np.nan, tiles["rotation"]).tolist()
    c, s = (np.array(list(map(f, rot)))[:, None] for f in (math.cos, math.sin))
    scale, tx, ty = (tiles[f][:, None] for f in ("scale", "tx", "ty"))
    xs = np.where(tiles["reflect"][:, None], -local[..., 0], local[..., 0])
    ys = local[..., 1]
    out = np.empty_like(local)
    out[..., 0] = scale * (c * xs - s * ys) + tx
    out[..., 1] = scale * (s * xs + c * ys) + ty
    return out


def _compose(outer, inner):
    """The pose of outer[i] (or of one outer record) after that of inner[i],
    with inner's kind and depth: scales multiply, rotations add mod 2*pi
    (inner's negated under a reflecting outer) and _place moves inner's
    translation, bit-identical to the per-tile `compose` of tests/oracles.py."""
    out = inner.view(_TILE_BYTES).copy().view(_TILE)  # whole records; see _TILE_BYTES
    out["scale"] = outer["scale"] * inner["scale"]
    turn = np.where(outer["reflect"], -inner["rotation"], inner["rotation"])
    out["rotation"] = np.mod(outer["rotation"] + turn, _TWO_PI)
    out["reflect"] = outer["reflect"] != inner["reflect"]
    origin = np.stack([inner["tx"], inner["ty"]], axis=-1)[:, None]
    out["tx"], out["ty"] = _place(outer, origin)[:, 0].T
    return out


def _record(kind, scale, rotation, reflect, tx, ty):
    """A one-record _TILE array of depth 0."""
    return np.array([(kind, scale, rotation, reflect, tx, ty, 0)], dtype=_TILE)


@dataclass(frozen=True, eq=False)
class Patch:
    """Tiles of one tiling system, with their geometry placed once.

    `tiles` is a read-only _TILE record array.  `vertices` (N x 3 x 2) and
    `points` (N x 2, the tile centroids) are derived from the tiles at
    construction, so `dataclasses.replace` keeps them in step with the
    tiles.  Every patch, however it is built, has tiles of kind 1 or 2,
    scale > 0 and depth >= 0 whose placed vertices and centroid are finite
    and within +-MAX_COORDINATE; construction raises ValueError, naming the
    first bad tile and its field, otherwise.  Patches compare and hash by
    epsilon, system and tile bytes, so a patch written by patch_to_json and
    read back by patch_from_doc equals the original.
    """

    epsilon: float
    gifs: Gifs
    tiles: np.ndarray
    vertices: np.ndarray = field(init=False, repr=False)
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        tiles = np.asarray(self.tiles, dtype=_TILE).view()
        tiles.flags.writeable = False
        object.__setattr__(self, "tiles", tiles)
        kind, scale, depth = tiles["kind"], tiles["scale"], tiles["depth"]
        # each prototile's vertices and centroid, placed together; clip places a bad kind too
        local = np.stack([np.vstack([p.vertices, p.centroid]) for p in self.gifs.prototiles])
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
            placed = _place(tiles, local.take(kind - 1, axis=0, mode="clip"))
        known = (kind == 1) | (kind == 2)
        inside = (np.abs(placed) <= MAX_COORDINATE).all(axis=(1, 2))  # False for inf and nan
        good = known & (scale > 0) & (depth >= 0) & inside
        if not good.all():
            i = good.argmin()
            if not known[i]:
                raise ValueError(f"tile {i} has kind {kind[i]}, not 1 or 2")
            if not scale[i] > 0:
                raise ValueError(f"tile {i} has scale {scale[i]}, not > 0")
            if depth[i] < 0:
                raise ValueError(f"tile {i} has depth {depth[i]}, not >= 0")
            raise ValueError(f"tile {i} overflows: its placed vertices and centroid must be "
                             f"finite and within +-{MAX_COORDINATE:g}")
        placed.flags.writeable = False
        object.__setattr__(self, "vertices", placed[:, :3])
        object.__setattr__(self, "points", placed[:, 3])

    def _key(self):
        return self.epsilon, self.gifs, self.tiles.tobytes()

    def __eq__(self, other):
        return isinstance(other, Patch) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _subdivide(gifs, start, thresholds):
    """Leaves of the subdivision tree of `start`, cut at each threshold.

    A tile splits while its exact area exceeds the threshold; thresholds
    are rationals (anything with as_integer_ratio) and must not increase,
    so each cut refines the one before.  Returns the cuts: cuts[i] is a
    _TILE array of the leaves for thresholds[i] in depth-first order.

    Beside the tiles runs `cls`, each tile's area class: areas[cls[i]] is
    the exact area of tile i as a dyadic pair (m, e), the rational
    m / 2**e.  A map's pair is its float scale's as_integer_ratio,
    squared, and a child's pair is the product (m1*m2, e1+e2).  A float
    below 1 has an odd numerator, so every m is odd: the pairs are in
    lowest terms, and equal areas have equal pairs.  Against a threshold
    p/q, area > threshold is the integer test m*q > p * 2**e, decided once
    per class and threshold.
    """
    # the eight edge maps, each a record of its child's kind, in subdivision order
    maps = np.concatenate([gifs.maps[e] for kind in (1, 2) for e, _ in gifs.edges(kind)])
    scale_sq = [(n * n, 2 * (d.bit_length() - 1))
                for n, d in map(float.as_integer_ratio, maps["scale"].tolist())]
    areas = [(1, 0)]
    index = {areas[0]: 0}
    child_cls = {}  # 8 * class + edge -> class

    def child_class(key):
        if key not in child_cls:
            c, edge = divmod(key, 8)
            (m1, e1), (m2, e2) = areas[c], scale_sq[edge]
            area = (m1 * m2, e1 + e2)
            if area not in index:
                index[area] = len(areas)
                areas.append(area)
            child_cls[key] = index[area]
        return child_cls[key]

    tiles = _record(start, 1.0, 0.0, False, 0.0, 0.0)
    cls = np.zeros(1, dtype=np.int64)
    cuts = []
    for threshold in thresholds:
        num, den = threshold.as_integer_ratio()
        over = []  # per class: does its area exceed the threshold?
        while True:
            over += [m * den > num << e for m, e in areas[len(over):]]
            split = np.array(over)[cls]
            if not split.any():
                break
            counts = np.where(split, 4, 1)
            tiles, cls = np.repeat(tiles, counts), np.repeat(cls, counts)
            first = (np.cumsum(counts) - counts)[split]
            at = (first[:, None] + np.arange(4)).ravel()  # children's slots
            p = tiles.take(at)  # each split parent, once per child
            edge = 4 * (p["kind"] - 1) + np.tile(np.arange(4), len(first))
            kids = _compose(p, maps.take(edge))
            kids["depth"] = p["depth"] + 1
            keys, inverse = np.unique(8 * cls.take(at) + edge, return_inverse=True)
            np.put(cls, at, np.array([child_class(k) for k in keys.tolist()])[inverse])
            np.put(tiles, at, kids)
        cuts.append(tiles)
    return cuts


def epsilon_rule(start, epsilon, gifs):
    """Subdivide the start prototile while Area > epsilon, then inflate.

    Inflation by 1/sqrt(epsilon) about the origin brings every tile area
    into [a_min, 1] and the total to 1/epsilon, so there are at most
    1/(a_min*epsilon) tiles; that count is capped at MAX_EPSILON_TILES.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    if start not in (1, 2):
        raise ValueError("start prototile must be 1 or 2")
    bound = 1 / (gifs.a_min * epsilon)
    if bound > MAX_EPSILON_TILES:
        raise ValueError(
            f"epsilon={epsilon} allows up to {bound:.3g} tiles, above the cap of {MAX_EPSILON_TILES}"
        )
    (leaves,) = _subdivide(gifs, start, [Fraction(epsilon)])
    lam = 1 / math.sqrt(epsilon)
    for f in ("scale", "tx", "ty"):
        leaves[f] *= lam
    return Patch(epsilon, gifs, leaves)


def stationary_sequence(gifs, n):
    """Patches P_0..P_n that reproduce each other under the e0-rule.

    e0 = scale(f3)^2; P_k is the e0^k patch of the scalene tile, re-anchored
    at the k-fold f3-image of the origin, inflated by e0^(-k/2), and rotated
    by -k*gamma — the tiles of P_(k-1) then recur, in order, as the last
    tiles of P_k (see nested_in).  P_0 is the start tile alone, and as in
    epsilon_rule, P_k for k >= 1 holds at most 1/(a_min*e0^k) tiles; one
    plus the sum of these over k = 1..n is capped at MAX_EPSILON_TILES.
    """
    if n > 6:
        raise ValueError(
            "n capped at 6: a preset's P_0..P_6 hold up to 18,565 tiles, which tile --stationary "
            "builds, checks and writes in ~0.08 s after start-up, and the count grows like e0^-n "
            "(~4x per step)"
        )
    if n < 0:
        raise ValueError("n must be >= 0")
    ga = gifs.angles.gamma
    f3 = gifs.maps["f3"]
    f3_scale = f3["scale"].item()
    eps0 = f3_scale**2
    bound = 1 + sum(1 / (gifs.a_min * eps0**k) for k in range(1, n + 1))
    if bound > MAX_EPSILON_TILES:
        raise ValueError(
            f"n={n} allows up to {bound:.3g} tiles, above the cap of {MAX_EPSILON_TILES}"
        )
    # tile areas are exact products of Fraction(scale) ** 2, so cut at the exact
    # powers of f3's own: the rounded eps0 can sit below Fraction(f3_scale) ** 2,
    # and P_k would then split the f3-image of P_(k-1)
    thresholds = [(Fraction(f3_scale) ** 2) ** k for k in range(n + 1)]
    cuts = _subdivide(gifs, 1, thresholds)
    patches = []
    anchor = np.zeros((1, 1, 2))  # the k-fold f3-image of the origin, one point for _place
    for k, t in enumerate(cuts):
        # scale by e0^(-k/2) and rotate by -k*gamma about the anchor
        turn = _record(0, eps0 ** (-k / 2), (-k * ga) % _TWO_PI, False, 0.0, 0.0)
        shift = _record(0, 1.0, 0.0, False, *-anchor[0, 0])
        tiles = _compose(_compose(turn, shift), t)
        patches.append(Patch(float(eps0**k), gifs, tiles))
        anchor = _place(f3, anchor)
    return patches


def _rebuilds(patch):
    """Does the patch's own system build it from its own epsilon?

    A file does not say which generator wrote it, so each one that could
    have is run and its patch compared with Patch.__eq__ (epsilon, system
    and tile bytes): epsilon_rule from either start, and stationary P_k
    for each k <= 6 whose float(e0**k) is the epsilon, as
    stationary_sequence spells it.  A generator that refuses the epsilon
    builds nothing.
    """
    eps, gifs = patch.epsilon, patch.gifs
    e0 = gifs.maps["f3"]["scale"].item() ** 2
    builds = [lambda s=s: epsilon_rule(s, eps, gifs) for s in (1, 2)]
    builds += [lambda k=k: stationary_sequence(gifs, k)[k] for k in range(7) if float(e0**k) == eps]
    for build in builds:
        try:
            if build() == patch:
                return True
        except ValueError:
            pass
    return False


POSE_TOL = 1e-6  # scale, orientation and centroid tolerance of nested_in


def nested_in(small, big):
    """Per tile i of `small`: is tile len(big) - len(small) + i of `big` in
    the same pose?

    Same pose means the same kind and reflection parity, with scale and
    orientation (mod 2*pi) each within T = POSE_TOL, and centroids whose
    offset (dx, dy) has dx*dx + dy*dy <= T*T in float arithmetic.

    The index is known for stationary patches.  The root is kind 1, whose
    last edge in T1_EDGES is f3, and f3's child is kind 1 too.  Every area
    in the f3 subtree is exactly e0 times the matching area of the root
    tree, for e0 = Fraction(scale(f3))**2, the same dyadic pair that
    _subdivide multiplies; so at the cut e0**k that subtree splits exactly
    where the root tree splits at e0**(k-1).  _subdivide keeps depth-first
    order, so the tiles of P_(k-1) are the last len(P_(k-1)) tiles of P_k,
    in order.  A tile that matches at its own index matches somewhere, so
    this check passes only where a search for a match anywhere would.
    Where `small` holds more tiles than `big`, no tile is nested.
    """
    tail = len(big.tiles) - len(small.tiles)
    if tail < 0:
        return [False] * len(small.tiles)
    a, b = small.tiles, big.tiles[tail:]
    dx, dy = (small.points - big.points[tail:]).T
    gap = np.abs(a["rotation"] % _TWO_PI - b["rotation"] % _TWO_PI) % _TWO_PI
    same = (
        (dx * dx + dy * dy <= POSE_TOL * POSE_TOL)
        & (a["kind"] == b["kind"])
        & (a["reflect"] == b["reflect"])
        & (np.abs(a["scale"] - b["scale"]) <= POSE_TOL)
        & (np.minimum(gap, _TWO_PI - gap) <= POSE_TOL)
    )
    return same.tolist()


def stationary_nesting_ok(patches):
    """Does every tile of P_(k-1) recur in P_k (kind, pose, position), at
    the index nested_in reads it from?"""
    return all(all(nested_in(prev, cur)) for prev, cur in zip(patches, patches[1:]))


def _orientations(patch):
    """Each tile's rotation mod 2*pi, in patch order, as an array; a
    rotation just below 0 rounds to 2*pi under the mod, and wraps to 0."""
    rot = patch.tiles["rotation"] % _TWO_PI
    return np.where(rot < _TWO_PI, rot, 0.0)


def star_discrepancy(xs):
    """Exact D*_N of a sample in [0,1) via the sorted-order formula."""
    x = np.sort(np.asarray(xs, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("empty sample")
    if not (x[0] >= 0 and x[-1] < 1):  # np.sort puts a nan last
        raise ValueError("values must lie in [0, 1)")
    i = np.arange(1, n + 1)
    return float(np.maximum(i / n - x, x - (i - 1) / n).max())


def orientation_discrepancy(patch):
    """(N, D*) of the tile orientations scaled to [0, 1)."""
    xs = _orientations(patch) / _TWO_PI
    return len(xs), star_discrepancy(xs)


# writes a patch's epsilon and angles as they are, int or float
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _float_texts(values):
    """repr of every entry of a float64 (or int64) array, flattened, as a
    list; each distinct 64-bit pattern is formatted once.  Keying on the
    bits keeps 0.0 and -0.0 apart.
    """
    values = np.asarray(values).ravel()
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = list(map(repr, bits.view(values.dtype).tolist()))
    return np.array(texts, dtype=object)[inverse].tolist()


# the float columns the JSON writes, and those the SVG writes
_JSON_COLUMNS = ("scale", "rotation", "tx", "ty", "points")
_SVG_COLUMNS = ("vertices", "points")


def _text_table(patches, names):
    """The float texts a command writes: for each patch, a dict mapping each
    named column (a tile field of _JSON_COLUMNS, "points" or "vertices") to
    the repr of its entries, flattened in row order.

    One _float_texts pass covers every column of every patch, so each
    distinct 64-bit pattern is formatted once per table: a tile's first
    vertex is its translation (each prototile's vertex 0 is the origin),
    and the disks of an SVG are the points of the JSON.
    """
    cols = [np.ravel(getattr(p, n) if n in _SVG_COLUMNS else p.tiles[n])
            for p in patches for n in names]
    texts = _float_texts(np.concatenate(cols)) if cols else []
    ends = np.cumsum([c.size for c in cols]).tolist()
    slices = [texts[a:b] for a, b in zip([0] + ends, ends)]
    return [dict(zip(names, slices[k * len(names):])) for k in range(len(patches))]


def _join_rows(parts, sep):
    """The rows `parts` spell, joined by sep: parts holds fixed strings and
    equal-length lists of texts, one entry per row, in their row order."""
    n = len(next(p for p in parts if isinstance(p, list)))
    stride = len(parts) + 1
    pieces = [sep] * (n * stride)
    for j, p in enumerate(parts):
        pieces[j::stride] = p if isinstance(p, list) else [p] * n
    del pieces[-1:]
    return "".join(pieces)


def _patch_text(patch, texts):
    """The compact JSON of one patch, written column by column from
    its entry of a _text_table; a patch's floats are finite, so repr spells
    each as json does."""
    tiles = patch.tiles
    kind, depth = (_float_texts(tiles[c]) for c in ("kind", "depth"))
    reflect = np.where(tiles["reflect"], "true", "false").tolist()
    rows = _join_rows([
        '{"kind":', kind, ',"scale":', texts["scale"], ',"rotation":', texts["rotation"],
        ',"reflect":', reflect, ',"translation":[', texts["tx"], ",", texts["ty"],
        '],"depth":', depth, "}",
    ], ",")
    xy = texts["points"]
    points = _join_rows(["[", xy[0::2], ",", xy[1::2], "]"], ",")
    epsilon, angles = map(_ENCODER.encode, (patch.epsilon, list(patch.gifs.angles.as_tuple())))
    return f'{{"epsilon":{epsilon},"angles":{angles},"tiles":[{rows}],"points":[{points}]}}'


def _svg_text(patch, prev_patch, texts):
    """Stroke-only tile outlines plus one disk per point, 2% margin, from
    the patch's entry of a _text_table holding _SVG_COLUMNS.

    Tiles of `patch` that nested_in finds in `prev_patch` (if not None)
    are drawn with the prev class: all of the smaller patch's tiles are
    compared with the tail block of the larger, in either order.
    """
    polys, pts = patch.vertices, patch.points
    allv = np.concatenate([polys.reshape(-1, 2), pts])
    x0, y0 = allv.min(axis=0)
    x1, y1 = allv.max(axis=0)
    mx, my = 0.02 * (x1 - x0), 0.02 * (y1 - y0)
    x0, y0, x1, y1 = x0 - mx, y0 - my, x1 + mx, y1 + my
    span = max(x1 - x0, y1 - y0)
    stroke = 0.003 * span
    radius = 0.008 * span
    n = len(patch.tiles)
    if prev_patch is None:
        in_prev = [False] * n
    elif n <= len(prev_patch.tiles):
        in_prev = nested_in(patch, prev_patch)
    else:
        in_prev = [False] * (n - len(prev_patch.tiles)) + nested_in(prev_patch, patch)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0} {y0} {x1 - x0} {y1 - y0}">',
        f"<style>.tile{{fill:none;stroke:#000;stroke-width:{stroke}}}"
        f".prev{{stroke:#b00020;stroke-width:{2 * stroke}}}"
        f".pt{{fill:#1a1a1a}}</style>",
    ]
    v = texts["vertices"]  # six coordinates per tile
    lines.append(_join_rows([
        np.where(in_prev, '<path class="tile prev" d="M', '<path class="tile" d="M').tolist(),
        v[0::6], " ", v[1::6], " L", v[2::6], " ", v[3::6], " L", v[4::6], " ", v[5::6], ' Z"/>',
    ], "\n"))
    xy = texts["points"]
    lines.append(_join_rows(['<circle class="pt" cx="', xy[0::2], '" cy="', xy[1::2],
                             f'" r="{radius}"/>'], "\n"))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def patch_texts(patches, formats):
    """A patch, or a list of patches, in each format named in `formats`:
    "json" maps to compact JSON, byte for byte json.JSONEncoder(separators=
    (",", ":")) on {"epsilon", "angles", "tiles", "points"}, each tile
    {"kind", "scale", "rotation", "reflect", "translation": [tx, ty],
    "depth"} and each point a tile centroid [x, y]; "svg" to an iterator
    drawing each patch after the one before it (_svg_text) as it is read;
    "csv", of a single patch, to x,y rows of its points with 17 significant
    digits.  One _text_table serves JSON and SVG, so each distinct float
    they write is formatted once per call.
    """
    one = isinstance(patches, Patch)
    patches = [patches] if one else list(patches)
    if "csv" in formats and len(patches) > 1:
        raise ValueError("csv export takes a single-patch file")
    names = (_JSON_COLUMNS if "json" in formats else ()) + (_SVG_COLUMNS if "svg" in formats else ())
    table = _text_table(patches, tuple(dict.fromkeys(names)))
    out = {}
    if "json" in formats:
        texts = list(map(_patch_text, patches, table))
        out["json"] = texts[0] if one else "[" + ",".join(texts) + "]"
    if "svg" in formats:
        out["svg"] = (_svg_text(p, patches[k - 1] if k else None, t)
                      for k, (p, t) in enumerate(zip(patches, table)))
    if "csv" in formats:
        out["csv"] = "".join(["x,y\n"] + [f"{x:.17g},{y:.17g}\n" for x, y in patches[0].points])
    return out


def patch_to_json(patches):
    """A patch, or a list of patches, as patch_texts' compact JSON."""
    return patch_texts(patches, ("json",))["json"]


_TILE_KEYS = ("kind", "scale", "rotation", "reflect", "translation", "depth")
_TILE_KEYS_SET = frozenset(_TILE_KEYS)


def _is_number(v):
    # False for nan, the infinities and an int past the float range
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _tile_columns(tiles):
    """(kind, reflect, depth, 4 x N float array of scale, rotation, tx, ty),
    or None unless every tile has the keys and JSON types patch_to_json
    writes, within the range of its int64 or float column.

    Every condition holds tile by tile, so a list passes exactly when each
    of its tiles passes.
    """
    if not (set(map(type, tiles)) <= {dict} and all(map(_TILE_KEYS_SET.issubset, tiles))):
        return None
    kind, scale, rotation, reflect, translation, depth = ([t[k] for t in tiles] for k in _TILE_KEYS)
    if not (set(map(type, translation)) <= {list, tuple} and set(map(len, translation)) <= {2}):
        return None
    numbers = scale, rotation, [p[0] for p in translation], [p[1] for p in translation]
    if not (
        all(set(map(type, col)) <= {int} and -2**63 <= min(col) and max(col) < 2**63
            for col in (kind, depth))
        and set(map(type, reflect)) <= {bool}
        and all(set(map(type, col)) <= {int, float} for col in numbers)
    ):
        return None
    try:
        return kind, reflect, depth, np.array(numbers, dtype=float)
    except OverflowError:  # an int past the float range
        return None


def _check_patch_doc(doc):
    """_tile_columns(doc["tiles"]) for a document of the shape and JSON
    types patch_to_json writes; otherwise ValueError, naming the first bad tile.
    """
    if not isinstance(doc, dict):
        raise ValueError("patch document must be a JSON object")
    missing = [k for k in ("angles", "epsilon", "tiles") if k not in doc]
    if missing:
        raise ValueError(f"patch document lacks {', '.join(missing)}")
    angles = doc["angles"]
    if not (isinstance(angles, list) and len(angles) == 3 and all(map(_is_number, angles))):
        raise ValueError("patch angles must be a list of 3 numbers")
    if not _is_number(doc["epsilon"]):
        raise ValueError("patch epsilon must be a number")
    tiles = doc["tiles"]
    if not isinstance(tiles, list) or not tiles:
        raise ValueError("patch tiles must be a non-empty list")
    columns = _tile_columns(tiles)
    if columns is None:
        # the first failing block of 1,024 tiles holds the first bad tile
        i = next(i for i in range(0, len(tiles), 1024) if _tile_columns(tiles[i : i + 1024]) is None)
        i = next(i for i in range(i, i + 1024) if _tile_columns(tiles[i : i + 1]) is None)
        if i:  # a tile before i that no Patch holds is named first
            patch_from_doc(dict(doc, tiles=tiles[:i]))
        t = tiles[i]
        if not (isinstance(t, dict) and _TILE_KEYS_SET.issubset(t)):
            raise ValueError(f"tile {i} needs the keys {', '.join(_TILE_KEYS)}")
        raise ValueError(f"tile {i} is malformed: {t}")
    return columns


@functools.lru_cache(maxsize=64, typed=True)
def _gifs_of(alpha, beta, gamma):
    """build_gifs(Angles(alpha, beta, gamma)), built once per angle triple;
    typed, so a file's int angles are not served a system holding floats."""
    return build_gifs(Angles(alpha, beta, gamma))


def patch_from_doc(doc):
    """Rebuild a Patch from its JSON dict.

    Raises ValueError, naming the first bad tile, unless the document has
    the shape and the JSON types patch_to_json writes (json.load gives them)
    and the tiles make a Patch.
    """
    kind, reflect, depth, values = _check_patch_doc(doc)
    gifs = _gifs_of(*doc["angles"])
    tiles = np.empty(len(kind), dtype=_TILE)
    tiles["kind"], tiles["reflect"], tiles["depth"] = kind, reflect, depth
    tiles["scale"], tiles["rotation"], tiles["tx"], tiles["ty"] = values
    return Patch(float(doc["epsilon"]), gifs, tiles)


def read_patch_file(path):
    """The patches of a patch file, and whether the file holds a list of
    them; an error in a list names its patch by index from 0, as export's
    -k.svg names do."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path} nests too deeply to be a patch file") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not JSON: {exc}") from None
    if isinstance(doc, list):
        if not doc:
            raise ValueError(f"{path} holds no patches")
        patches = []
        for k, d in enumerate(doc):
            try:
                patches.append(patch_from_doc(d))
            except ValueError as exc:
                raise ValueError(f"patch {k}: {exc}") from None
        return patches, True
    return [patch_from_doc(doc)], False
