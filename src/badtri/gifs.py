"""Graph-directed IFS engine for the two-prototile triangle system.

Given an angle triple (alpha, beta, gamma) with gamma < pi/2, this module
builds the scalene/isosceles prototile pair of unit area, the eight
contractive similitudes whose unions reproduce the prototiles, and runs
the area-threshold subdivision that yields finite patches and the rotated
stationary patch sequence.  A patch holds its tiling system and places
its tile vertices and centroid point set once, when it is built.

All geometry is double precision; subdivision stopping areas are tracked
as exact Fractions of the float scale factors so patch shape never
depends on summation order.

Subdivision runs level by level over arrays.  The frontier holds one
record per tile (kind, transform, depth and an integer *area class*);
each level replaces every tile whose area exceeds the threshold by its
four children, in place, so the frontier stays in depth-first order.  A
tile's area is the product of its maps' squared scales, so few values
occur: each distinct area is one exact Fraction, shared by every tile of
its class, and the exact `area > threshold` test runs once per class.
Child transforms repeat `Similitude.compose`'s arithmetic operation for
operation, so they are bit-identical to composing tile by tile.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
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
]

_TWO_PI = 2.0 * math.pi
MAX_EPSILON_TILES = 10**6  # a priori tile count allowed in epsilon_rule


@dataclass(frozen=True)
class Angles:
    """A triangle's angles in radians; must sum to pi."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma) <= 0:
            raise ValueError("angles must be positive")
        if abs(self.alpha + self.beta + self.gamma - math.pi) > 1e-12:
            raise ValueError("angles must sum to pi")

    def as_tuple(self):
        return (self.alpha, self.beta, self.gamma)


def _preset_angles():
    r3 = math.sqrt(3.0)
    r2 = math.sqrt(2.0)
    return {
        "equilateral": Angles(math.pi / 3, math.pi / 3, math.pi / 3),
        "optimal1": Angles((2 - r3) * math.pi, (r3 - 1) * math.pi / 2, (r3 - 1) * math.pi / 2),
        "optimal2": Angles((r2 - 1) * math.pi, (2 - r2) * math.pi / 2, (2 - r2) * math.pi / 2),
    }


PRESETS = _preset_angles()


@dataclass(frozen=True)
class DerivedConstants:
    s: float
    t: float
    u: float
    C: float
    a: float
    b: float
    u_alt: float
    u_forms_agree: bool


def derive_constants(angles):
    """The six similitude constants; gamma must be acute.

    u has two printed forms that disagree off the alpha = gamma diagonal;
    u = 2*s*t^2*cos(gamma) is the one the closure tests confirm, and
    u_forms_agree records whether the alternate happens to match.
    """
    al, be, ga = angles.as_tuple()
    if ga >= math.pi / 2:
        raise ValueError("gamma must be acute")
    s = math.sin(be) / math.sin(ga)
    t = math.sin(al) / math.sin(be)
    u = 2 * s * t * t * math.cos(ga)
    u_alt = 2 * math.sin(ga) ** 2 / (math.sin(be) * math.tan(ga))
    cot_ga = math.cos(ga) / math.sin(ga)
    C = 2 * (1 + t * t) ** 2 * math.sin(al) * cot_ga / (t * (s * t + u) * (1 + 2 * t * math.cos(ga)))
    a = math.sqrt(2 / (s * math.sin(al))) / (1 + t * t)
    b = 2 * math.sqrt(cot_ga / (s * t * (s * t + u) * (2 * t * math.cos(ga) + 1)))
    if not all(math.isfinite(v) and v > 0 for v in (s, t, u, C, a, b)):
        raise ValueError("degenerate angles: constants not finite positive")
    # C = (b/a)^2 is an algebraic consequence; drift means transcription rot
    if abs(C - (b / a) ** 2) > 1e-9 * C:
        raise AssertionError("C != (b/a)^2: constants drifted apart")
    return DerivedConstants(s, t, u, C, a, b, u_alt, abs(u - u_alt) <= 1e-9 * max(u, u_alt))


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

    def compose(self, other):
        """self after other (i.e. z -> self(other(z)))."""
        rot = self.rotation + (-other.rotation if self.reflect else other.rotation)
        tx, ty = self.apply(np.array([other.tx, other.ty]))
        return Similitude(
            self.scale * other.scale,
            rot % _TWO_PI,
            self.reflect != other.reflect,
            float(tx),
            float(ty),
        )

    @property
    def translation(self):
        return np.array([self.tx, self.ty])


_IDENTITY = Similitude(1.0, 0.0, False, 0.0, 0.0)


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
    k = math.sqrt(2 / (math.sin(al) * math.sin(be) * math.sin(ga)))
    w = k * math.sin(ga)
    v = k * math.sin(be)
    t1 = _make_prototile(
        1, [(0.0, 0.0), (w, 0.0), (v * math.cos(al), v * math.sin(al))]
    )
    w2 = 2 / math.sqrt(math.tan(ga))
    t2 = _make_prototile(
        2, [(0.0, 0.0), (w2, 0.0), (w2 / 2, (w2 / 2) * math.tan(ga))]
    )
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

    The prototiles (arrays) and maps (a dict) follow from the angles, so
    equality and hashing leave them out; patches of equal systems then
    compare and hash by value.
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


def build_gifs(angles, validate=True):
    """Construct the eight similitudes and (optionally) validate closure.

    Validation checks, per parent: child scale^2 sums to 1 within 1e-12;
    every child vertex lies in the closed parent (signed distance
    >= -1e-9); and no two children share interior points, probed on a
    deterministic sample grid.  Any defect raises with its magnitude —
    a failed closure signals a bad placement, not a rendering quirk.
    """
    consts = derive_constants(angles)
    al, be, ga = angles.as_tuple()
    s, t, u, C, a, b = consts.s, consts.t, consts.u, consts.C, consts.a, consts.b
    rC = math.sqrt(C)
    f_scale = t / (1 + t * t)
    maps = {
        "f1": Similitude(1 / (1 + t * t), 0.0, False, 0.0, 0.0),
        "f2": Similitude(
            t / (s * (1 + t * t)),
            (math.pi - be) % _TWO_PI,
            True,
            a + a * t * math.cos(ga),
            a * t * math.sin(ga),
        ),
        "f3": Similitude(f_scale, ga, False, a, 0.0),
        "f4": Similitude(rC * f_scale, (math.pi + al) % _TWO_PI, True, b * u, 0.0),
        "f5": Similitude(
            rC * f_scale,
            al,
            True,
            b * u + b * t * math.cos(al),
            b * t * math.sin(al),
        ),
        "g1": Similitude(
            u / (rC * (s * t + u)),
            (math.pi - be) % _TWO_PI,
            False,
            a + a * t * math.cos(ga),
            a * t * math.sin(ga),
        ),
        "g2": Similitude(u / (s * t + u), 0.0, False, 0.0, 0.0),
        "g3": Similitude(
            s * t / (s * t + u),
            0.0,
            False,
            b * s * t * t * math.cos(ga),
            b * s * t * t * math.sin(ga),
        ),
    }
    gifs = Gifs(
        angles,
        consts,
        build_prototiles(angles),
        maps,
        min(m.scale**2 for m in maps.values()),
    )
    if validate:
        report = closure_report(gifs)
        if not report["ok"]:
            raise ValueError(f"GIFS closure validation failed: {report}")
    return gifs


def _signed_distances(points, tri):
    """Min signed edge distance of each point to a triangle (inside > 0)."""
    v = np.asarray(tri, dtype=float)
    e1, e2 = v[1] - v[0], v[2] - v[0]
    if float(e1[0] * e2[1] - e1[1] * e2[0]) < 0:
        v = v[::-1]
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dists = []
    for i in range(3):
        e0, e1 = v[i], v[(i + 1) % 3]
        d = e1 - e0
        ln = float(np.linalg.norm(d))
        cross = (d[0] * (pts[:, 1] - e0[1]) - d[1] * (pts[:, 0] - e0[0])) / ln
        dists.append(cross)
    return np.min(np.stack(dists, axis=1), axis=1)


def _sample_points(tri, n, seed=0):
    rng = np.random.default_rng(seed)
    r = rng.random((n, 2))
    flip = r.sum(axis=1) > 1
    r[flip] = 1 - r[flip]
    v = np.asarray(tri, dtype=float)
    return v[0] + r[:, :1] * (v[1] - v[0]) + r[:, 1:] * (v[2] - v[0])


def closure_report(gifs, samples=10**4):
    """Measure how well the eight maps partition the two prototiles."""
    area_defect = 0.0
    containment_defect = 0.0
    overlaps = 0
    for kind in (1, 2):
        parent = gifs.prototile(kind)
        edges = gifs.edges(kind)
        area_defect = max(
            area_defect,
            abs(sum(gifs.maps[e].scale ** 2 for e, _ in edges) - 1.0),
        )
        polys = [
            gifs.maps[e].apply(gifs.prototile(ck).vertices) for e, ck in edges
        ]
        for poly in polys:
            sd = _signed_distances(poly, parent.vertices)
            containment_defect = max(containment_defect, max(0.0, -float(sd.min())))
        pts = _sample_points(parent.vertices, samples)
        inside = np.stack(
            [_signed_distances(pts, poly) > 1e-9 for poly in polys], axis=1
        )
        overlaps += int(np.count_nonzero(inside.sum(axis=1) > 1))
    return {
        "area_defect": area_defect,
        "containment_defect": containment_defect,
        "overlap_samples": overlaps,
        "ok": area_defect <= 1e-12 and containment_defect <= 1e-9 and overlaps == 0,
    }


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


def _place(transforms, local):
    """Similitude.apply for many tiles at once: local[i] (K x 2) under transforms[i].

    The arithmetic is apply's, operation for operation, with c and s from
    math.cos and math.sin of each rotation, so every coordinate is
    bit-identical to a per-tile apply.
    """
    params = np.array(
        [(m.scale, math.cos(m.rotation), math.sin(m.rotation), m.tx, m.ty, m.reflect)
         for m in transforms],
        dtype=float,
    ).reshape(-1, 6)
    scale, c, s, tx, ty, reflect = params.T[:, :, None]
    xs = np.where(reflect != 0, -local[..., 0], local[..., 0])
    ys = local[..., 1]
    out = np.empty_like(local)
    out[..., 0] = scale * (c * xs - s * ys) + tx
    out[..., 1] = scale * (s * xs + c * ys) + ty
    return out


@dataclass(frozen=True)
class Patch:
    """Tiles of one tiling system, with their geometry placed once.

    `vertices` (N x 3 x 2) and `points` (N x 2, the tile centroids) are
    derived from the tiles at construction, so `dataclasses.replace`
    keeps them in step with the tiles.
    """

    epsilon: float
    gifs: Gifs
    tiles: tuple
    vertices: np.ndarray = field(init=False, compare=False, repr=False)
    points: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # each prototile's three vertices and its centroid, placed together
        local = np.stack([np.vstack([p.vertices, p.centroid]) for p in self.gifs.prototiles])
        kinds = np.array([t.kind - 1 for t in self.tiles], dtype=int)
        placed = _place([t.transform for t in self.tiles], local[kinds])
        placed.flags.writeable = False
        object.__setattr__(self, "vertices", placed[:, :3])
        object.__setattr__(self, "points", placed[:, 3])

    def areas(self):
        return [float(t.area) for t in self.tiles]


def subdivide(tile, gifs):
    """The four children of a tile, in the deterministic edge order."""
    children = []
    for edge, child_kind in gifs.edges(tile.kind):
        m = gifs.maps[edge]
        children.append(
            TileInstance(
                child_kind,
                tile.transform.compose(m),
                tile.depth + 1,
                tile.area * Fraction(m.scale) ** 2,
            )
        )
    return children


# one frontier record per tile; cls indexes the exact area in the areas list
_FRONTIER = np.dtype([
    ("kind", np.int64), ("scale", float), ("rotation", float), ("reflect", bool),
    ("tx", float), ("ty", float), ("depth", np.int64), ("cls", np.int64),
])


def _subdivide(gifs, start, thresholds):
    """Leaves of the subdivision tree of `start`, cut at each threshold.

    A tile splits while its exact area exceeds the threshold; thresholds
    must not increase, so each cut refines the one before.  Returns
    (areas, cuts): cuts[i] is a _FRONTIER array of the leaves for
    thresholds[i] in depth-first order, and areas[c] is the exact area of
    class c.
    """
    # the eight edges, kind 1's four then kind 2's, in subdivision order
    edges = [(ck, gifs.maps[e]) for kind in (1, 2) for e, ck in gifs.edges(kind)]
    e_kind = np.array([ck for ck, _ in edges])
    e_scale, e_rot, e_tx, e_ty = (
        np.array([getattr(m, f) for _, m in edges]) for f in ("scale", "rotation", "tx", "ty")
    )
    e_reflect = np.array([m.reflect for _, m in edges])
    e_sq = [Fraction(m.scale) ** 2 for _, m in edges]
    areas = [Fraction(1)]
    index = {areas[0]: 0}
    child_cls = {}  # (class, edge) -> class

    def child_class(key):
        cls, edge = divmod(key, 8)
        if (cls, edge) not in child_cls:
            area = areas[cls] * e_sq[edge]
            if area not in index:
                index[area] = len(areas)
                areas.append(area)
            child_cls[cls, edge] = index[area]
        return child_cls[cls, edge]

    tiles = np.array([(start, _IDENTITY.scale, _IDENTITY.rotation, _IDENTITY.reflect,
                       _IDENTITY.tx, _IDENTITY.ty, 0, 0)], dtype=_FRONTIER)
    cuts = []
    for threshold in thresholds:
        while True:
            over = np.array([a > threshold for a in areas])
            split = over[tiles["cls"]]
            if not split.any():
                break
            counts = np.where(split, 4, 1)
            tiles = np.repeat(tiles, counts)
            first = (np.cumsum(counts) - counts)[split]
            at = (first[:, None] + np.arange(4)).ravel()  # children's slots
            p = tiles[at]  # each split parent, once per child
            edge = 4 * (p["kind"] - 1) + np.tile(np.arange(4), len(first))
            # Similitude.compose(parent, edge map), operation for operation
            c = np.array(list(map(math.cos, p["rotation"].tolist())))
            s = np.array(list(map(math.sin, p["rotation"].tolist())))
            xs = np.where(p["reflect"], -e_tx[edge], e_tx[edge])
            ys = e_ty[edge]
            kids = p.copy()
            kids["kind"] = e_kind[edge]
            kids["scale"] = p["scale"] * e_scale[edge]
            kids["rotation"] = np.mod(
                p["rotation"] + np.where(p["reflect"], -e_rot[edge], e_rot[edge]), _TWO_PI
            )
            kids["reflect"] = p["reflect"] != e_reflect[edge]
            kids["tx"] = p["scale"] * (c * xs - s * ys) + p["tx"]
            kids["ty"] = p["scale"] * (s * xs + c * ys) + p["ty"]
            kids["depth"] = p["depth"] + 1
            keys, inverse = np.unique(8 * p["cls"] + edge, return_inverse=True)
            kids["cls"] = np.array([child_class(k) for k in keys.tolist()])[inverse]
            tiles[at] = kids
        cuts.append(tiles)
    return areas, cuts


def _tile_instances(kind, scale, rotation, reflect, tx, ty, depth, area):
    """TileInstances from columns: arrays of the pose, plus a list of areas."""
    return tuple(
        TileInstance(k, Similitude(m, r, f, x, y), d, a)
        for k, m, r, f, x, y, d, a in zip(
            kind.tolist(), scale.tolist(), rotation.tolist(), reflect.tolist(),
            tx.tolist(), ty.tolist(), depth.tolist(), area,
        )
    )


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
    eps = Fraction(epsilon)
    areas, (leaves,) = _subdivide(gifs, start, [eps])
    lam = 1 / math.sqrt(epsilon)
    inflated = [a / eps for a in areas]
    tiles = _tile_instances(
        leaves["kind"], leaves["scale"] * lam, leaves["rotation"], leaves["reflect"],
        leaves["tx"] * lam, leaves["ty"] * lam, leaves["depth"],
        map(inflated.__getitem__, leaves["cls"].tolist()),
    )
    return Patch(epsilon, gifs, tiles)


def stationary_sequence(gifs, n):
    """Patches P_0..P_n that reproduce each other under the e0-rule.

    e0 = scale(f3)^2; P_k is the e0^k patch of the scalene tile, re-anchored
    at the k-fold f3-image of the origin, inflated by e0^(-k/2), and rotated
    by -k*gamma — each P_(k-1) tile then recurs as a tile of P_k.
    """
    if n > 6:
        raise ValueError("n capped at 6 (tile count grows like e0^-n)")
    if n < 0:
        raise ValueError("n must be >= 0")
    ga = gifs.angles.gamma
    f3 = gifs.maps["f3"]
    eps0 = f3.scale**2
    thresholds = [Fraction(eps0) ** k for k in range(n + 1)]
    areas, cuts = _subdivide(gifs, 1, thresholds)
    patches = []
    anchor = np.zeros(2)
    for k, (threshold, t) in enumerate(zip(thresholds, cuts)):
        lam = eps0 ** (-k / 2)
        rot = (-k * ga) % _TWO_PI
        c, s_ = math.cos(rot), math.sin(rot)
        off = lam * np.array([c * anchor[0] - s_ * anchor[1], s_ * anchor[0] + c * anchor[1]])
        # world.compose(tile transform) for the unreflected world map
        world = Similitude(lam, rot, False, -float(off[0]), -float(off[1]))
        scaled = [a / threshold for a in areas]
        tiles = _tile_instances(
            t["kind"],
            world.scale * t["scale"],
            np.mod(world.rotation + t["rotation"], _TWO_PI),
            t["reflect"],
            world.scale * (c * t["tx"] - s_ * t["ty"]) + world.tx,
            world.scale * (s_ * t["tx"] + c * t["ty"]) + world.ty,
            t["depth"],
            map(scaled.__getitem__, t["cls"].tolist()),
        )
        patches.append(Patch(float(eps0**k), gifs, tiles))
        anchor = f3.apply(anchor)
    return patches


def recurs_in(patch, other, tol=1e-6):
    """Per tile of `patch`: does `other` hold a tile in the same pose?

    Same pose means the same kind and reflection parity, with scale,
    orientation (mod 2*pi) and centroid each within tol.  A KD-tree over
    the centroids of `other` yields the candidates, so only tiles within
    tol of each other are compared.
    """
    from scipy.spatial import cKDTree

    near = cKDTree(other.points).query_ball_point(patch.points, tol)

    def same_pose(a, b):
        gap = abs(a.orientation - b.orientation) % _TWO_PI
        return (
            a.kind == b.kind
            and a.parity == b.parity
            and abs(a.transform.scale - b.transform.scale) <= tol
            and min(gap, _TWO_PI - gap) <= tol
        )

    return [
        any(same_pose(tile, other.tiles[j]) for j in cands)
        for tile, cands in zip(patch.tiles, near)
    ]


def stationary_nesting_ok(patches, tol=1e-6):
    """Does every tile of P_(k-1) recur in P_k (kind, pose, position)?"""
    return all(all(recurs_in(prev, cur, tol)) for prev, cur in zip(patches, patches[1:]))


def orientation_angles(patch):
    """(rotation mod 2*pi, reflection parity) per tile, in patch order."""
    return [(t.orientation, t.parity) for t in patch.tiles]


def patch_doc(patch):
    """The patch as a JSON-ready dict (tile transforms plus centroid points)."""
    return {
        "epsilon": patch.epsilon,
        "angles": list(patch.gifs.angles.as_tuple()),
        "tiles": [
            {
                "kind": t.kind,
                "scale": t.transform.scale,
                "rotation": t.transform.rotation,
                "reflect": t.transform.reflect,
                "translation": [t.transform.tx, t.transform.ty],
                "depth": t.depth,
            }
            for t in patch.tiles
        ],
        "points": patch.points.tolist(),
    }


_PLAIN_TEXT = {
    float: float.__repr__, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__,
}


def _json_texts(values):
    """json.dumps's text for each scalar in values.

    json writes a finite float as float.__repr__ and an int as int.__repr__,
    so a column of one such type maps through that function alone; any
    other column goes value by value through json.dumps.
    """
    types = set(map(type, values))
    fast = _PLAIN_TEXT.get(types.pop()) if len(types) == 1 else None
    if fast is float.__repr__ and not all(map(math.isfinite, values)):
        fast = None
    return list(map(fast or json.dumps, values))


# patch_doc's layout under json.dumps(..., indent=2), one value per %s
_DOC_TEMPLATE = """{
  "epsilon": %s,
  "angles": [
    %s,
    %s,
    %s
  ],
  "tiles": %s,
  "points": %s
}"""
_TILE_TEMPLATE = """    {
      "kind": %s,
      "scale": %s,
      "rotation": %s,
      "reflect": %s,
      "translation": [
        %s,
        %s
      ],
      "depth": %s
    }"""
_POINT_TEMPLATE = """    [
      %s,
      %s
    ]"""


def _indent(text, pad):
    return pad + text.replace("\n", "\n" + pad)


def _doc_text(patch, pad):
    """patch_doc(patch) as json.dumps(..., indent=2) lays it out, each line
    indented by `pad` more."""
    tr = [t.transform for t in patch.tiles]
    columns = (
        [t.kind for t in patch.tiles], [m.scale for m in tr], [m.rotation for m in tr],
        [m.reflect for m in tr], [m.tx for m in tr], [m.ty for m in tr],
        [t.depth for t in patch.tiles],
    )
    tile, point = _indent(_TILE_TEMPLATE, pad), _indent(_POINT_TEMPLATE, pad)
    tiles = [tile % v for v in zip(*map(_json_texts, columns))]
    points = [point % v for v in zip(*map(_json_texts, patch.points.T.tolist()))]

    def block(items):
        return "[\n" + ",\n".join(items) + "\n" + pad + "  ]" if items else "[]"

    return _indent(_DOC_TEMPLATE, pad) % (
        json.dumps(patch.epsilon), *_json_texts(patch.gifs.angles.as_tuple()),
        block(tiles), block(points),
    )


def patch_to_json(patches):
    """A patch, or a list of patches, as json.dumps(patch_doc(...), indent=2)
    writes it, byte for byte, without the pure-Python encoder's cost."""
    if isinstance(patches, Patch):
        return _doc_text(patches, "")
    if not patches:
        return "[]"
    return "[\n" + ",\n".join(_doc_text(p, "  ") for p in patches) + "\n]"


_TILE_KEYS = ("kind", "scale", "rotation", "reflect", "translation", "depth")
_TILE_KEYS_SET = frozenset(_TILE_KEYS)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _check_tiles(tiles):
    """Raise ValueError naming the first tile that is not as patch_doc writes it."""
    for i, t in enumerate(tiles):
        if not isinstance(t, dict) or any(k not in t for k in _TILE_KEYS):
            raise ValueError(f"tile {i} needs the keys {', '.join(_TILE_KEYS)}")
        tr = t["translation"]
        if (
            not (_is_int(t["kind"]) and t["kind"] in (1, 2))
            or not (_is_number(t["scale"]) and t["scale"] > 0)
            or not _is_number(t["rotation"])
            or not isinstance(t["reflect"], bool)
            or not (isinstance(tr, list) and len(tr) == 2 and all(map(_is_number, tr)))
            or not (_is_int(t["depth"]) and t["depth"] >= 0)
        ):
            raise ValueError(f"tile {i} is malformed: {t}")


def _plain_columns(kind, scale, rotation, reflect, translation, depth):
    """Column checks that pass only when _check_tiles would pass too.

    They accept the plain JSON types (int, float, bool, list), so a
    document read by json.load is checked here without a per-tile loop.
    """
    if not (set(map(type, translation)) == {list} and set(map(len, translation)) == {2}):
        return False
    numbers = (scale, rotation, [p[0] for p in translation], [p[1] for p in translation])
    if not (
        set(map(type, kind)) == {int} and set(kind) <= {1, 2}
        and set(map(type, depth)) == {int} and min(depth) >= 0
        and set(map(type, reflect)) == {bool}
        and all(set(map(type, col)) <= {int, float} for col in numbers)
    ):
        return False
    try:
        values = np.array(numbers, dtype=float)
    except OverflowError:
        return False
    return bool(np.isfinite(values).all() and (values[0] > 0).all())


def _check_patch_doc(doc):
    """Raise ValueError unless doc has the shape patch_doc writes.

    Returns the tiles by column: kind, scale, rotation, reflect,
    translation and depth lists.
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
    # _check_tiles runs only when a cheap check fails, to name the first bad tile
    if not (set(map(type, tiles)) == {dict} and all(map(_TILE_KEYS_SET.issubset, tiles))):
        _check_tiles(tiles)
    columns = tuple([t[k] for t in tiles] for k in _TILE_KEYS)
    if not _plain_columns(*columns):
        _check_tiles(tiles)
    return columns


def patch_from_doc(doc):
    """Rebuild a Patch from its JSON dict; tile area is scale squared.

    Raises ValueError when the document does not have patch_doc's shape.
    """
    kind, scale, rotation, reflect, translation, depth = _check_patch_doc(doc)
    gifs = build_gifs(Angles(*doc["angles"]), validate=False)
    area = {v: Fraction(v) ** 2 for v in set(scale)}
    tiles = tuple(
        TileInstance(k, Similitude(float(m), float(r), f, float(x), float(y)), d, area[m])
        for k, m, r, f, (x, y), d in zip(kind, scale, rotation, reflect, translation, depth)
    )
    return Patch(float(doc["epsilon"]), gifs, tiles)
