"""Graph-directed IFS engine for the two-prototile triangle system.

Given an angle triple (alpha, beta, gamma) with gamma < pi/2, this module
builds the scalene/isosceles prototile pair of unit area, the eight
contractive similitudes whose unions reproduce the prototiles, and runs
the area-threshold subdivision that yields finite patches, their centroid
point sets, and the rotated stationary patch sequence.

All geometry is double precision; subdivision stopping areas are tracked
as exact Fractions of the float scale factors so patch shape never
depends on summation order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.spatial import cKDTree

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
    "point_set",
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
    angles: Angles
    consts: DerivedConstants
    prototiles: tuple
    maps: dict
    a_min: float

    def prototile(self, kind):
        return self.prototiles[kind - 1]

    def edges(self, kind):
        return T1_EDGES if kind == 1 else T2_EDGES


def build_gifs(angles, validate=True, samples=10**4):
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
        report = closure_report(gifs, samples=samples)
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

    def polygon(self, gifs):
        return self.transform.apply(gifs.prototile(self.kind).vertices)

    def centroid(self, gifs):
        return self.transform.apply(gifs.prototile(self.kind).centroid)


@dataclass(frozen=True)
class Patch:
    epsilon: float
    angles: Angles
    tiles: tuple
    a_min: float

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


def _subdivide_to_threshold(gifs, start, threshold):
    """Depth-first subdivision: split while area > threshold (exact compare)."""
    root = TileInstance(start, _IDENTITY, 0, Fraction(1))
    out = []
    stack = [root]
    while stack:
        tile = stack.pop()
        if tile.area > threshold:
            stack.extend(reversed(subdivide(tile, gifs)))
        else:
            out.append(tile)
    return out


def epsilon_rule(start, epsilon, angles, gifs=None):
    """Subdivide the start prototile while Area > epsilon, then inflate.

    Inflation by 1/sqrt(epsilon) about the origin brings every tile area
    into [a_min, 1] and the total to 1/epsilon, so there are at most
    1/(a_min*epsilon) tiles; that count is capped at MAX_EPSILON_TILES.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    if start not in (1, 2):
        raise ValueError("start prototile must be 1 or 2")
    if gifs is None:
        gifs = build_gifs(angles, validate=False)
    bound = 1 / (gifs.a_min * epsilon)
    if bound > MAX_EPSILON_TILES:
        raise ValueError(
            f"epsilon={epsilon} allows up to {bound:.3g} tiles, above the cap of {MAX_EPSILON_TILES}"
        )
    eps = Fraction(epsilon)
    tiles = _subdivide_to_threshold(gifs, start, eps)
    lam = 1 / math.sqrt(epsilon)
    inflated = tuple(
        TileInstance(
            t.kind,
            Similitude(
                t.transform.scale * lam,
                t.transform.rotation,
                t.transform.reflect,
                t.transform.tx * lam,
                t.transform.ty * lam,
            ),
            t.depth,
            t.area / eps,
        )
        for t in tiles
    )
    return Patch(epsilon, angles, inflated, gifs.a_min)


def point_set(patch, gifs=None):
    """One point per tile: the image of its prototile's centroid."""
    if gifs is None:
        gifs = build_gifs(patch.angles, validate=False)
    if not patch.tiles:
        return np.empty((0, 2))
    return np.stack([t.centroid(gifs) for t in patch.tiles])


def stationary_sequence(angles, n, gifs=None):
    """Patches P_0..P_n that reproduce each other under the e0-rule.

    e0 = scale(f3)^2; P_k is the e0^k patch of the scalene tile, re-anchored
    at the k-fold f3-image of the origin, inflated by e0^(-k/2), and rotated
    by -k*gamma — each P_(k-1) tile then recurs as a tile of P_k.
    """
    if n > 6:
        raise ValueError("n capped at 6 (tile count grows like e0^-n)")
    if n < 0:
        raise ValueError("n must be >= 0")
    if gifs is None:
        gifs = build_gifs(angles, validate=False)
    ga = angles.gamma
    f3 = gifs.maps["f3"]
    eps0 = f3.scale**2
    patches = []
    anchor = np.zeros(2)
    for k in range(n + 1):
        threshold = Fraction(eps0) ** k
        tiles = _subdivide_to_threshold(gifs, 1, threshold)
        lam = eps0 ** (-k / 2)
        rot = (-k * ga) % _TWO_PI
        c, s_ = math.cos(rot), math.sin(rot)
        off = lam * np.array([c * anchor[0] - s_ * anchor[1], s_ * anchor[0] + c * anchor[1]])
        world = Similitude(lam, rot, False, -float(off[0]), -float(off[1]))
        placed = tuple(
            TileInstance(t.kind, world.compose(t.transform), t.depth, t.area / threshold)
            for t in tiles
        )
        patches.append(Patch(float(eps0**k), angles, placed, gifs.a_min))
        anchor = f3.apply(anchor)
    return patches


def recurs_in(patch, other, gifs=None, tol=1e-6):
    """Per tile of `patch`: does `other` hold a tile in the same pose?

    Same pose means the same kind and reflection parity, with scale,
    orientation (mod 2*pi) and centroid each within tol.  A KD-tree over
    the centroids of `other` yields the candidates, so only tiles within
    tol of each other are compared.
    """
    if gifs is None:
        gifs = build_gifs(patch.angles, validate=False)
    near = cKDTree(point_set(other, gifs)).query_ball_point(point_set(patch, gifs), tol)

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


def stationary_nesting_ok(patches, gifs=None, tol=1e-6):
    """Does every tile of P_(k-1) recur in P_k (kind, pose, position)?"""
    if gifs is None:
        gifs = build_gifs(patches[0].angles, validate=False)
    return all(
        all(recurs_in(prev, cur, gifs, tol)) for prev, cur in zip(patches, patches[1:])
    )


def orientation_angles(patch):
    """(rotation mod 2*pi, reflection parity) per tile, in patch order."""
    return [(t.orientation, t.parity) for t in patch.tiles]


def patch_doc(patch, points=None, gifs=None):
    """The patch as a JSON-ready dict (tile transforms plus centroid points)."""
    if points is None:
        points = point_set(patch, gifs)
    return {
        "epsilon": patch.epsilon,
        "angles": list(patch.angles.as_tuple()),
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
        "points": [[float(x), float(y)] for x, y in np.asarray(points)],
    }


def patch_to_json(patch, points=None, gifs=None):
    """Serialize a patch (and its centroid points) as deterministic JSON."""
    return json.dumps(patch_doc(patch, points, gifs), indent=2)


_TILE_KEYS = ("kind", "scale", "rotation", "reflect", "translation", "depth")


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _check_patch_doc(doc):
    """Raise ValueError unless doc has the shape patch_doc writes."""
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
    if not isinstance(doc["tiles"], list) or not doc["tiles"]:
        raise ValueError("patch tiles must be a non-empty list")
    for i, t in enumerate(doc["tiles"]):
        if not isinstance(t, dict) or any(k not in t for k in _TILE_KEYS):
            raise ValueError(f"tile {i} needs the keys {', '.join(_TILE_KEYS)}")
        tr = t["translation"]
        if (
            t["kind"] not in (1, 2)
            or not (_is_number(t["scale"]) and t["scale"] > 0)
            or not _is_number(t["rotation"])
            or not isinstance(t["reflect"], bool)
            or not (isinstance(tr, list) and len(tr) == 2 and all(map(_is_number, tr)))
            or not (isinstance(t["depth"], int) and t["depth"] >= 0)
        ):
            raise ValueError(f"tile {i} is malformed: {t}")


def patch_from_doc(doc):
    """Rebuild a Patch from its JSON dict; tile area is scale squared.

    Raises ValueError when the document does not have patch_doc's shape.
    """
    _check_patch_doc(doc)
    angles = Angles(*doc["angles"])
    gifs = build_gifs(angles, validate=False)
    tiles = tuple(
        TileInstance(
            int(t["kind"]),
            Similitude(
                float(t["scale"]),
                float(t["rotation"]),
                t["reflect"],
                float(t["translation"][0]),
                float(t["translation"][1]),
            ),
            t["depth"],
            Fraction(t["scale"]) ** 2,
        )
        for t in doc["tiles"]
    )
    return Patch(float(doc["epsilon"]), angles, tiles, gifs.a_min)
