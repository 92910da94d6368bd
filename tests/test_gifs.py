"""Tests for the two-prototile graph-directed IFS engine."""

import ast
import dataclasses
import hashlib
import json
import math
import random
import re
import sys
from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from badtri.delone import analysis_report
from badtri.gifs import (
    _SPLIT,
    _TILE,
    _compose,
    _gifs_of,
    _orientations,
    _place,
    _subdivide,
    POSE_TOL,
    PRESETS,
    Angles,
    MAX_EPSILON_TILES,
    Gifs,
    Patch,
    build_gifs,
    build_prototiles,
    closure_report,
    derive_constants,
    epsilon_rule,
    nested_in,
    orientation_discrepancy,
    patch_from_doc,
    patch_texts,
    patch_to_json,
    stationary_nesting_ok,
    stationary_sequence,
)
from badtri.theorems import MAIN_SOLUTIONS
from oracles import (IDENTITY, Similitude, TileInstance, compose, kd_recurs_in, patch_doc,
                     similitude, subdivide)


def export_svg(patch, prev_patch=None):
    """The SVG that `export` writes for `patch` as the step after `prev_patch`."""
    steps = [patch] if prev_patch is None else [prev_patch, patch]
    return list(patch_texts(steps, ("svg",))["svg"])[-1]


def cross2(u, v):
    return float(u[0] * v[1] - u[1] * v[0])


def random_angles(rng):
    while True:
        ga = rng.uniform(0.2, 1.47)
        al = rng.uniform(0.2, math.pi - ga - 0.25)
        be = math.pi - al - ga
        if be > 0.15:
            return Angles(al, be, ga)


def test_angles_validation():
    with pytest.raises(ValueError):
        Angles(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        Angles(-0.5, math.pi - 0.5, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="angles must be finite"):
            Angles(bad, bad, bad)
    with pytest.raises(ValueError, match="angles must be finite"):
        Angles(math.nan, math.pi - 1.0, 1.0)
    a = Angles(0.7, 0.9, math.pi - 1.6)
    assert abs(sum(a.as_tuple()) - math.pi) <= 1e-12


def test_presets_sum_to_pi():
    for name, ang in PRESETS.items():
        assert abs(sum(ang.as_tuple()) - math.pi) <= 1e-12, name
    o1 = PRESETS["optimal1"]
    assert o1.beta == o1.gamma
    assert abs(o1.alpha - (2 - math.sqrt(3)) * math.pi) <= 1e-15
    o2 = PRESETS["optimal2"]
    assert abs(o2.alpha - (math.sqrt(2) - 1) * math.pi) <= 1e-15


# the nine preset angles, as (2 - sqrt 3) pi, (sqrt 3 - 1) pi / 2,
# (sqrt 2 - 1) pi, (2 - sqrt 2) pi / 2 and pi / 3 evaluate in floats
_PRESET_HEX = {
    "equilateral": ("0x1.0c152382d7365p+0",) * 3,
    "optimal1": ("0x1.aefebbd8bd1d8p-1", "0x1.2660064e138a2p+0", "0x1.2660064e138a2p+0"),
    "optimal2": ("0x1.4d215c2ed3161p+0", "0x1.d71e0e59b28cfp-1", "0x1.d71e0e59b28cfp-1"),
}


def test_presets_are_pi_times_the_verified_triples():
    # optimal1 is MAIN_SOLUTIONS[0] as (x, y, z), optimal2 MAIN_SOLUTIONS[1]
    # as (z, x, y); each angle is pi times its exact value, bit for bit
    x1, y1, z1 = MAIN_SOLUTIONS[0].values()
    x2, y2, z2 = MAIN_SOLUTIONS[1].values()
    exact = {"equilateral": (Fraction(1, 3),) * 3, "optimal1": (x1, y1, z1),
             "optimal2": (z2, x2, y2)}
    assert list(PRESETS) == list(_PRESET_HEX) == list(exact)
    for name, angles in PRESETS.items():
        assert tuple(a.hex() for a in angles.as_tuple()) == _PRESET_HEX[name], name
        assert exact[name][0] + exact[name][1] + exact[name][2] == 1, name
        assert angles.as_tuple() == tuple(math.pi * float(v) for v in exact[name]), name


def test_equilateral_constants_are_one():
    c = derive_constants(PRESETS["equilateral"])
    for v in (c.s, c.t, c.u, c.C):
        assert abs(v - 1.0) <= 1e-12


def test_obtuse_gamma_rejected():
    with pytest.raises(ValueError):
        derive_constants(Angles(0.5, 0.5, math.pi - 1.0))
    with pytest.raises(ValueError):
        build_prototiles(Angles(0.4, 0.4, math.pi - 0.8))


def test_c_equals_b_over_a_squared():
    rng = random.Random(42)
    for _ in range(50):
        c = derive_constants(random_angles(rng))
        assert abs(c.C - (c.b / c.a) ** 2) <= 1e-9 * c.C


def test_isoceles_angles_force_c_one():
    # beta == gamma makes the two prototiles similar, so C collapses to 1
    for name in ("optimal1", "optimal2"):
        c = derive_constants(PRESETS[name])
        assert abs(c.C - 1.0) <= 1e-12


def test_equilateral_prototile_vertices():
    t1, t2 = build_prototiles(PRESETS["equilateral"])
    side = 2 / 3**0.25
    expect = np.array([[0, 0], [side, 0], [side / 2, side * math.sqrt(3) / 2]])
    assert np.allclose(t1.vertices, expect, atol=1e-12)
    assert np.allclose(t2.vertices, expect, atol=1e-12)


def test_prototiles_unit_area_and_radii():
    rng = random.Random(7)
    for _ in range(20):
        ang = random_angles(rng)
        for tile in build_prototiles(ang):
            v = tile.vertices
            area = abs(cross2(v[1] - v[0], v[2] - v[0])) / 2
            assert abs(area - 1.0) <= 1e-12
            assert 0 < tile.r0 <= tile.R0
            # ball of radius r0 about the centroid stays inside the tile
            for th in np.linspace(0, 2 * math.pi, 17):
                p = tile.centroid + (tile.r0 - 1e-12) * np.array(
                    [math.cos(th), math.sin(th)]
                )
                assert _inside(p, v)
            # every vertex is within R0 of the centroid
            for p in v:
                assert np.linalg.norm(p - tile.centroid) <= tile.R0 + 1e-12


def _inside(p, tri):
    v = np.asarray(tri, float)
    if cross2(v[1] - v[0], v[2] - v[0]) < 0:
        v = v[::-1]
    return all(
        cross2(v[(i + 1) % 3] - v[i], p - v[i]) >= -1e-12 for i in range(3)
    )


def test_equilateral_scales_are_half():
    g = build_gifs(PRESETS["equilateral"])
    for name, m in g.maps.items():
        assert abs(similitude(m).scale - 0.5) <= 1e-12, name
    assert abs(g.a_min - 0.25) <= 1e-12


def test_similitude_compose_matches_pointwise():
    rng = random.Random(42)
    pts = np.array([[rng.uniform(-2, 2), rng.uniform(-2, 2)] for _ in range(8)])
    for _ in range(40):
        a = Similitude(
            rng.uniform(0.2, 2),
            rng.uniform(0, 2 * math.pi),
            rng.random() < 0.5,
            rng.uniform(-1, 1),
            rng.uniform(-1, 1),
        )
        b = Similitude(
            rng.uniform(0.2, 2),
            rng.uniform(0, 2 * math.pi),
            rng.random() < 0.5,
            rng.uniform(-1, 1),
            rng.uniform(-1, 1),
        )
        assert np.allclose(compose(a, b).apply(pts), a.apply(b.apply(pts)), atol=1e-12)


# closure_report of the presets, and the sha256 of the repr of its reports
# for the first 20 systems of random_angles(random.Random(42)): the values
# that placing each child by oracles.Similitude.apply gives.  The area
# defects are those the area sum gave before delta replaced containment
# and separating-axis overlap; the deltas are pinned from that change
_CLOSURE = {
    "equilateral": {"area_defect": 0.0, "delta": 7.021666937153402e-16,
                    "edge_points_inside": True, "ok": True},
    "optimal1": {"area_defect": 2.220446049250313e-16, "delta": 2.7119179988510344e-16,
                 "edge_points_inside": True, "ok": True},
    "optimal2": {"area_defect": 0.0, "delta": 5.07321899495461e-16,
                 "edge_points_inside": True, "ok": True},
}
_RANDOM_CLOSURE_SHA256 = "f3ae101fa761dd50efce6465f79100ffef1b6c70c60e668bc14fc15d8cc18a82"
_RANDOM_AREA_DEFECTS_SHA256 = "56b17be4ca9f19985eba4848fa5a52301e7ae4cdd1459781bcef65212a1ed225"


def test_closure_presets():
    for name, ang in PRESETS.items():
        rep = closure_report(build_gifs(ang))
        assert rep["area_defect"] <= 1e-12, name
        assert rep["delta"] <= 5e-10 and rep["edge_points_inside"] is True, name
        assert rep == _CLOSURE[name], name
        assert all(type(v) in (float, bool) for v in rep.values()), name


def test_closure_random_triples():
    rng = random.Random(42)
    reports = []
    for _ in range(20):
        ang = random_angles(rng)
        rep = closure_report(build_gifs(ang))
        assert rep["ok"], (ang, rep)
        reports.append(rep)
    assert hashlib.sha256(repr(reports).encode()).hexdigest() == _RANDOM_CLOSURE_SHA256
    areas = repr([rep["area_defect"] for rep in reports])
    assert hashlib.sha256(areas.encode()).hexdigest() == _RANDOM_AREA_DEFECTS_SHA256


_TWO_PI = 2 * math.pi
# a pose (scale, rotation, reflect, tx, ty); rotations also within 1e-15 of 2*pi
_POSES = st.tuples(
    st.floats(1e-3, 1e3),
    st.floats(0.0, _TWO_PI, exclude_max=True) | st.floats(_TWO_PI - 1e-15, _TWO_PI + 1e-15),
    st.booleans(),
    st.floats(-1e6, 1e6),
    st.floats(-1e6, 1e6),
)
_LOCAL = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0])


def _float_bits(a):
    """The 64-bit patterns of a float array: -0.0 differs from 0.0."""
    return np.asarray(a, dtype=float).view(np.int64).tolist()


@settings(max_examples=300)
@given(st.lists(_POSES, min_size=1, max_size=4),
       st.lists(st.tuples(_LOCAL, _LOCAL), min_size=1, max_size=4))
def test_place_is_similitude_apply_bit_for_bit(poses, points):
    tiles = np.array([(1, *pose, 0) for pose in poses], dtype=_TILE)
    local = np.array(points)
    want = [similitude(t).apply(local) for t in tiles]
    assert _float_bits(_place(tiles, np.stack([local] * len(tiles)))) == _float_bits(want)
    # one record places every local point set
    assert _float_bits(_place(tiles[:1], np.stack([local] * 2))) == _float_bits([want[0]] * 2)


def _pose_bits(m):
    """A Similitude's reflect flag and the bits of its four floats."""
    return (m.reflect, *_float_bits([m.scale, m.rotation, m.tx, m.ty]))


@settings(max_examples=300)
@given(st.lists(st.tuples(_POSES, _POSES), min_size=1, max_size=4))
def test_compose_is_the_oracles_compose_bit_for_bit(pairs):
    outer = np.array([(1, *a, 0) for a, _ in pairs], dtype=_TILE)
    inner = np.array([(2, *b, 3) for _, b in pairs], dtype=_TILE)
    for out in (outer, outer[:1]):  # an outer record per inner one, or one for all
        got = _compose(out, inner)
        assert got[["kind", "depth"]].tolist() == inner[["kind", "depth"]].tolist()
        for o, i, g in zip(np.resize(out, len(inner)), inner, got):
            assert _pose_bits(similitude(g)) == _pose_bits(compose(similitude(o), similitude(i)))


def _perturbed(g, edge, dx=0.0, dy=0.0, factor=1.0):
    """g with the map of `edge` moved by (dx, dy) and its scale times factor."""
    maps = dict(g.maps)
    m = maps[edge] = maps[edge].copy()
    m["tx"] += dx
    m["ty"] += dy
    m["scale"] *= factor
    return Gifs(g.angles, g.consts, g.prototiles, maps, g.a_min)


def _report_of(exc):
    """The closure report a 'GIFS closure validation failed' error holds."""
    return ast.literal_eval(str(exc.value).split(": ", 1)[1])


@pytest.mark.parametrize("name, dx", [("optimal1", 1e-5), ("optimal2", 1e-4)])
def test_closure_rejects_thin_overlap(name, dx):
    # areas stay exact and every split point stays inside its edge, but
    # f1's child now overlaps a sibling about dx deep: each of its vertices
    # lies dx from the point the split puts it at
    rep = closure_report(_perturbed(build_gifs(PRESETS[name]), "f1", dx, 0.0))
    assert rep["ok"] is False
    assert rep["area_defect"] <= 1e-12 and rep["edge_points_inside"] is True
    assert rep["delta"] >= dx * (1 - 1e-9)


@pytest.mark.parametrize("name", ["optimal1", "optimal2"])
def test_closure_rejects_every_small_shift(name):
    # a child of an exact split cannot move without taking each of its
    # vertices off the point it shares: 8 maps x 16 directions x 5 sizes,
    # from 1.5 times the delta bound of 5e-10 up; a move of half the bound
    # is within it
    g = build_gifs(PRESETS[name])
    for edge in g.maps:
        for k in range(16):
            th = k * math.pi / 8
            for size in (7.5e-10, 1e-9, 1e-7, 1e-6, 1e-5):
                rep = closure_report(_perturbed(g, edge, size * math.cos(th), size * math.sin(th)))
                assert rep["ok"] is False, (edge, k, size, rep)
                assert rep["area_defect"] <= 1e-12, (edge, k, size, rep)
                assert rep["delta"] >= size * (1 - 1e-6), (edge, k, size, rep)
            half = 2.5e-10
            rep = closure_report(_perturbed(g, edge, half * math.cos(th), half * math.sin(th)))
            assert rep["ok"] is True, (edge, k, rep)


def test_closure_reports_a_nan_map():
    # a nan anywhere in the vertices reaches delta, and fails the check
    rep = closure_report(_perturbed(build_gifs(PRESETS["optimal1"]), "g3", math.nan, 0.0))
    assert math.isnan(rep["delta"]) and rep["ok"] is False


def test_closure_refuses_a_map_that_does_not_contract():
    # t = sin(alpha) / sin(beta) is about 1.7e-9, so f1's scale 1 / (1 + t^2)
    # rounds to 1: its child is the whole parent, and the split point on
    # the first edge sits at that edge's end.  Areas and delta stay within
    # their bounds; the split point's place alone refuses the system
    ang = Angles(1e-9, 2.5, math.pi - 2.5 - 1e-9)
    with pytest.raises(ValueError, match="GIFS closure validation failed") as exc:
        build_gifs(ang)
    rep = _report_of(exc)
    assert rep["area_defect"] <= 1e-12 and rep["delta"] <= 5e-10
    assert rep["edge_points_inside"] is False


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(sorted(_SPLIT)),
       st.floats(-9, -3), st.floats(0, 2 * math.pi),
       st.floats(-9, -2), st.booleans())
def test_closure_accepts_a_system_and_rejects_its_moved_or_rescaled_maps(
        rng, edge, log_shift, th, log_x, shrink):
    g = build_gifs(random_angles(rng))
    assert closure_report(g)["ok"]
    # every vertex of the moved child lies s from its point
    s = 10**log_shift
    assert not closure_report(_perturbed(g, edge, s * math.cos(th), s * math.sin(th)))["ok"]
    # the area sum moves by about 2 * |x| * scale^2, past 1e-12 since each
    # scale^2 of a random_angles system exceeds 1e-3; a factor 1 + 1e-11
    # on a map with scale^2 below 0.05 moves it less than that and passes
    x = 10**log_x * (-1 if shrink else 1)
    assert not closure_report(_perturbed(g, edge, factor=1 + x))["ok"]


def test_closure_catches_drifted_constants(monkeypatch):
    # C = (b/a)^2 holds by algebra; a drift of C in its 11th digit breaks
    # the area sum, and one of a in its 9th digit moves the children
    import badtri.gifs as gifs_module

    derive = gifs_module.derive_constants
    for field, factor, failed in (("C", 1 + 1e-11, "area_defect"), ("a", 1 + 1e-9, "delta")):
        def drifted(angles, field=field, factor=factor):
            consts = derive(angles)
            return dataclasses.replace(consts, **{field: getattr(consts, field) * factor})

        monkeypatch.setattr(gifs_module, "derive_constants", drifted)
        with pytest.raises(ValueError, match="GIFS closure validation failed") as exc:
            build_gifs(PRESETS["optimal1"])
        rep = _report_of(exc)
        bounds = {"area_defect": 1e-12, "delta": 5e-10}
        assert [k for k, bound in bounds.items() if rep[k] > bound] == [failed], rep
        assert rep["edge_points_inside"] is True


def test_build_gifs_validation_raises_on_bad_map():
    g = build_gifs(PRESETS["optimal1"])
    maps = dict(g.maps)
    f3 = maps["f3"] = maps["f3"].copy()
    f3["scale"] *= 1.01
    bad = Gifs(g.angles, g.consts, g.prototiles, maps, g.a_min)
    assert not closure_report(bad)["ok"]


def test_subdivision_vertex_coincidences():
    # interior vertices of the level-1 subdivision, both parents
    rng = random.Random(3)
    for ang in [PRESETS["optimal1"], PRESETS["optimal2"], random_angles(rng)]:
        g = build_gifs(ang)
        c = g.consts
        t1, t2 = g.prototiles
        O, X, Y = t1.vertices
        O2, X2, Y2 = t2.vertices
        f1, f2, f3, f4, f5, g1, g2, g3 = (
            similitude(g.maps[e]) for e in ("f1", "f2", "f3", "f4", "f5", "g1", "g2", "g3"))
        P = np.array([c.a, 0.0])
        assert np.allclose(f1.apply(X), P, atol=1e-9)
        assert np.allclose(f3.apply(O), P, atol=1e-9)
        assert np.allclose(f1.apply(Y), f3.apply(Y), atol=1e-9)
        assert np.allclose(f3.apply(X), f2.apply(O), atol=1e-9)
        assert np.allclose(f2.apply(X), X, atol=1e-9)
        assert np.allclose(f2.apply(Y), P, atol=1e-9)
        assert np.allclose(g1.apply(X2), Y, atol=1e-9)
        assert np.allclose(g1.apply(Y2), f1.apply(Y), atol=1e-9)
        N2 = c.b * c.s * c.t**2 * np.array([math.cos(ang.gamma), math.sin(ang.gamma)])
        P2 = np.array([c.b * c.u, 0.0])
        q2 = P2 + c.b * c.t * np.array([math.cos(ang.alpha), math.sin(ang.alpha)])
        assert np.allclose(g2.apply(Y2), N2, atol=1e-9)
        assert np.allclose(g3.apply(O2), N2, atol=1e-9)
        assert np.allclose(g2.apply(X2), P2, atol=1e-9)
        assert np.allclose(f4.apply(O), P2, atol=1e-9)
        assert np.allclose(g3.apply(X2), q2, atol=1e-9)
        assert np.allclose(f5.apply(O), q2, atol=1e-9)
        assert np.allclose(f4.apply(X), q2, atol=1e-9)
        assert np.allclose(f4.apply(Y), X2, atol=1e-9)
        assert np.allclose(f5.apply(X), P2, atol=1e-9)
        assert np.allclose(f5.apply(Y), N2, atol=1e-9)


def test_subdivide_child_kinds_and_areas():
    g = build_gifs(PRESETS["optimal2"])
    for start, kinds in ((1, (2, 1, 1, 1)), (2, (2, 2, 1, 1))):
        root = TileInstance(start, IDENTITY, 0, Fraction(1))
        kids = subdivide(root, g)
        assert tuple(k.kind for k in kids) == kinds
        assert all(k.depth == 1 for k in kids)
        total = sum(float(k.area) for k in kids)
        assert abs(total - 1.0) <= 1e-12
        # geometric area agrees with the tracked exact area
        for k in kids:
            poly = k.transform.apply(g.prototile(k.kind).vertices)
            geo = abs(cross2(poly[1] - poly[0], poly[2] - poly[0])) / 2
            assert abs(geo - float(k.area)) <= 1e-12


def test_orientation_additivity():
    # child orientation minus parent orientation depends only on the edge
    # label and the parent's parity
    g = build_gifs(PRESETS["optimal1"])
    seen = {}
    frontier = [TileInstance(1, IDENTITY, 0, Fraction(1))]
    for _ in range(3):
        nxt = []
        for tile in frontier:
            for (edge, _), child in zip(g.edges(tile.kind), subdivide(tile, g)):
                delta = (child.orientation - tile.orientation) % (2 * math.pi)
                key = (edge, tile.parity)
                if key in seen:
                    d = abs(seen[key] - delta) % (2 * math.pi)
                    assert min(d, 2 * math.pi - d) <= 1e-12
                else:
                    seen[key] = delta
                assert child.parity == (
                    tile.parity != similitude(g.maps[edge]).reflect
                )
                nxt.append(child)
        frontier = nxt
    assert len(seen) > 8


@pytest.mark.parametrize("eps", [0.2, 0.08, 0.04, 0.02])
def test_epsilon_rule_windows(eps):
    g = build_gifs(PRESETS["optimal1"])
    p = epsilon_rule(1, eps, g)
    areas = (p.tiles["scale"] ** 2).tolist()
    assert min(areas) >= p.gifs.a_min - 1e-12
    assert max(areas) <= 1 + 1e-12
    n = len(p.tiles)
    assert 1 / eps <= n <= 1 / (p.gifs.a_min * eps)
    assert abs(sum(areas) - 1 / eps) <= 1e-9 * n


def test_epsilon_rule_validation():
    g = build_gifs(PRESETS["equilateral"])
    with pytest.raises(ValueError):
        epsilon_rule(1, 1.0, g)
    with pytest.raises(ValueError):
        epsilon_rule(1, 0.0, g)
    with pytest.raises(ValueError):
        epsilon_rule(3, 0.5, g)
    p = epsilon_rule(2, 0.3, g)
    assert len(p.tiles) == 4


def test_epsilon_rule_deterministic():
    a = epsilon_rule(1, 0.05, build_gifs(PRESETS["optimal2"]))
    b = epsilon_rule(1, 0.05, build_gifs(PRESETS["optimal2"]))
    assert _bits(_rows(a)) == _bits(_rows(b))


def test_point_set_inside_tiles():
    g = build_gifs(PRESETS["optimal2"])
    p = epsilon_rule(1, 0.05, g)
    pts = p.points
    assert pts.shape == (len(p.tiles), 2)
    for point, poly in zip(pts, p.vertices):
        assert _inside(point, poly)


def _assert_placed_exactly(patch):
    # the batched placement reproduces Similitude.apply bit for bit
    g = patch.gifs
    assert patch.points.shape == (len(patch.tiles), 2)
    assert patch.vertices.shape == (len(patch.tiles), 3, 2)
    for t, point, verts in zip(patch.tiles, patch.points, patch.vertices):
        proto = g.prototile(t["kind"])
        assert np.array_equal(point, similitude(t).apply(proto.centroid))
        assert np.array_equal(verts, similitude(t).apply(proto.vertices))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_patch_geometry_placed_exactly(name):
    g = build_gifs(PRESETS[name])
    p = epsilon_rule(2, 0.05, g)
    _assert_placed_exactly(p)
    for q in stationary_sequence(g, 3):
        _assert_placed_exactly(q)
    back = patch_from_doc(json.loads(patch_to_json(p)))
    _assert_placed_exactly(back)
    assert np.array_equal(back.points, p.points)
    assert np.array_equal(back.vertices, p.vertices)


def test_replaced_tiles_carry_their_geometry():
    g = build_gifs(PRESETS["optimal1"])
    p = epsilon_rule(1, 0.1, g)
    q = dataclasses.replace(p, tiles=p.tiles[::-2])
    _assert_placed_exactly(q)
    assert np.array_equal(q.points, p.points[::-2])
    assert np.array_equal(q.vertices, p.vertices[::-2])


def test_patches_of_equal_systems_compare_and_hash_equal():
    a, b = (epsilon_rule(1, 0.1, build_gifs(PRESETS["optimal2"]))
            for _ in range(2))
    assert a.gifs is not b.gifs
    assert a == b and hash(a) == hash(b)


def test_stationary_sequence_nesting():
    for name in ("optimal1", "equilateral", "angles"):
        seq = stationary_sequence(build_gifs(SYSTEMS[name]), 4)
        assert len(seq) == 5
        assert len(seq[0].tiles) == 1
        assert _orientation_angles(seq[0]) == [(0.0, False)]
        sizes = [len(p.tiles) for p in seq]
        assert sizes == sorted(sizes) and sizes[-1] > sizes[0]
        assert stationary_nesting_ok(seq)
        _assert_marks_match_a_search(seq)


def _assert_marks_match_a_search(seq):
    """nested_in's marks, of P_(k-1) in P_k and of P_k in P_(k-1), equal
    those of a search for a match anywhere: the tail block of P_k, and
    nothing before it."""
    for prev, cur in zip(seq, seq[1:]):
        marks = nested_in(prev, cur)
        assert marks == kd_recurs_in(prev, cur)
        assert [False] * (len(cur.tiles) - len(prev.tiles)) + marks == kd_recurs_in(cur, prev)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_nested_in_marks_match_a_kd_tree_on_the_presets(name):
    seq = stationary_sequence(build_gifs(PRESETS[name]), 6)
    assert stationary_nesting_ok(seq)
    _assert_marks_match_a_search(seq)


@settings(max_examples=30)
@given(st.floats(0.2, 1.47), st.floats(0.0, 1.0), st.integers(1, 3))
def test_stationary_sequence_nests_for_random_closing_systems(ga, share, n):
    # alpha in [0.2, pi - gamma - 0.25], as random_angles draws it; cutting
    # at the rounded float scale(f3)^2 broke the nesting for about half of these
    al = 0.2 + share * (math.pi - ga - 0.45)
    try:
        g = build_gifs(Angles(al, math.pi - al - ga, ga))
        seq = stationary_sequence(g, n)
    except ValueError:  # not closing, or past the tile cap
        assume(False)
    assert stationary_nesting_ok(seq)
    _assert_marks_match_a_search(seq)


def _tail_swapped():
    """optimal1's P_0..P_2, and P_2 with its last two tiles swapped: the
    same tiles, so every tile of P_1 matches somewhere, but not at the
    index the subdivision order puts it at."""
    seq = stationary_sequence(build_gifs(PRESETS["optimal1"]), 2)
    tiles = seq[2].tiles.copy()
    tiles[[-1, -2]] = tiles[[-2, -1]]
    return seq, dataclasses.replace(seq[2], tiles=tiles)


def test_a_stationary_patch_with_two_tail_tiles_swapped_does_not_nest():
    seq, swapped = _tail_swapped()
    assert all(kd_recurs_in(seq[1], swapped))
    assert nested_in(seq[1], swapped)[-2:] == [False, False]
    assert not stationary_nesting_ok(seq[:2] + [swapped])


def test_export_marks_only_the_tail_index_matches_of_a_hand_made_list():
    seq, swapped = _tail_swapped()
    for a, b in ((swapped, seq[1]), (seq[1], swapped)):
        assert export_svg(a, prev_patch=b).count("tile prev") == len(seq[1].tiles) - 2


def test_nested_in_marks_nothing_when_the_small_patch_is_larger():
    seq = stationary_sequence(build_gifs(PRESETS["optimal1"]), 2)
    assert nested_in(seq[2], seq[1]) == [False] * len(seq[2].tiles)
    assert not stationary_nesting_ok(seq[::-1])


def _centroid(record, gifs):
    return similitude(record).apply(gifs.prototile(record["kind"]).centroid)


def _alter(tiles, i, gifs, shift=(0.0, 0.0), **fields):
    """A copy of tiles with record i's fields changed, its centroid kept + shift."""
    out = tiles.copy()
    for f, v in fields.items():
        out[f][i] = v
    dx, dy = _centroid(tiles[i], gifs) - _centroid(out[i], gifs) + np.asarray(shift)
    out["tx"][i] += dx
    out["ty"][i] += dy
    return out


TOL = POSE_TOL
CHANGES = {
    "rotate": lambda t, i, g: _alter(t, i, g, rotation=t["rotation"][i] + 10 * TOL),
    "parity": lambda t, i, g: _alter(t, i, g, reflect=not t["reflect"][i]),
    "kind": lambda t, i, g: _alter(t, i, g, kind=3 - t["kind"][i]),
    "move": lambda t, i, g: _alter(t, i, g, shift=(10 * TOL, 0.0)),
    "scale": lambda t, i, g: _alter(t, i, g, scale=t["scale"][i] + 10 * TOL),
}


@pytest.mark.parametrize("change", sorted(CHANGES))
def test_recurrence_rejects_changed_tile(change):
    g = build_gifs(PRESETS["optimal1"])
    seq = stationary_sequence(g, 2)
    prev, cur = seq[1], seq[2]
    i = len(cur.tiles) - len(prev.tiles)  # the first tile of P_1 in P_2
    bad = dataclasses.replace(cur, tiles=CHANGES[change](cur.tiles, i, g))
    assert stationary_nesting_ok(seq)
    assert not stationary_nesting_ok(seq[:2] + [bad])
    marked = export_svg(cur, prev_patch=prev).count("tile prev")
    assert marked == len(prev.tiles)
    assert export_svg(bad, prev_patch=prev).count("tile prev") == marked - 1


def test_recurrence_orientation_wraps_at_zero():
    g = build_gifs(PRESETS["optimal2"])
    p = stationary_sequence(g, 1)[1]

    def single(rotation):
        return Patch(1.0, g, _alter(p.tiles, 0, g, rotation=rotation)[:1])

    below, above = single(2 * math.pi - TOL / 4), single(TOL / 4)
    assert nested_in(below, above) == [True]
    assert nested_in(above, below) == [True]
    assert nested_in(single(2 * math.pi - 1.5 * TOL), above) == [False]


def test_stationary_sequence_guard():
    with pytest.raises(ValueError):
        stationary_sequence(build_gifs(PRESETS["equilateral"]), 7)
    with pytest.raises(ValueError):
        stationary_sequence(build_gifs(PRESETS["equilateral"]), -1)
    # a skewed triangle: P_1 has 130 tiles, but P_0..P_2 may hold up to ~5e6
    skewed = build_gifs(Angles(0.2, 1.4, 1.5415926535897931))
    assert sum(len(q.tiles) for q in stationary_sequence(skewed, 1)) == 131
    with pytest.raises(ValueError, match=r"n=2 allows up to [\d.e+]+ tiles, above the cap"):
        stationary_sequence(skewed, 2)


def test_stationary_sequence_0_is_the_start_tile_alone():
    # P_0 holds one tile, however small a_min is: the bound counts it as one
    thin = build_gifs(Angles(0.4534, 1.1174176535897928, 1.570775))
    assert 1 / thin.a_min > MAX_EPSILON_TILES
    (p0,) = stationary_sequence(thin, 0)
    assert len(p0.tiles) == 1


def _orientation_angles(patch):
    """(rotation mod 2*pi, reflection parity) per tile, in patch order."""
    return list(zip(_orientations(patch).tolist(), patch.tiles["reflect"].tolist()))


def test_orientation_angles_range():
    p = epsilon_rule(1, 0.1, build_gifs(PRESETS["optimal1"]))
    for rot, parity in _orientation_angles(p):
        assert 0 <= rot < 2 * math.pi
        assert isinstance(parity, bool)


def test_patch_json_roundtrip_and_stability():
    g = build_gifs(PRESETS["equilateral"])
    p = epsilon_rule(1, 0.2, g)
    s1 = patch_to_json(p)
    s2 = patch_to_json(epsilon_rule(1, 0.2, g))
    assert s1 == s2
    doc = json.loads(s1)
    assert doc["epsilon"] == 0.2
    assert len(doc["tiles"]) == len(p.tiles) == len(doc["points"])
    assert set(doc["tiles"][0]) == {
        "kind", "scale", "rotation", "reflect", "translation", "depth",
    }
    # shortest round-trip decimals: re-serializing the parsed doc is stable,
    # and so is writing the patch read back from it
    assert json.dumps(doc, separators=(",", ":")) == s1
    assert patch_to_json(patch_from_doc(doc)) == s1


# the per-tile reference: depth-first subdivision by the oracles' `subdivide`
# and `compose`, against which the level-by-level arrays must agree


def _dfs_leaves(g, start, threshold):
    out, stack = [], [TileInstance(start, IDENTITY, 0, Fraction(1))]
    while stack:
        tile = stack.pop()
        if tile.area > threshold:
            stack.extend(reversed(subdivide(tile, g)))
        else:
            out.append(tile)
    return out


def _dfs_epsilon_tiles(g, start, epsilon):
    eps, lam = Fraction(epsilon), 1 / math.sqrt(epsilon)
    return [
        TileInstance(
            t.kind,
            Similitude(t.transform.scale * lam, t.transform.rotation, t.transform.reflect,
                       t.transform.tx * lam, t.transform.ty * lam),
            t.depth,
            t.area / eps,
        )
        for t in _dfs_leaves(g, start, eps)
    ]


def _dfs_stationary_tiles(g, n):
    f3 = similitude(g.maps["f3"])
    eps0 = f3.scale**2
    anchor, out = np.zeros(2), []
    for k in range(n + 1):
        threshold = (Fraction(f3.scale) ** 2) ** k
        lam = eps0 ** (-k / 2)
        rot = (-k * g.angles.gamma) % (2 * math.pi)
        c, s = math.cos(rot), math.sin(rot)
        off = lam * np.array([c * anchor[0] - s * anchor[1], s * anchor[0] + c * anchor[1]])
        world = Similitude(lam, rot, False, -float(off[0]), -float(off[1]))
        out.append([
            TileInstance(t.kind, compose(world, t.transform), t.depth, t.area / threshold)
            for t in _dfs_leaves(g, 1, threshold)
        ])
        anchor = f3.apply(anchor)
    return out


_POSE = ("reflect", "scale", "rotation", "tx", "ty")


def _rows(patch):
    """(kind, depth, reflect, scale, rotation, tx, ty) per tile, read from the
    patch's columns."""
    t = patch.tiles
    return zip(t["kind"].tolist(), t["depth"].tolist(), *(t[f].tolist() for f in _POSE))


def _reference_rows(tiles):
    """The same rows from per-tile TileInstances."""
    return [(t.kind, t.depth, *(getattr(t.transform, f) for f in _POSE)) for t in tiles]


def _bits(rows):
    # float.hex tells -0.0 from 0.0, which == does not
    return [(k, d, type(f), f, *map(float.hex, xs)) for k, d, f, *xs in rows]


def _matches_reference(patch, tiles):
    """The patch's rows are the reference's bit for bit, and each tile's
    float area, scale squared, is the reference's exact area."""
    exact = np.array([float(t.area) for t in tiles])
    return (_bits(_rows(patch)) == _bits(_reference_rows(tiles))
            and np.allclose(patch.tiles["scale"] ** 2, exact, rtol=1e-12, atol=0))


SYSTEMS = {**PRESETS, "angles": Angles(0.8, 1.1, 1.2415926535897931)}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.parametrize("start", [1, 2])
@pytest.mark.parametrize("eps", [0.2, 0.02, 0.003])
def test_level_subdivision_matches_depth_first(name, start, eps):
    g = build_gifs(SYSTEMS[name])
    assert _matches_reference(epsilon_rule(start, eps, g), _dfs_epsilon_tiles(g, start, eps))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.parametrize("start", [1, 2])
def test_subdivision_cuts_match_depth_first_at_ties_and_non_dyadic_thresholds(name, start):
    g = build_gifs(SYSTEMS[name])
    # an exact tile area, which the tiles of that area must not exceed
    tie = max(t.area for t in _dfs_leaves(g, start, Fraction(0.02)))
    thresholds = sorted([tie, Fraction(1, 3), Fraction(1, 300)], reverse=True)
    cuts = _subdivide(g, start, thresholds)
    assert any(t.area == tie for t in _dfs_leaves(g, start, tie))
    for threshold in thresholds:
        want = _dfs_leaves(g, start, threshold)
        (alone,) = _subdivide(g, start, [threshold])
        cut = cuts[thresholds.index(threshold)]
        assert alone.tobytes() == cut.tobytes()
        assert _matches_reference(Patch(1.0, g, cut), want)


def test_subdivision_does_no_fraction_arithmetic(monkeypatch):
    g = build_gifs(PRESETS["optimal1"])
    patch, seq = epsilon_rule(1, 0.003, g), stationary_sequence(g, 5)

    def refuse(*args):
        raise AssertionError("Fraction arithmetic")

    for name in ("__mul__", "__gt__", "__hash__"):
        monkeypatch.setattr(Fraction, name, refuse)
    assert epsilon_rule(1, 0.003, g) == patch
    assert stationary_sequence(g, 5) == seq


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_stationary_levels_match_depth_first(name):
    g = build_gifs(SYSTEMS[name])
    seq = stationary_sequence(g, 4)
    assert all(map(_matches_reference, seq, _dfs_stationary_tiles(g, 4)))


def test_patch_to_json_matches_json_dumps():
    g = build_gifs(PRESETS["optimal2"])
    p, q = epsilon_rule(2, 0.05, g), stationary_sequence(g, 2)[2]
    # integer-valued JSON numbers load as ints where patch_from_doc keeps them
    doc = {"angles": [1, 1, 1.1415926535897931], "epsilon": 1, "tiles": [
        {"kind": 1, "scale": 2, "rotation": 0, "reflect": False,
         "translation": [0, -0.0], "depth": 0},
        {"kind": 2, "scale": 0.5, "rotation": 3, "reflect": True,
         "translation": [1, 2], "depth": 3},
    ]}
    r = patch_from_doc(doc)
    compact = dict(separators=(",", ":"))
    for patch in (p, q, r, patch_from_doc(json.loads(patch_to_json(p)))):
        text = patch_to_json(patch)
        assert text == json.dumps(patch_doc(patch), **compact)
        # -0.0 and int-valued fields come back as they were written
        assert patch_to_json(patch_from_doc(json.loads(text))) == text
    for patches in ([p, q], [r, p], [q], []):
        text = patch_to_json(patches)
        assert text == json.dumps([patch_doc(x) for x in patches], **compact)
        assert patch_to_json([patch_from_doc(d) for d in json.loads(text)]) == text
    # a centroid that would overflow to inf makes no patch, so none is written
    tiles = r.tiles.copy()
    tiles["scale"][0] = tiles["tx"][0] = 1e308
    with pytest.raises(ValueError, match=_overflow(0)):
        dataclasses.replace(r, tiles=tiles)


def _overflow(i):
    """The pattern of the error that refuses a patch whose tile i is placed
    outside +-MAX_COORDINATE."""
    return re.escape(f"tile {i} overflows: its placed vertices and centroid must be finite "
                     "and within +-1e+150")


_FIELDS = ("scale", "rotation", "tx", "ty")


def _edge_float_patch():
    """An optimal1 patch whose rotation and translation columns each hold
    0.0, -0.0 and the least subnormal of both signs, and whose scale column,
    which holds only positive floats, the least subnormal and least normal."""
    p = epsilon_rule(1, 0.05, build_gifs(PRESETS["optimal1"]))
    tiles = p.tiles.copy()
    for k, f in enumerate(_FIELDS):
        specials = [5e-324, sys.float_info.min] if f == "scale" else [0.0, -0.0, 5e-324, -5e-324]
        tiles[f][k : k + len(specials)] = specials
    return dataclasses.replace(p, tiles=tiles)


def test_patch_to_json_is_the_encoders_text_for_edge_floats():
    edge = _edge_float_patch()
    for f in _FIELDS[1:]:
        col = edge.tiles[f]
        assert set(np.signbit(col[col == 0]).tolist()) == {False, True}
    assert edge.tiles["scale"][:2].tolist() == [5e-324, sys.float_info.min]
    # nan, +-inf and +-1e308 make no patch, so no writer meets them; a
    # rotation of 1e308 is finite and places the tile within range, and a
    # scale that is not > 0 is refused by name
    for f in _FIELDS:
        for v in (math.nan, -math.nan, math.inf, -math.inf, 1e308, -1e308):
            tiles = edge.tiles.copy()
            tiles[f][3] = v
            if f == "rotation" and math.isfinite(v):
                assert dataclasses.replace(edge, tiles=tiles).tiles["rotation"][3] == v
                continue
            refusal = (re.escape(f"tile 3 has scale {v}, not > 0") if f == "scale" and not v > 0
                       else _overflow(3))
            with pytest.raises(ValueError, match=refusal):
                dataclasses.replace(edge, tiles=tiles)
    empty = dataclasses.replace(edge, tiles=edge.tiles[:0])
    seq = stationary_sequence(build_gifs(PRESETS["equilateral"]), 3)
    compact = dict(separators=(",", ":"))
    for patch in (edge, empty, *seq):
        assert patch_to_json(patch) == json.dumps(patch_doc(patch), **compact)
    for patches in ([edge], [edge, empty, *seq], seq, [empty]):
        assert patch_to_json(patches) == json.dumps([patch_doc(p) for p in patches], **compact)


@pytest.mark.parametrize("kind", [0, 3, -1])
def test_patch_refuses_a_kind_other_than_1_or_2(kind):
    p = epsilon_rule(1, 0.05, build_gifs(PRESETS["optimal1"]))
    tiles = p.tiles.copy()
    tiles["kind"][[4, 6]] = kind
    with pytest.raises(ValueError, match=f"^tile 4 has kind {kind}, not 1 or 2$"):
        dataclasses.replace(p, tiles=tiles)
    with pytest.raises(ValueError, match="tile 0 has kind"):
        Patch(p.epsilon, p.gifs, tiles[4:])


@pytest.mark.parametrize("field, value, text", [
    ("scale", -1.0, "scale -1.0, not > 0"),
    ("scale", 0.0, "scale 0.0, not > 0"),
    ("depth", -3, "depth -3, not >= 0"),
])
def test_patch_refuses_a_scale_not_above_0_or_a_negative_depth(field, value, text):
    p = epsilon_rule(1, 0.1, build_gifs(PRESETS["optimal1"]))
    tiles = p.tiles.copy()
    tiles[field][[2, 5]] = value
    tiles["kind"][4] = 0  # a later tile's kind is named after this one
    with pytest.raises(ValueError, match=f"^tile 2 has {text}$"):
        dataclasses.replace(p, tiles=tiles)
    with pytest.raises(ValueError, match=f"^tile 0 has {text}$"):
        Patch(p.epsilon, p.gifs, tiles[5:])


_WIDE = st.floats(-1e200, 1e200)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([1, 2]), st.floats(0, 1e200, exclude_min=True), _WIDE,
                          st.booleans(), _WIDE, _WIDE, st.integers(0, 2**63 - 1)),
                min_size=1, max_size=6))
def test_patch_holds_only_bounded_geometry(records):
    tiles = np.array(records, dtype=_TILE)
    g = _gifs_of(*PRESETS["optimal1"].as_tuple())
    # the reference: each tile's vertices and centroid under Similitude.apply
    with np.errstate(over="ignore", invalid="ignore"):
        placed = [similitude(t).apply(np.vstack([g.prototile(t["kind"]).vertices,
                                                 g.prototile(t["kind"]).centroid])) for t in tiles]
    outside = [i for i, xy in enumerate(placed) if not (np.abs(xy) <= 1e150).all()]
    if outside:
        with pytest.raises(ValueError, match=_overflow(outside[0])):
            Patch(0.01, g, tiles)
    else:
        p = Patch(0.01, g, tiles)
        assert patch_from_doc(json.loads(patch_to_json(p))) == p


def test_patch_from_doc_columns_are_the_documents_numbers():
    # one float conversion per number, bit for bit, whatever the JSON type
    values = [0, -0.0, 3, 2**53 + 1, 2.5, 1e-300, -7]
    tiles = [
        {"kind": 1, "scale": abs(v) or 1.0, "rotation": v, "reflect": False,
         "translation": [v, -v], "depth": 0}
        for v in values
    ]
    doc = {"angles": [1, 1, 1.1415926535897931], "epsilon": 1, "tiles": tiles}
    p = patch_from_doc(doc)
    for field, column in (
        ("scale", [t["scale"] for t in tiles]),
        ("rotation", values),
        ("tx", values),
        ("ty", [-v for v in values]),
    ):
        assert [x.hex() for x in p.tiles[field].tolist()] == [float(v).hex() for v in column]
    # patch_doc's own dict, with its tuple translations, loads the same way
    q = patch_from_doc(patch_doc(p))
    assert patch_to_json(q) == patch_to_json(p)


def test_patch_from_doc_builds_each_system_once(monkeypatch):
    import badtri.gifs as gifs_module

    calls = []
    monkeypatch.setattr(gifs_module, "build_gifs", lambda a: calls.append(a) or build_gifs(a))
    _gifs_of.cache_clear()
    tile = {"kind": 1, "scale": 1.0, "rotation": 0.0, "reflect": False,
            "translation": [0.0, 0.0], "depth": 0}
    floats = {"angles": [1.0, 1.0, 1.1415926535897931], "epsilon": 0.1, "tiles": [tile]}
    ints = dict(floats, angles=[1, 1, 1.1415926535897931])
    a, b, c = (patch_from_doc(d) for d in (floats, floats, ints))
    assert a.gifs is b.gifs and len(calls) == 2
    # equal angles of another JSON type keep their own system, and their text
    assert patch_to_json(c).startswith('{"epsilon":0.1,"angles":[1,1,')
    assert patch_to_json(a).startswith('{"epsilon":0.1,"angles":[1.0,1.0,')
    # a system that fails to build is not kept: each load raises the same error
    bad = dict(floats, angles=[0.2, 0.2, math.pi - 0.4])
    for _ in range(2):
        with pytest.raises(ValueError, match="gamma must be acute"):
            patch_from_doc(bad)
    assert len(calls) == 4


def test_patch_from_doc_names_first_bad_tile():
    good = {"kind": 1, "scale": 1.0, "rotation": 0.0, "reflect": False,
            "translation": [0.0, 0.0], "depth": 0}
    angles = [1.0, 1.0, 1.1415926535897931]
    for bad, message in (
        (dict(good, kind=3), "tile 1 has kind 3, not 1 or 2"),
        (dict(good, scale=float("nan")), "tile 1 has scale nan, not > 0"),
        (dict(good, translation=[0.0, True]), "tile 1 is malformed"),
        (dict(good, depth=2**63), "tile 1 is malformed"),  # past the int64 depth column
        (dict(good, scale=10**400), "tile 1 is malformed"),  # past the float range
        ({k: v for k, v in good.items() if k != "depth"}, "tile 1 needs the keys"),
        ([1], "tile 1 needs the keys"),
        # not the JSON types patch_doc writes, though a float and a dict
        (dict(good, scale=np.float64(1.0)), "tile 1 is malformed"),
        (OrderedDict(good), "tile 1 is malformed"),
    ):
        doc = {"angles": angles, "epsilon": 0.1, "tiles": [good, bad, dict(good, kind=0)]}
        with pytest.raises(ValueError, match=message):
            patch_from_doc(doc)


# values of the types json.load gives that patch_from_doc refuses, per tile
# key and by the refusal's text: a value of another JSON type or past its
# column's range is malformed, and Patch names the field of the others
_BAD_TILE_VALUES = {
    "kind": {"has kind": [0, 3], "is malformed": [True, 1.0, "1", None, 10**400]},
    "scale": {"has scale": [0, -1.0, -0.0, float("nan")], "overflows": [float("inf")],
              "is malformed": [10**400, False, "1.0"]},
    "rotation": {"overflows": [float("nan"), float("-inf")],
                 "is malformed": [10**400, True, "0", [0.0]]},
    "reflect": {"is malformed": [0, 1, None, "false"]},
    "translation": {"overflows": [[float("nan"), 0.0]],
                    "is malformed": [[0.0, 0.0, 0.0], [0.0], [0.0, 10**400], [True, 0.0], "xy",
                                     {"0": 0.0, "1": 0.0}]},
    "depth": {"has depth": [-1], "is malformed": [2**63, False, 1.0, 10**400, "0"]},
}
_MISSING = object()
# (key, value, error): set the key to the value, drop it, or (key None)
# put the value in place of the whole tile
_TILE_BREAKS = [
    *((key, value, error) for key, errors in _BAD_TILE_VALUES.items()
      for error, values in errors.items() for value in values),
    *((key, _MISSING, "needs the keys") for key in _BAD_TILE_VALUES),
    *((None, value, "needs the keys") for value in (None, 1, "tile", [], [1, 2])),
]


def _broken(tile, key, value):
    if key is None:
        return value
    if value is _MISSING:
        return {k: v for k, v in tile.items() if k != key}
    return {**tile, key: value}


@pytest.fixture(scope="module")
def patch_document():
    p = epsilon_rule(1, 0.001, build_gifs(PRESETS["optimal1"]))
    assert len(p.tiles) > 2 * 1024  # so the first bad tile may lie past the first block
    return p, patch_doc(p)


@settings(max_examples=60)
@given(st.data())
def test_patch_from_doc_names_the_smallest_broken_tile(patch_document, data):
    p, doc = patch_document
    tiles = list(doc["tiles"])
    broken = data.draw(st.lists(st.integers(0, len(tiles) - 1), min_size=1, max_size=3, unique=True))
    errors = {}
    for i in broken:
        key, value, errors[i] = data.draw(st.sampled_from(_TILE_BREAKS))
        tiles[i] = _broken(tiles[i], key, value)
    first = min(broken)
    with pytest.raises(ValueError) as refused:
        patch_from_doc(dict(doc, tiles=tiles))
    assert str(refused.value).startswith(f"tile {first} {errors[first]}")
    # the unbroken document still loads to the patch's own records
    back = patch_from_doc(doc)
    assert all(np.array_equal(back.tiles[f], p.tiles[f]) for f in _TILE.names)


@pytest.mark.parametrize("which", ["epsilon", "stationary"])
def test_patch_json_round_trip_keeps_every_tile_field(which):
    g = build_gifs(PRESETS["optimal1"])
    p = epsilon_rule(2, 0.02, g) if which == "epsilon" else stationary_sequence(g, 4)[4]
    back = patch_from_doc(json.loads(patch_to_json(p)))

    def fields(patch):
        return {
            f: [float.hex(v) if type(v) is float else (type(v), v) for v in patch.tiles[f].tolist()]
            for f in _TILE.names
        }

    assert fields(back) == fields(p)
    assert back == p and hash(back) == hash(p)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_reloaded_patch_equals_the_original(name):
    g = build_gifs(PRESETS[name])
    for p in (epsilon_rule(1, 0.003, g), *stationary_sequence(g, 5)):
        back = patch_from_doc(json.loads(patch_to_json(p)))
        assert back == p
        assert hash(back) == hash(p)


def test_patch_paths_build_no_per_tile_objects(monkeypatch):
    import badtri.gifs as gifs_module

    g = build_gifs(PRESETS["optimal1"])
    built = []  # the package's one record builder, counted by kind

    def counting(kind, *pose, _record=gifs_module._record):
        built.append(kind)
        return _record(kind, *pose)

    monkeypatch.setattr(gifs_module, "_record", counting)

    def constructions(eps):
        built.clear()
        _gifs_of.cache_clear()  # both runs load their file into a new system
        p = epsilon_rule(1, eps, g)
        seq = stationary_sequence(g, 4)
        text = patch_to_json(p)
        patch_to_json(seq)
        back = patch_from_doc(json.loads(text))
        nested_in(back, p)
        nested_in(seq[3], seq[4])
        orientation_discrepancy(back)
        analysis_report(p)
        return len(p.tiles), sorted(built)

    (small, few), (large, many) = constructions(0.2), constructions(0.01)
    assert large > 10 * small
    # per run: three roots (analysis_report rebuilds the patch from its own),
    # one system's eight maps, and a turn and a shift per level
    assert few == many and len(few) == 3 + 8 + 2 * 5
