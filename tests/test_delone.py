"""Tests for Delone certification, the Chabauty-Fell metric, discrepancy."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from badtri.delone import (
    ConvexRegion,
    DiskRegion,
    PointSet,
    analysis_report,
    cf_distance_brute,
    chabauty_fell_distance,
    check_relatively_dense,
    check_uniform_discrete,
    delone_radii,
    orientation_discrepancy,
    patch_region,
    restricted_convergence_check,
    star_discrepancy,
    star_discrepancy_brute,
)
from badtri.gifs import (
    PRESETS,
    build_gifs,
    epsilon_rule,
    stationary_sequence,
)


def random_points(rng, n, span=4.0):
    return [(rng.uniform(-span, span), rng.uniform(-span, span)) for _ in range(n)]


def test_pointset_rejects_duplicates():
    with pytest.raises(ValueError):
        PointSet([(0, 0), (1, 1), (0, 0)])
    with pytest.raises(ValueError):
        PointSet([(0, 0), (math.inf, 1)])
    ps = PointSet([(0, 0), (1, 0), (0, 1)])
    assert len(ps) == 3
    assert abs(ps.min_pairwise_distance() - 1.0) <= 1e-15


def test_uniform_discrete_examples():
    ps = PointSet([(0, 0), (0.3, 0)])
    assert check_uniform_discrete(ps, 0.15).status == "certified"
    res = check_uniform_discrete(ps, 0.151)
    assert res.status == "violation"
    assert sorted(res.pair) == [0, 1]
    assert abs(res.min_distance - 0.3) <= 1e-15
    with pytest.raises(ValueError):
        check_uniform_discrete(ps, 0.0)


def test_uniform_discrete_matches_midpoint_bruteforce():
    # certified iff no open r-ball around any midpoint holds two points
    rng = random.Random(42)
    for _ in range(100):
        ps = PointSet(random_points(rng, rng.randint(2, 12)))
        r = rng.uniform(0.05, 3.0)
        pts = ps.points
        crowded = any(
            np.linalg.norm(pts[i] - pts[j]) < 2 * r
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
        )
        res = check_uniform_discrete(ps, r)
        assert (res.status == "violation") == crowded


def test_relatively_dense_disk():
    one = PointSet([(0, 0)])
    res = check_relatively_dense(one, 1.0, DiskRegion((0, 0), 0.9), h=0.01)
    assert res.status == "certified"
    res = check_relatively_dense(one, 0.09, DiskRegion((0, 0), 0.9))
    assert res.status == "counterexample"
    assert np.linalg.norm(res.counterexample) > 0.09


def test_relatively_dense_inconclusive_band():
    # R equal to the exact covering radius sits inside the +-h*sqrt(2)/2
    # band for every grid step, so the test reports inconclusive, never
    # a false certificate
    one = PointSet([(0, 0)])
    res = check_relatively_dense(one, 1.0, DiskRegion((0, 0), 1.0), h=0.01)
    assert res.status == "inconclusive"


def test_relatively_dense_adaptive_refinement():
    one = PointSet([(0, 0)])
    res = check_relatively_dense(one, 1.0, DiskRegion((0, 0), 0.98))
    assert res.status == "certified"
    assert res.h < 1.0 / 10  # first pass was inconclusive, step was halved


def test_region_validation():
    with pytest.raises(ValueError):
        DiskRegion((0, 0), 0.0)
    with pytest.raises(ValueError):
        ConvexRegion([])
    with pytest.raises(ValueError):
        check_relatively_dense(PointSet([]), 1.0, DiskRegion((0, 0), 1.0))


def test_relatively_dense_covers_region_between_grid_nodes():
    # every grid node inside this triangle lies within R of (1, 1), but
    # the region vertex (0, 1) is at distance 1 > R; nodes outside the
    # region whose cells reach into it must be tested too
    reg, one = ConvexRegion([(0, 1), (1, 0), (1, 1)]), PointSet([(1, 1)])
    assert check_relatively_dense(one, 0.95, reg, h=0.3).status == "inconclusive"
    res = check_relatively_dense(one, 0.95, reg)
    assert res.status == "counterexample"
    assert reg.contains(res.counterexample).all()


def test_triangle_union_region_membership():
    reg = ConvexRegion([(0, 0), (1, 0), (0, 1), (1, 0), (1, 1), (0, 1)])
    inside = reg.contains([(0.5, 0.5), (0.1, 0.1), (0.9, 0.9), (1.5, 0.5)])
    assert inside.tolist() == [True, True, True, False]
    assert reg.bbox() == (0.0, 0.0, 1.0, 1.0)


def test_cf_distance_examples():
    ps = PointSet(random_points(random.Random(1), 8))
    assert chabauty_fell_distance(ps, ps) <= 1e-9
    a, b = PointSet([(0, 0)]), PointSet([(0.1, 0)])
    assert abs(chabauty_fell_distance(a, b) - 0.1) <= 1e-6
    assert cf_distance_brute(a, b) == pytest.approx(0.1, abs=1e-15)
    far = PointSet([(5, 0)])
    assert chabauty_fell_distance(a, far) <= 1.0
    assert cf_distance_brute(a, far) == 1.0
    empty = PointSet([])
    assert chabauty_fell_distance(a, empty) == 1.0


def test_cf_distance_metric_axioms():
    rng = random.Random(42)
    tol = 1e-6
    for _ in range(20):
        a = PointSet(random_points(rng, rng.randint(1, 10)))
        b = PointSet(random_points(rng, rng.randint(1, 10)))
        c = PointSet(random_points(rng, rng.randint(1, 10)))
        dab = chabauty_fell_distance(a, b)
        assert dab == chabauty_fell_distance(b, a)  # exact symmetry
        dac = chabauty_fell_distance(a, c)
        dbc = chabauty_fell_distance(b, c)
        assert dac <= dab + dbc + 3 * tol


def test_cf_distance_bisection_matches_bruteforce():
    rng = random.Random(42)
    for _ in range(50):
        a = PointSet(random_points(rng, rng.randint(1, 30)))
        b = PointSet(random_points(rng, rng.randint(1, 30)))
        fast = chabauty_fell_distance(a, b)
        assert abs(fast - cf_distance_brute(a, b)) <= 1e-6


# distinct points at least 1e-9 apart, so PointSet sees no duplicate
coords = st.floats(-4, 4).map(lambda x: round(x, 9) + 0.0)
point_sets = st.lists(
    st.tuples(coords, coords), max_size=20, unique=True
).map(PointSet)


@settings(deadline=None, derandomize=True)
@given(point_sets, point_sets)
def test_cf_distance_closed_form_properties(a, b):
    d = chabauty_fell_distance(a, b)
    assert d == cf_distance_brute(a, b)
    assert d == chabauty_fell_distance(b, a)


@settings(deadline=None, derandomize=True)
@given(point_sets, st.floats(0.01, 10.0))
def test_cf_distance_restriction_bound(a, radius):
    assert chabauty_fell_distance(a, a.restrict(radius)) <= 1.0 / radius


def test_cf_predicate_monotone():
    from badtri.delone import _cf_predicate

    rng = random.Random(11)
    grid = np.linspace(0.02, 1.0, 50)
    for _ in range(50):
        a = np.asarray(random_points(rng, rng.randint(1, 12)))
        b = np.asarray(random_points(rng, rng.randint(1, 12)))
        an, bn = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
        vals = [_cf_predicate(a, an, b, bn, e) for e in grid]
        first = vals.index(True) if True in vals else len(vals)
        assert all(vals[first:])


def test_restricted_convergence():
    rng = random.Random(5)
    ps = PointSet(random_points(rng, 20, span=3.0))
    rep = restricted_convergence_check(ps, [5.0, 10.0, 20.0])
    assert rep["ok"]
    assert rep["distances"][0] <= 1e-6  # radius already covers every point
    with pytest.raises(ValueError):
        restricted_convergence_check(ps, [10.0, 5.0])
    tiny = restricted_convergence_check(ps, [0.001, 50.0])
    assert tiny["ok"] and tiny["distances"][0] <= 1.0


def test_restricted_convergence_on_patch():
    g = build_gifs(PRESETS["optimal1"], validate=False)
    p = epsilon_rule(1, 0.02, g)
    ps = PointSet(p.points)
    rep = restricted_convergence_check(ps, [5.0, 10.0, 20.0])
    assert rep["ok"]
    assert all(d <= b for d, b in zip(rep["distances"], rep["bounds"]))


def test_star_discrepancy_examples():
    assert star_discrepancy([0.5]) == 0.5
    mids = [(2 * i - 1) / 20 for i in range(1, 11)]
    assert abs(star_discrepancy(mids) - 0.05) <= 1e-15
    with pytest.raises(ValueError):
        star_discrepancy([])
    with pytest.raises(ValueError):
        star_discrepancy([0.2, 1.0])
    with pytest.raises(ValueError):
        star_discrepancy([-0.1, 0.5])


def test_star_discrepancy_kronecker_golden():
    g = (math.sqrt(5) - 1) / 2
    xs = [(k * g) % 1 for k in range(1, 1001)]
    assert star_discrepancy(xs) <= 5 * math.log(1000) / 1000


def test_star_discrepancy_matches_bruteforce():
    rng = random.Random(42)
    for _ in range(30):
        xs = [rng.random() for _ in range(rng.randint(1, 50))]
        assert abs(star_discrepancy(xs) - star_discrepancy_brute(xs)) <= 1e-12


def test_orientation_discrepancy_single_tile():
    p0 = stationary_sequence(build_gifs(PRESETS["optimal1"], validate=False), 0)[0]
    n, d = orientation_discrepancy(p0)
    assert (n, d) == (1, 1.0)


def test_orientation_discrepancy_trend_and_atoms():
    g = build_gifs(PRESETS["optimal1"], validate=False)
    vals = []
    for eps in (0.08, 0.04, 0.02):
        p = epsilon_rule(1, eps, g)
        vals.append(orientation_discrepancy(p)[1])
    assert vals[0] > vals[1] > vals[2]
    # rational-angle triangle: orientations form finitely many atoms,
    # so the discrepancy stays bounded away from zero
    ge = build_gifs(PRESETS["equilateral"], validate=False)
    pe = epsilon_rule(1, 0.02, ge)
    assert orientation_discrepancy(pe)[1] >= 0.05


@pytest.mark.parametrize("name", ["optimal1", "optimal2"])
def test_delone_certification(name):
    g = build_gifs(PRESETS[name], validate=False)
    r, big_r = delone_radii(g)
    assert 0 < r < big_r
    for eps in (0.08, 0.04):
        p = epsilon_rule(1, eps, g)
        ps = PointSet(p.points)
        assert check_uniform_discrete(ps, r).status == "certified"
        res = check_relatively_dense(ps, big_r, patch_region(p))
        assert res.status == "certified"


def test_analysis_report_shape():
    g = build_gifs(PRESETS["optimal2"], validate=False)
    p = epsilon_rule(1, 0.04, g)
    rep = analysis_report(p)
    assert rep["r_certified"] and rep["R_certified"]
    assert set(rep) == {
        "r_certified", "R_certified", "r", "R", "cf_distances", "discrepancy",
    }
    assert rep["discrepancy"]["N"] == len(p.tiles)
    assert all(0 <= d <= 1 for d in rep["cf_distances"])


def test_pointset_duplicates_are_equal_rows():
    # a tiny separation is still two points; its squared distance underflows
    ps = PointSet([(0, 0), (0, 1e-170)])
    assert len(ps) == 2
    for pts in ([(1, 2), (1, 2)], [(0.0, 0), (-0.0, 0)]):
        with pytest.raises(ValueError, match="duplicate points"):
            PointSet(pts)
