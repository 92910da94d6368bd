"""Tests for Delone certification, the Chabauty-Fell metric, discrepancy."""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.spatial import Delaunay, QhullError, cKDTree

from badtri.delone import (
    _INSIDE_TOL,
    ConvexRegion,
    PointSet,
    _cut_distances,
    analysis_report,
    check_covering_radius,
    check_uniform_discrete,
    delone_radii,
    patch_region,
)
from badtri.gifs import (
    PRESETS,
    build_gifs,
    epsilon_rule,
    orientation_discrepancy,
    star_discrepancy,
    stationary_sequence,
)
from oracles import (_cf_predicate, cf_distance_brute, chabauty_fell_distance,
                     check_covering_radius_queried, restrict, star_discrepancy_brute)


def random_points(rng, n, span=4.0):
    return [(rng.uniform(-span, span), rng.uniform(-span, span)) for _ in range(n)]


def test_pointset_rejects_duplicates():
    with pytest.raises(ValueError):
        PointSet([(0, 0), (1, 1), (0, 0)])
    with pytest.raises(ValueError):
        PointSet([(0, 0), (math.inf, 1)])
    ps = PointSet([(0, 0), (1, 0), (0, 1)])
    assert len(ps) == 3
    assert abs(check_uniform_discrete(ps, 0.5).min_distance - 1.0) <= 1e-15


# small grid coordinates, so that points repeat, with zeros of either sign
_grid = st.builds(lambda v, neg: -0.0 if v == 0 and neg else float(v),
                  st.integers(-2, 2), st.booleans())


@given(st.lists(st.tuples(_grid, _grid), max_size=10), st.integers(0, 3))
def test_pointset_refuses_exactly_the_duplicates(points, radius):
    pts = np.array(points, dtype=float).reshape(-1, 2)
    if len(np.unique(pts, axis=0)) < len(pts):
        with pytest.raises(ValueError, match="duplicate points"):
            PointSet(pts)
        return
    sub = restrict(PointSet(pts), radius)
    assert isinstance(sub, PointSet)
    assert sub.points.tolist() == [[x, y] for x, y in points if x * x + y * y <= radius * radius]


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


@pytest.mark.parametrize("shift", [0.0, 1e8, 1e15])
def test_uniform_discrete_judges_the_stored_points_wherever_they_lie(shift):
    # moved by 1e15, the placed points round to multiples of 0.125 in x and
    # their closest pair truly comes within 2r; the check's least distance
    # is the exact one of the stored floats, to a relative 1e-15, at any range
    patch = epsilon_rule(1, 0.003, build_gifs(PRESETS["optimal1"]))
    tiles = patch.tiles.copy()
    tiles["tx"] += shift
    ps = PointSet(dataclasses.replace(patch, tiles=tiles).points)
    r, _ = delone_radii(patch.gifs)
    res = check_uniform_discrete(ps, r)
    pts = [tuple(map(Fraction, p)) for p in ps.points.tolist()]
    # every pair within 1 holds the closest: it is nearer than 0.5 at each shift
    exact = min((pts[i][0] - pts[j][0]) ** 2 + (pts[i][1] - pts[j][1]) ** 2
                for i, j in ps.tree.query_pairs(1.0))
    assert abs(res.min_distance - math.sqrt(exact)) <= 1e-15 * math.sqrt(exact) < 0.5
    assert res.status == ("certified" if exact >= 4 * Fraction(r) ** 2 else "violation")
    assert res.status == ("violation" if shift == 1e15 else "certified")


def polygon(radius, n=12):
    """A regular n-gon inscribed in the circle of this radius about 0."""
    th = 2 * math.pi * np.arange(n) / n
    return ConvexRegion(radius * np.column_stack([np.cos(th), np.sin(th)]))


def test_relatively_dense_disk():
    one = PointSet([(0, 0)])
    res = check_covering_radius(one, 1.0, polygon(0.9))
    assert res.status == "certified"
    res = check_covering_radius(one, 0.09, polygon(0.9))
    assert res.status == "counterexample"
    assert np.linalg.norm(res.witness) > 0.09


def test_relatively_dense_inconclusive_band():
    # R equal to the exact covering radius (attained at the vertices) is
    # neither exceeded nor cleared by the location-error band, so the
    # test reports inconclusive, never a false certificate
    one = PointSet([(0, 0)])
    square = ConvexRegion([(1, 0), (0, 1), (-1, 0), (0, -1)])
    res = check_covering_radius(one, 1.0, square)
    assert res.status == "inconclusive"
    assert res.radius == 1.0


def test_relatively_dense_adaptive_refinement():
    # a margin of 0.02 certifies, and the radius is the exact one
    one = PointSet([(0, 0)])
    res = check_covering_radius(one, 1.0, polygon(0.98))
    assert res.status == "certified"
    assert abs(res.radius - 0.98) <= 1e-12


def test_region_validation():
    with pytest.raises(ValueError):
        ConvexRegion([])
    square = ConvexRegion([(1, 0), (0, 1), (-1, 0), (0, -1)])
    with pytest.raises(ValueError):
        check_covering_radius(PointSet([]), 1.0, square)
    with pytest.raises(ValueError):
        check_covering_radius(PointSet([(0, 0)]), 0.0, square)


def test_relatively_dense_covers_region_between_grid_nodes():
    # every grid node inside this triangle lies within R of (1, 1), but
    # the region vertex (0, 1) is at distance 1 > R
    reg, one = ConvexRegion([(0, 1), (1, 0), (1, 1)]), PointSet([(1, 1)])
    res = check_covering_radius(one, 0.95, reg)
    assert res.status == "counterexample"
    assert (reg.excess(res.witness) <= _INSIDE_TOL).all()


def test_triangle_union_region_membership():
    reg = ConvexRegion([(0, 0), (1, 0), (0, 1), (1, 0), (1, 1), (0, 1)])
    inside = reg.excess([(0.5, 0.5), (0.1, 0.1), (0.9, 0.9), (1.5, 0.5)]) <= _INSIDE_TOL
    assert inside.tolist() == [True, True, True, False]


UNIT_SQUARE = ConvexRegion([(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.mark.parametrize("points, radius", [
    ([(0, 0)], math.sqrt(2)),  # one point: the far region vertex
    ([(0.25, 0.5)], math.hypot(0.75, 0.5)),
    ([(0, 0), (1, 1)], 1.0),  # two points: the vertices on their bisector
    ([(0.5, 0.2), (0.5, 0.8)], math.hypot(0.5, 0.3)),
    # collinear: the bisector crossings (0.25, 0) and (0.25, 1) are farthest
    ([(0, 0.5), (0.5, 0.5), (1, 0.5)], math.hypot(0.25, 0.5)),
    ([(0.5, y) for y in np.linspace(0, 1, 9)], math.hypot(0.5, 0.0625)),
])
def test_covering_radius_degenerate_sets(points, radius):
    # under 3 points, or all on one line, Qhull builds no triangulation
    ps = PointSet(points)
    res = check_covering_radius(ps, radius + 1e-6, UNIT_SQUARE)
    assert res.status == "certified"
    assert abs(res.radius - radius) <= 1e-12
    res = check_covering_radius(ps, radius - 1e-6, UNIT_SQUARE)
    assert res.status == "counterexample"
    assert (UNIT_SQUARE.excess(res.witness) <= _INSIDE_TOL).all()
    assert np.linalg.norm(ps.points - res.witness, axis=1).min() > radius - 1e-6


def grid_band(ps, region, n=300):
    """Brute grid oracle: (lo, hi) with lo <= covering radius <= hi.

    lo is the largest distance at a node inside the region.  Every region
    point lies in the cell of a node with excess <= h*sqrt(2)/2, within
    h*sqrt(2)/2 of it, so hi is the largest distance at such a node plus
    h*sqrt(2)/2.
    """
    lo_xy, hi_xy = region.vertices.min(axis=0), region.vertices.max(axis=0)
    h = float((hi_xy - lo_xy).max()) / n
    xs = np.arange(lo_xy[0], hi_xy[0] + 2 * h, h)
    ys = np.arange(lo_xy[1], hi_xy[1] + 2 * h, h)
    nodes = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    margin = h * math.sqrt(2) / 2
    ex = region.excess(nodes)
    d = cKDTree(ps.points).query(nodes)[0]
    lo = float(d[ex <= _INSIDE_TOL].max())
    return lo, float(d[ex <= margin].max()) + margin


coord = st.floats(-4, 4, allow_nan=False, allow_infinity=False)
point_lists = st.lists(st.tuples(coord, coord), min_size=1, max_size=20, unique=True)
polygons = st.lists(st.tuples(coord, coord), min_size=3, max_size=10)


def convex_region(corners):
    try:
        region = ConvexRegion(corners)
    except ValueError:
        return None
    # a sliver's grid cells are too coarse for the oracle's band to mean much
    span = (region.vertices.max(axis=0) - region.vertices.min(axis=0)).min()
    return region if span > 0.5 else None


@settings(max_examples=40)
@given(point_lists, polygons)
def test_covering_radius_within_grid_band(points, corners):
    region = convex_region(corners)
    assume(region is not None)
    ps = PointSet(points)
    lo, hi = grid_band(ps, region)
    radius = check_covering_radius(ps, 100.0, region).radius
    assert lo - 1e-9 <= radius <= hi + 1e-9


@settings(max_examples=40)
@given(point_lists, polygons, st.floats(0.9, 0.9999))
def test_covering_radius_never_certifies_an_uncovered_node(points, corners, scale):
    region = convex_region(corners)
    assume(region is not None)
    ps = PointSet(points)
    lo, _ = grid_band(ps, region)
    R = lo * scale  # the grid found a node in the region farther than R
    res = check_covering_radius(ps, R, region)
    assert res.status != "certified"
    if res.status == "counterexample":
        assert (region.excess(res.witness) <= _INSIDE_TOL).all()
        assert np.linalg.norm(ps.points - res.witness, axis=1).min() > R


@pytest.fixture(scope="module")
def bench_patch():
    """The 778-tile optimal1 patch at epsilon 0.003."""
    return epsilon_rule(1, 0.003, build_gifs(PRESETS["optimal1"]))


def covering(patch):
    return check_covering_radius(PointSet(patch.points), delone_radii(patch.gifs)[1],
                                 patch_region(patch))


@pytest.mark.parametrize("shift, status", [
    (5e3, "certified"),
    (1e5, "inconclusive"),  # a complete triangulation, beyond tau's |x| < 1e4
    (1e6, "inconclusive"),
    (1e7, "inconclusive"),  # qhull leaves 555 of 778 centroids out
    (1e9, "inconclusive"),  # and 769 here
    (1e15, "inconclusive"),  # a simplex names qhull's point at infinity
])
def test_covering_radius_holds_tau_to_its_coordinate_range(bench_patch, shift, status):
    tiles = bench_patch.tiles.copy()
    tiles["tx"] += shift
    assert covering(dataclasses.replace(bench_patch, tiles=tiles)).status == status


def test_covering_radius_is_inconclusive_where_qhull_drops_a_point():
    pts = np.random.default_rng(0).uniform(-4, 4, (20, 2))
    pts = np.vstack([pts, pts[0] + (1e-13, 0)])
    assert len(Delaunay(pts).coplanar) == 1  # qhull keeps one of the close pair
    res = check_covering_radius(PointSet(pts), 100.0, polygon(3))
    assert res.status == "inconclusive"
    # the radius is read off the kept points' triangulation, and a
    # counterexample still stands
    kept = PointSet(np.delete(pts, Delaunay(pts).coplanar[:, 0], axis=0))
    assert abs(res.radius - check_covering_radius(kept, 100.0, polygon(3)).radius) <= 1e-12
    res = check_covering_radius(PointSet(pts), res.radius / 2, polygon(3))
    assert res.status == "counterexample"


def test_covering_radius_is_inconclusive_where_a_simplex_names_the_point_at_infinity(
        monkeypatch, bench_patch):
    # qhull's Qz adds a point at infinity, index len(points), and a
    # triangulation of far points can keep it in a simplex
    def delaunay(pts):
        tri = Delaunay(pts)
        tri.simplices[0, 0] = len(pts)
        return tri

    monkeypatch.setattr("badtri.delone.Delaunay", delaunay)
    assert covering(bench_patch).status == "inconclusive"


def triangulation_is_complete(pts):
    try:
        tri = Delaunay(pts)
    except QhullError:
        return True  # under 3 points, or all on one line: no triangles to lose
    return len(tri.coplanar) == 0 and tri.simplices.max() < len(pts)


# four families of point sets: random; on a grid, where many are cocircular;
# near one line; and random with near-duplicates
_near = st.sampled_from([0.0, 1e-15, 1e-13, 1e-11, 1e-9, 1e-6])
_families = st.one_of(
    point_lists,
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=30,
             unique=True).map(lambda ij: [(i / 2, j / 2) for i, j in ij]),
    st.tuples(st.lists(coord, min_size=1, max_size=20, unique=True), coord, _near).map(
        lambda a: [(x, a[1] * x / 4 + a[2] * (-1) ** k) for k, x in enumerate(a[0])]),
    st.tuples(point_lists, _near).map(
        lambda a: a[0] + [(x + a[1], y) for x, y in a[0][:3] if x + a[1] != x]),
)
_regions = st.sampled_from([
    UNIT_SQUARE, polygon(3), polygon(1.2, n=5), ConvexRegion([(-4, -1), (4, -0.5), (0, 3)]),
    # the grid's Voronoi vertices lie on this square's edges
    ConvexRegion([(-1.25, -1.25), (1.25, -1.25), (1.25, 1.25), (-1.25, 1.25)]),
])


_SLIVERS = [(0.0, 0.0), (0.0, 1.0), (1.0, 1.5), (1e-13, 0.0), (1e-13, 1.0), (1.0000000000001, 1.5)]
_TIES = [(0.0, 0.0), (0.0, -1.0), (1.0, 0.0), (1e-13, 0.0), (1e-13, -1.0), (1.0000000000001, 0.0)]
_INVERTED = [(0.0, 2.0), (0.0, 8.945247398765848e-172), (3.0, 0.5), (-1.0, 0.0), (-2.0, 0.0),
             (1e-13, 2.0), (1e-13, 8.945247398765848e-172), (3.0000000000001, 0.5)]


# near-duplicates where a bound overshoots the distance, so the floor query
# must set the radius: qhull's triangulation is not Delaunay (a sliver's
# circumcircle holds (0, 0), or a sliver turns clockwise), a crossing is
# kept by the tau slack alone, or qhull refuses points only near one line
@example(_SLIVERS, UNIT_SQUARE, 1.125)
@example(_TIES, polygon(3), 1.125)
@example(_INVERTED, ConvexRegion([(-4, -1), (4, -0.5), (0, 3)]), 1.0)
@example([(0.0, 0.0), (0.0, 1.0), (1e-15, 0.0), (1e-15, 1.0)], polygon(3), 1.25)
@settings(max_examples=300, deadline=None)
@given(_families, _regions, st.floats(0.5, 2.0))
def test_covering_radius_reads_the_queried_verdict_off_the_triangulation(points, region, scale):
    ps = PointSet(list(dict.fromkeys(points)))
    with np.errstate(over="ignore"):  # the oracle's crossing with a subnormal denominator
        R = check_covering_radius_queried(ps, 1.0, region).radius * scale
        ref = check_covering_radius_queried(ps, R, region)
    res = check_covering_radius(ps, R, region)
    assert res.status != "certified" or ref.status == "certified"
    if triangulation_is_complete(ps.points):
        assert res.status == ref.status
        assert ref.radius - 1e-12 <= res.radius <= ref.radius + 1e-12
        if res.status == "counterexample":
            assert res.witness == ref.witness


def test_covering_radius_on_a_certified_patch_queries_only_the_region_vertices(
        monkeypatch, bench_patch):
    queried = []

    class Counted:
        def __init__(self, points):
            self._tree = cKDTree(points)

        def query(self, x):
            queried.append(len(x))
            return self._tree.query(x)

    monkeypatch.setattr(PointSet, "tree", property(lambda ps: Counted(ps.points)))
    region = patch_region(bench_patch)
    assert covering(bench_patch).status == "certified"
    assert sum(queried) <= len(region.vertices)


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


@given(point_sets, point_sets)
def test_cf_distance_closed_form_properties(a, b):
    d = chabauty_fell_distance(a, b)
    assert d == cf_distance_brute(a, b)
    assert d == chabauty_fell_distance(b, a)


@given(point_sets, st.lists(st.floats(0.01, 10.0), min_size=1, max_size=4, unique=True))
def test_cf_distance_restriction_bound(a, radii):
    for radius in radii:
        assert chabauty_fell_distance(a, restrict(a, radius)) <= 1.0 / radius


@given(point_sets, st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4))
def test_cut_distances_are_the_closed_form_bit_for_bit(a, radii):
    # radius 0 keeps at most the origin, and 10 keeps every point
    assert _cut_distances(a, radii) == [chabauty_fell_distance(a, restrict(a, r)) for r in radii]


def test_cf_predicate_monotone():
    rng = random.Random(11)
    grid = np.linspace(0.02, 1.0, 50)
    for _ in range(50):
        a = np.asarray(random_points(rng, rng.randint(1, 12)))
        b = np.asarray(random_points(rng, rng.randint(1, 12)))
        an, bn = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
        vals = [_cf_predicate(a, an, b, bn, e) for e in grid]
        first = vals.index(True) if True in vals else len(vals)
        assert all(vals[first:])


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
    p0 = stationary_sequence(build_gifs(PRESETS["optimal1"]), 0)[0]
    n, d = orientation_discrepancy(p0)
    assert (n, d) == (1, 1.0)


def test_orientation_discrepancy_trend_and_atoms():
    g = build_gifs(PRESETS["optimal1"])
    vals = []
    for eps in (0.08, 0.04, 0.02):
        p = epsilon_rule(1, eps, g)
        vals.append(orientation_discrepancy(p)[1])
    assert vals[0] > vals[1] > vals[2]
    # rational-angle triangle: orientations form finitely many atoms,
    # so the discrepancy stays bounded away from zero
    ge = build_gifs(PRESETS["equilateral"])
    pe = epsilon_rule(1, 0.02, ge)
    assert orientation_discrepancy(pe)[1] >= 0.05


@pytest.mark.parametrize("name", ["optimal1", "optimal2"])
def test_delone_certification(name):
    g = build_gifs(PRESETS[name])
    r, big_r = delone_radii(g)
    assert 0 < r < big_r
    for eps in (0.08, 0.04):
        p = epsilon_rule(1, eps, g)
        ps = PointSet(p.points)
        assert check_uniform_discrete(ps, r).status == "certified"
        res = check_covering_radius(ps, big_r, patch_region(p))
        assert res.status == "certified"


def test_analysis_report_shape():
    g = build_gifs(PRESETS["optimal2"])
    p = epsilon_rule(1, 0.04, g)
    rep = analysis_report(p)
    assert rep["r_certified"] and rep["R_certified"]
    assert set(rep) == {
        "r_certified", "R_certified", "r", "R", "cf_distances", "discrepancy",
    }
    assert rep["discrepancy"]["N"] == len(p.tiles)
    # the distances from the patch to its cuts to B(0, 5), B(0, 10), B(0, 20)
    ps = PointSet(p.points)
    assert rep["cf_distances"] == [chabauty_fell_distance(ps, restrict(ps, r)) for r in (5, 10, 20)]
    assert all(0 <= d <= 1 / r for d, r in zip(rep["cf_distances"], (5, 10, 20)))


def test_analysis_report_does_not_certify_a_patch_whose_hull_qhull_refuses():
    # one tile of the patch 1e150 away: qhull cannot build the hull of
    # vertices at such mixed scales, and without a hull R is not certified
    p = epsilon_rule(1, 0.04, build_gifs(PRESETS["optimal1"]))
    tiles = p.tiles.copy()
    tiles["tx"][4], tiles["ty"][4] = 1e150, 0.0
    far = dataclasses.replace(p, tiles=tiles)
    with pytest.raises(ValueError, match="could not be built"):
        patch_region(far)
    rep = analysis_report(far)
    assert rep["R_certified"] is False
    assert rep["discrepancy"] == analysis_report(p)["discrepancy"]


@pytest.mark.parametrize("preset", ["optimal1", "optimal2"])
@pytest.mark.parametrize("start", [1, 2])
def test_analysis_report_builds_one_tree_per_point_set(monkeypatch, preset, start):
    patch = epsilon_rule(start, 0.003, build_gifs(PRESETS[preset]))
    built = []

    def counted(points):
        built.append(len(points))
        return cKDTree(points)

    monkeypatch.setattr("badtri.delone.cKDTree", counted)
    report = analysis_report(patch)
    assert len(built) == 4  # the patch and its three cuts
    # a fresh tree for every query gives the same report: five in all, the
    # patch's for its closest pair and for the region vertices, and the cuts'
    monkeypatch.setattr(PointSet, "tree", property(lambda ps: counted(ps.points)))
    built.clear()
    assert analysis_report(patch) == report
    assert len(built) == 5


def test_pointset_duplicates_are_equal_rows():
    # a tiny separation is still two points; its squared distance underflows
    ps = PointSet([(0, 0), (0, 1e-170)])
    assert len(ps) == 2
    for pts in ([(1, 2), (1, 2)], [(0.0, 0), (-0.0, 0)]):
        with pytest.raises(ValueError, match="duplicate points"):
            PointSet(pts)
