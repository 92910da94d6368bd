"""Acceptance gate: fifteen end-to-end checks, one pass/fail line each.

Each test prints `criterion NN: PASS/FAIL (elapsed)` before asserting, so a
`pytest -v -s` run shows one line per criterion with its runtime budget.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np

from badtri.cf import PeriodicCF, expand_quadratic, expand_real, word_map
from badtri.cli import main as cli_main
from badtri.delone import (
    PointSet,
    check_covering_radius,
    check_uniform_discrete,
    delone_radii,
    patch_region,
)
from badtri.gifs import (
    PRESETS,
    Angles,
    build_gifs,
    closure_report,
    epsilon_rule,
    orientation_discrepancy,
    star_discrepancy,
    stationary_nesting_ok,
    stationary_sequence,
)
from badtri.theorems import (
    _SCALENE,
    B22_SOLUTIONS,
    MAIN2_SOLUTIONS,
    MAIN_SOLUTIONS,
    _identity,
    _scalene_word,
    check_sum,
    in_bad_class,
    search_triples,
    verify_tables,
)
from oracles import (
    cf_distance_brute,
    chabauty_fell_distance,
    generate_solutions,
    insertion,
    similitude,
    sqrt2,
    sqrt3,
    star_discrepancy_brute,
)


def _report(num, ok, t0, limit):
    elapsed = time.monotonic() - t0
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s / limit {limit}s)")
    assert ok
    assert elapsed < limit


def _random_angles(rng):
    while True:
        ga = rng.uniform(0.2, 1.47)
        al = rng.uniform(0.2, math.pi - ga - 0.25)
        be = math.pi - al - ga
        if be > 0.15:
            return Angles(al, be, ga)


def test_c01_main_triples_exact_and_roundtrip():
    t0 = time.monotonic()
    expected = [
        (2 - sqrt3(), (sqrt3() - 1) / 2, (sqrt3() - 1) / 2),
        ((2 - sqrt2()) / 2, (2 - sqrt2()) / 2, sqrt2() - 1),
    ]
    ok = len(MAIN_SOLUTIONS) == 2
    for triple, vals in zip(MAIN_SOLUTIONS, expected):
        x, y, z = triple.values()
        ok &= (x, y, z) == vals
        ok &= x + y + z == 1
        for w in (triple.x, triple.y, triple.z):
            ok &= expand_quadratic(w.value()) == w
    _report(1, ok, t0, 1)


def _same_field_eq(a, b):
    try:
        return a == b
    except ValueError:  # values from different quadratic fields never match
        return False


def test_c02_main2_triples_exact():
    t0 = time.monotonic()
    ok = len(MAIN2_SOLUTIONS) == 4
    for triple in MAIN2_SOLUTIONS:
        x, y, z = triple.values()
        ok &= x + y == z
        for w in (triple.x, triple.y, triple.z):
            ok &= expand_quadratic(w.value()) == w
    for target, word in (
        ((3 - sqrt3()) / 2, PeriodicCF((1, 1, 1), (2, 1))),
        (sqrt2() / 2, PeriodicCF((1,), (2,))),
    ):
        hits = [t.z for t in MAIN2_SOLUTIONS if _same_field_eq(t.z.value(), target)]
        ok &= len(hits) == 1 and hits[0] == word
    _report(2, ok, t0, 1)


def test_c03_tables_all_rows_and_exclusions():
    t0 = time.monotonic()
    report = verify_tables(n_max=20, exclusion_depth=30)
    rows = report["rows"]
    even = sum(1 for r in rows if r["parity"] == "even")
    odd = sum(1 for r in rows if r["parity"] == "odd")
    ok = report["ok"]
    ok &= even == 17 * 11 and odd == 17 * 10  # n=0,2..20 and n=1,3..19
    ok &= all(r["pass"] for r in rows)
    ok &= all(e["status"] == "certified-empty" for e in report["exclusions"])
    _report(3, ok, t0, 10)


def test_c04_insertion_and_auxiliary_identities():
    t0 = time.monotonic()
    rng = random.Random(42)
    ok = True
    done = 0
    while done < 100:
        x = Fraction(rng.randint(1, 60), rng.randint(130, 400))
        y = Fraction(rng.randint(1, 60), rng.randint(130, 400))
        z = 1 - x - y
        try:
            _, _, _, r2 = insertion("2", x, y, z)
            _, _, _, r11 = insertion("11211", x, y, z)
            sides = [_identity(i, x, y)[:2]
                     for i in ("A", "B", "C", "lucky1", "lucky2")]
        except (ValueError, ZeroDivisionError):  # a pole
            continue
        ok &= r2 == (x - y) ** 2 / ((3 - 2 * x) * (3 - 2 * y) * (3 - x - y))
        ok &= r11 == -5 * (x - y) ** 2 / (
            (10 * x + 13) * (10 * y + 13) * (5 * x + 5 * y + 13)
        )
        ok &= all(Fraction(*lhs) == Fraction(*rhs) for lhs, rhs in sides)
        done += 1
    _report(4, ok, t0, 5)


def test_c05_insertion_code_generator():
    t0 = time.monotonic()
    codes = []
    for n in range(6):
        codes.extend(itertools.product(("2", "11211"), repeat=n))
    codes = codes[:50]
    ok = len(set(codes)) == 50
    for code in codes:
        triple = generate_solutions(code)
        x, y, z = triple.values()
        ok &= x + y + z == 1
        for w in (triple.x, triple.y, triple.z):
            ok &= max(w.pre + w.period) <= 3
    for length in range(1, 9):
        triple = generate_solutions(("2",) * length)
        for w in (triple.x, triple.y, triple.z):
            ok &= in_bad_class(w, 2, length + 1)
    _report(5, ok, t0, 5)


def test_c06_small_class_and_scalene_families():
    t0 = time.monotonic()
    ok = len(B22_SOLUTIONS) == 3
    for triple in B22_SOLUTIONS:
        x, y, z = triple.values()
        ok &= x + y + z == 1
        ok &= check_sum(triple, "sum_is_one", j=2)
    for ell in range(11):
        x, y, z = (_scalene_word(t, ell).value() for t in _SCALENE)
        ok &= x + y + z == 1
        ok &= len({x, y, z}) == 3  # pairwise distinct components
    _report(6, ok, t0, 2)


def test_c07_search_completeness():
    t0 = time.monotonic()

    def contains(words, vals):
        # each value lies in its word's closed hull: the tails 0 and 1's images, by value
        for w, v in zip(words, vals):
            lo, hi = sorted(word_map(w, t) for t in (0, 1))
            if not lo <= v <= hi:
                return False
        return True

    sum_survivors = search_triples("sum_is_one", depth=12)
    main_vals = [t.values() for t in MAIN_SOLUTIONS]
    ok = len(sum_survivors) == 2
    ok &= all(any(contains(w, v) for v in main_vals) for w in sum_survivors)
    ok &= all(any(contains(w, v) for w in sum_survivors) for v in main_vals)

    xyz_survivors = search_triples("x_plus_y_is_z", depth=12)
    main2_vals = [t.values() for t in MAIN2_SOLUTIONS]
    ok &= len(xyz_survivors) == 4
    ok &= all(any(contains(w, v) for v in main2_vals) for w in xyz_survivors)
    ok &= all(any(contains(w, v) for w in xyz_survivors) for v in main2_vals)

    ok &= search_triples("sum_is_one", depth=2, first_digit_max=2) == []
    _report(7, ok, t0, 60)


def test_c08_gifs_partition():
    t0 = time.monotonic()
    rng = random.Random(42)
    triples = [PRESETS["optimal1"], PRESETS["optimal2"], PRESETS["equilateral"]]
    triples += [_random_angles(rng) for _ in range(20)]
    ok = True
    for ang in triples:
        rep = closure_report(build_gifs(ang))
        ok &= rep["area_defect"] <= 1e-12
        ok &= rep["containment_defect"] <= 1e-9
        ok &= rep["overlap_depth"] <= 1e-9
    _report(8, ok, t0, 10)


def test_c09_epsilon_rule_windows():
    t0 = time.monotonic()
    ok = True
    for name in ("optimal1", "optimal2"):
        gifs = build_gifs(PRESETS[name])
        for eps in (0.2, 0.08, 0.04, 0.02):
            patch = epsilon_rule(1, eps, gifs)
            areas = (patch.tiles["scale"] ** 2).tolist()
            n = len(areas)
            ok &= min(areas) >= patch.gifs.a_min - 1e-12
            ok &= max(areas) <= 1 + 1e-12
            ok &= 1 / eps <= n <= 1 / (patch.gifs.a_min * eps)
            ok &= abs(sum(areas) - 1 / eps) <= 1e-9 * n
    _report(9, ok, t0, 10)


def test_c10_delone_certification():
    t0 = time.monotonic()
    ok = True
    for name in ("optimal1", "optimal2"):
        gifs = build_gifs(PRESETS[name])
        r, big_r = delone_radii(gifs)
        for eps in (0.08, 0.04, 0.02):
            patch = epsilon_rule(1, eps, gifs)
            ps = PointSet(patch.points)
            ok &= check_uniform_discrete(ps, r).status == "certified"
            dense = check_covering_radius(ps, big_r, patch_region(patch))
            ok &= dense.status == "certified"
    _report(10, ok, t0, 60)


def test_c11_stationary_nesting():
    t0 = time.monotonic()
    ok = True
    for name in ("optimal1", "optimal2"):
        gifs = build_gifs(PRESETS[name])
        t = gifs.consts.t
        eps0 = t**2 / (1 + t**2) ** 2
        ok &= abs(similitude(gifs.maps["f3"]).scale ** 2 - eps0) <= 1e-15
        seq = stationary_sequence(gifs, 4)
        ok &= stationary_nesting_ok(seq)
    _report(11, ok, t0, 60)


def test_c12_chabauty_fell_metric():
    t0 = time.monotonic()
    rng = random.Random(42)

    def rand_set():
        return PointSet(
            [(rng.uniform(-4, 4), rng.uniform(-4, 4))
             for _ in range(rng.randint(1, 30))]
        )

    ok = True
    for _ in range(50):
        a, b = rand_set(), rand_set()
        fast = chabauty_fell_distance(a, b)
        ok &= abs(fast - cf_distance_brute(a, b)) <= 1e-6
        ok &= fast == chabauty_fell_distance(b, a)
    for _ in range(10):
        a = rand_set()
        ok &= chabauty_fell_distance(a, a) <= 1e-9
    _report(12, ok, t0, 10)


def test_c13_discrepancy_sanity():
    t0 = time.monotonic()
    rng = random.Random(42)
    ok = True
    for _ in range(30):
        xs = [rng.random() for _ in range(rng.randint(1, 50))]
        ok &= abs(star_discrepancy(xs) - star_discrepancy_brute(xs)) <= 1e-12
    golden = (math.sqrt(5) - 1) / 2
    kron = [(k * golden) % 1 for k in range(1, 1001)]
    ok &= star_discrepancy(kron) <= 5 * math.log(1000) / 1000
    gifs = build_gifs(PRESETS["optimal1"])
    dstars = [
        orientation_discrepancy(
            epsilon_rule(1, eps, gifs)
        )[1]
        for eps in (0.08, 0.04, 0.02)
    ]
    ok &= dstars[0] > dstars[1] > dstars[2]
    _report(13, ok, t0, 30)


def _atan(x, prec):
    total, term, k = Fraction(0), x, 0
    while abs(term) / (2 * k + 1) > prec / 2:
        total += term / (2 * k + 1) * (-1) ** k
        k += 1
        term *= x * x
    return total


def test_c14_pinwheel_angle_digits():
    t0 = time.monotonic()
    prec = Fraction(1, 10**75)
    val = _atan(Fraction(1, 2), prec) / (
        16 * _atan(Fraction(1, 5), prec) - 4 * _atan(Fraction(1, 239), prec)
    )
    text = "0." + str((val * 10**60).__floor__()).rjust(60, "0")
    res = expand_real(text, err=Fraction(2, 10**60))
    ok = res.digits[:8] == (6, 1, 3, 2, 5, 1, 6, 5)
    ok &= len(res.digits) > 8  # first eight unconditionally certified
    _report(14, ok, t0, 1)


def test_c14b_deep_quotient_demo():
    # optional high-precision aside, kept because it exercises the same
    # machinery much deeper: quotient 583 appears at position 53
    prec = Fraction(1, 10**215)
    val = _atan(Fraction(1, 2), prec) / (
        16 * _atan(Fraction(1, 5), prec) - 4 * _atan(Fraction(1, 239), prec)
    )
    text = "0." + str((val * 10**200).__floor__()).rjust(200, "0")
    res = expand_real(text, err=Fraction(2, 10**200), terms=60)
    assert len(res.digits) >= 53 and res.digits[52] == 583


def test_c15_figure_pipeline(tmp_path, capsys):
    t0 = time.monotonic()
    patch_file = tmp_path / "p.json"
    svg_file = tmp_path / "p.svg"
    code = cli_main(["tile", "--preset", "optimal1", "--epsilon", "0.04",
                     "--out", str(patch_file)])
    code |= cli_main(["export", "--in", str(patch_file), "--svg", str(svg_file)])
    capsys.readouterr()
    doc = json.loads(patch_file.read_text())
    svg = svg_file.read_text()
    ok = code == 0
    ok &= svg.count("<path") == len(doc["tiles"])
    ok &= svg.count("<circle") == len(doc["points"])
    ok &= len(doc["tiles"]) == len(doc["points"])
    _report(15, ok, t0, 10)
