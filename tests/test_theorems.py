"""Tests for the theorem-verification layer.

Pinned rational endpoints were derived by hand from the convergent
recurrence (see test_cf.py::test_convergents_identity for the worked
[2,2,1,3] example) before being asserted here.
"""

import itertools
import random
from fractions import Fraction

import pytest

from badtri.cf import Cylinder, FiniteCF, PeriodicCF
from badtri.quadfield import sqrt2, sqrt3
from badtri.theorems import (
    B22_SOLUTIONS,
    MAIN2_SOLUTIONS,
    MAIN_SOLUTIONS,
    CaseRow,
    SolutionTriple,
    case21_endpoints,
    check_sum,
    excludes_b2,
    extra_identity,
    forbidden_interval,
    generate_solutions,
    insertion,
    scalene_family,
    search_triples,
    table_rows,
    verify_case21_symbolic,
    verify_case_row,
    verify_tables,
    word_contains,
)


# ------------------------------------------------------------------ patterns


def test_forbidden_interval_pinned():
    # [2,3,inf] = 3/7, [2,inf] = 1/2
    p = forbidden_interval(1, 1, 0, 3)
    assert (p.r1, p.r2) == (Fraction(3, 7), Fraction(1, 2))
    # [2,2,1,3,inf] = 11/26 (convergents 1/2, 2/5, 3/7, 11/26)
    p = forbidden_interval(1, 1, 1, 3)
    assert (p.r1, p.r2) == (Fraction(11, 26), Fraction(1, 2))
    # [2,2,inf] = 2/5, [2,2,3,inf] = 7/17
    p = forbidden_interval(2, 1, 0, 3)
    assert (p.r1, p.r2) == (Fraction(2, 5), Fraction(7, 17))


def test_forbidden_interval_matches_eval():
    rng = random.Random(42)
    for _ in range(40):
        form = rng.choice((1, 2))
        k = rng.randint(1, 4)
        ell = rng.randint(0, 3)
        s = rng.randint(3, 9)
        run = 2 * k - 1 if form == 1 else 2 * k
        p = forbidden_interval(form, k, ell, s)
        plain = FiniteCF((2,) * run).value()
        deep = FiniteCF((2,) * run + (2, 1) * ell + (s,)).value()
        assert {p.r1, p.r2} == {plain, deep}
        assert p.r1 < p.r2


def test_forbidden_interval_rejects_bad_params():
    for args in ((3, 1, 0, 3), (1, 0, 0, 3), (1, 1, -1, 3), (1, 1, 0, 2)):
        with pytest.raises(ValueError):
            forbidden_interval(*args)


def test_excludes_b2_certified_empty():
    assert excludes_b2(Fraction(3, 7), Fraction(1, 2), 30).status == "certified-empty"
    assert excludes_b2(Fraction(1, 100), Fraction(1, 50), 10).status == "certified-empty"


def test_excludes_b2_witness():
    # (sqrt3-1)/2 = [per(2,1)] has every digit in {1,2}
    v = Fraction(float(PeriodicCF((), (2, 1)).value()))
    eps = Fraction(1, 10**6)
    res = excludes_b2(v - eps, v + eps, 30)
    assert res.status == "found-witness"
    assert res.witness is not None
    lo, hi = Cylinder(res.witness).hull()
    assert v - eps <= lo and hi <= v + eps


def test_excludes_b2_inconclusive_then_witness():
    # a 4e-15 window around the smallest all-{1,2} value: too fine for
    # depth 8, resolvable by depth 30
    v = PeriodicCF((), (2, 1)).value()
    num = int(v.to_decimal(30).replace("0.", ""))
    rho = Fraction(num, 10**30)
    eps = Fraction(2, 10**15)
    assert excludes_b2(rho - eps, rho + eps, 8).status == "inconclusive"
    assert excludes_b2(rho - eps, rho + eps, 30).status == "found-witness"


def test_excludes_b2_validates_input():
    with pytest.raises(ValueError):
        excludes_b2(Fraction(0), Fraction(1, 2), 10)
    with pytest.raises(ValueError):
        excludes_b2(Fraction(1, 3), Fraction(1, 3), 10)
    with pytest.raises(ValueError):
        excludes_b2(Fraction(1, 3), Fraction(2, 5), 61)


# ------------------------------------------------------------------- tables


def test_table_shapes():
    even = table_rows("even")
    odd = table_rows("odd")
    assert len(even) == len(odd) == 17
    for e, o in zip(even, odd):
        assert e.id == o.id
        assert (e.left_suffix, e.right_suffix) == (o.right_suffix, o.left_suffix)
        assert e.x_suffix == o.x_suffix and e.y_suffix == o.y_suffix
    with pytest.raises(ValueError):
        table_rows("weird")


def test_row_21_endpoints_n0():
    # [2,3,inf] = 3/7 and [2,3,1,inf] = 4/9
    row = next(r for r in table_rows("even") if r.id == "2.1")
    assert FiniteCF((2,) + row.left_suffix).value() == Fraction(3, 7)
    assert FiniteCF((2,) + row.right_suffix).value() == Fraction(4, 9)
    assert verify_case_row(row, 0)


def test_all_rows_small_n():
    for parity, start in (("even", 0), ("odd", 1)):
        for row in table_rows(parity):
            for n in range(start, 10, 2):
                assert verify_case_row(row, n), (row.id, n)


def test_row_parity_mismatch_raises():
    row = table_rows("even")[0]
    with pytest.raises(ValueError):
        verify_case_row(row, 1)


def test_corrupted_row_caught():
    # mutating the left endpoint word [2,3,inf] -> [2,4,inf] must fail
    good = next(r for r in table_rows("even") if r.id == "2.1")
    bad = CaseRow(good.id, good.x_suffix, good.y_suffix, (4,), good.right_suffix, "even")
    assert not verify_case_row(bad, 0)


def test_case21_symbolic_endpoints():
    for n in range(0, 22, 2):
        assert verify_case21_symbolic(n)
    with pytest.raises(ValueError):
        case21_endpoints(1)


def test_case21_values_are_exact():
    a, b, c, d = case21_endpoints(0)
    cyl = Cylinder((3, 1, 2))
    assert a == cyl.lo == Fraction(4, 15)
    assert b == cyl.hi == Fraction(3, 11)
    assert c < d


def test_verify_tables_report():
    rep = verify_tables(6)
    assert rep["ok"]
    assert rep["summary"]["rows_checked"] == 17 * 4 + 17 * 3
    assert rep["summary"]["rows_passed"] == rep["summary"]["rows_checked"]
    assert all(e["status"] == "certified-empty" for e in rep["exclusions"])
    sample = rep["rows"][0]
    assert set(sample) == {"id", "parity", "n", "pass", "z_interval", "pattern"}


def test_verify_tables_deterministic():
    assert verify_tables(4) == verify_tables(4)


# ------------------------------------------------------------------ triples


def test_main_solutions():
    assert len(MAIN_SOLUTIONS) == 2
    for t in MAIN_SOLUTIONS:
        assert check_sum(t, "sum_is_one", j=1)
    vx, vy, vz = MAIN_SOLUTIONS[0].values()
    assert vx == 2 - sqrt3()
    assert vy == vz == (sqrt3() - 1) / 2
    vx, vy, vz = MAIN_SOLUTIONS[1].values()
    assert vx == vy == (2 - sqrt2()) / 2
    assert vz == sqrt2() - 1


def test_main2_solutions():
    assert len(MAIN2_SOLUTIONS) == 4
    for t in MAIN2_SOLUTIONS:
        assert check_sum(t, "x_plus_y_is_z", j=1)
    # z = sqrt2/2 = [1,per(2)] closes the fourth triple
    assert MAIN2_SOLUTIONS[3].values()[2] == sqrt2() / 2


def test_b22_solutions():
    for t in B22_SOLUTIONS:
        assert check_sum(t, "sum_is_one")
        assert check_sum(t, "sum_is_one", j=2)
        assert all(b == 2 and j <= 2 for b, j in t.classes())


def test_check_sum_rejects_wrong_relation():
    t = MAIN_SOLUTIONS[0]
    assert not check_sum(t, "x_plus_y_is_z")
    with pytest.raises(ValueError):
        check_sum(t, "product_is_one")


def test_check_sum_rejects_invented_triple():
    # wrong sum (same field)
    bogus = SolutionTriple(
        PeriodicCF((), (2, 1)), PeriodicCF((), (2, 1)), PeriodicCF((), (2, 1))
    )
    assert not check_sum(bogus, "sum_is_one")
    # right sum, wrong ordering: the unsorted ell=1 scalene words
    # (digit 1 vs 3 at odd position 3, so [3,2,1,..] > [3,2,3,..])
    unordered = SolutionTriple(
        PeriodicCF((3, 2, 1), (1, 2)),
        PeriodicCF((3, 2, 3), (1, 2)),
        PeriodicCF((2,) * 6, (1, 2)),
    )
    assert not check_sum(unordered, "sum_is_one")
    # mixed radicands cannot even be summed
    mixed = SolutionTriple(
        PeriodicCF((), (1, 2)), PeriodicCF((), (2, 1)), PeriodicCF((), (2,))
    )
    with pytest.raises(ValueError):
        check_sum(mixed, "sum_is_one")


# --------------------------------------------------------------- insertions


def test_insertion_two_symmetric():
    x, y, z, res = insertion("2", Fraction(1, 2), Fraction(1, 2), Fraction(0))
    assert (x, y, z) == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    assert res == 0


def test_insertion_two_pinned():
    _, _, _, res = insertion("2", Fraction(1, 3), Fraction(1, 2), Fraction(1, 6))
    assert res == Fraction(1, 364)


def test_insertion_11211_base_solution():
    v = (2 - sqrt2()) / 2
    w = sqrt2() - 1
    x, y, z, res = insertion("11211", v, v, w)
    assert res == 0
    assert x + y + z == 1


def test_insertion_random_rationals():
    # the residual identity is checked internally; exercise it on 100
    # random sum-1 triples per kind
    rng = random.Random(42)
    done = 0
    while done < 100:
        x = Fraction(rng.randint(1, 50), rng.randint(51, 150))
        y = Fraction(rng.randint(1, 50), rng.randint(51, 150))
        z = 1 - x - y
        for kind in ("2", "11211"):
            bx, by, bz, res = insertion(kind, x, y, z)
            assert res == 1 - bx - by - bz
            assert (res == 0) == (x == y)
        done += 1


def test_insertion_residual_zero_iff_equal_inputs():
    rng = random.Random(7)
    for _ in range(50):
        x = Fraction(rng.randint(1, 30), rng.randint(61, 90))  # x < 1/2, so z > 0
        for kind in ("2", "11211"):
            bx, by, bz, res = insertion(kind, x, x, 1 - 2 * x)
            assert bx == by
            assert res == 0
            assert bx + by + bz == 1
    _, _, _, res = insertion("11211", Fraction(2, 7), Fraction(3, 7), Fraction(2, 7))
    assert res != 0


def test_insertion_pole_raises():
    # x = 1 makes the kind-2 transform divide by zero
    with pytest.raises(ValueError):
        insertion("2", Fraction(1), Fraction(1, 4), Fraction(-1, 4))
    with pytest.raises(ValueError):
        insertion("2", Fraction(1, 3), Fraction(1, 4), Fraction(1, 5))  # sum != 1
    with pytest.raises(ValueError):
        insertion("nope", Fraction(1, 3), Fraction(1, 4), Fraction(5, 12))


def test_extra_identity_pinned():
    lhs, rhs = extra_identity("A", Fraction(1, 4), Fraction(1, 5))
    assert lhs == rhs
    lhs, rhs = extra_identity("lucky2", Fraction(1, 7), Fraction(1, 7))
    assert lhs == rhs
    with pytest.raises(ValueError):
        extra_identity("D", Fraction(1, 4), Fraction(1, 5))


def test_extra_identity_random():
    rng = random.Random(42)
    for ident in ("A", "B", "C", "lucky1", "lucky2"):
        checked = 0
        while checked < 100:
            x = Fraction(rng.randint(1, 99), rng.randint(100, 400))
            y = Fraction(rng.randint(1, 99), rng.randint(100, 400))
            try:
                lhs, rhs = extra_identity(ident, x, y)
            except ValueError:
                continue
            assert lhs == rhs, (ident, x, y)
            checked += 1


# ----------------------------------------------------------------- families


def test_generate_base_solution():
    assert generate_solutions(()) == MAIN_SOLUTIONS[1]


def test_generate_pure_2_codes():
    for length in (1, 2, 3, 5):
        t = generate_solutions(("2",) * length)
        assert check_sum(t, "sum_is_one", j=length + 1)
        # inserted 2s are absorbed by the periodic tail
        assert t == MAIN_SOLUTIONS[1]


def test_generate_mixed_codes():
    seen = set()
    codes = [
        code
        for length in range(6)
        for code in itertools.product(("2", "11211"), repeat=length)
    ][:50]
    assert len(codes) == 50
    for code in codes:
        t = generate_solutions(code)
        vx, vy, vz = t.values()
        assert vx + vy + vz == 1
        for w in (t.x, t.y, t.z):
            assert max(w.pre + w.period, default=1) <= 3
        assert check_sum(t, "sum_is_one")
        seen.add((str(t.x), str(t.z)))
    # leading "2" symbols are absorbed by the periodic tail, so the
    # distinct canonical triples correspond to codes stripped of them
    stripped = set()
    for code in codes:
        i = 0
        while i < len(code) and code[i] == "2":
            i += 1
        stripped.add(code[i:])
    assert len(seen) == len(stripped)


def test_generate_rejects_bad_codes():
    with pytest.raises(ValueError):
        generate_solutions(("5",))
    with pytest.raises(ValueError):
        generate_solutions(("2",) * 41)


def test_scalene_family():
    prev = set()
    for ell in range(11):
        t = scalene_family(ell)
        vx, vy, vz = t.values()
        assert vx + vy + vz == 1
        assert vx < vy < vz
        assert check_sum(t, "sum_is_one")
        prev.add(str(t.x))
    assert len(prev) == 11


def test_scalene_words_shape():
    t = scalene_family(0)
    assert t.z == PeriodicCF((2, 2, 2, 2), (1, 2)).canonical()
    assert {t.x, t.y} == {
        PeriodicCF((3, 1), (1, 2)).canonical(),
        PeriodicCF((3, 3), (1, 2)).canonical(),
    }


# ------------------------------------------------------------------- search


def test_search_no_b2_solutions():
    assert search_triples("sum_is_one", 2, first_digit_max=2) == []
    assert search_triples("sum_is_one", 5, first_digit_max=2) == []


def test_search_sum_is_one_depth12():
    vals = [t.values() for t in MAIN_SOLUTIONS]
    survivors = search_triples("sum_is_one", 12)
    assert len(survivors) == 2
    for trip in survivors:
        assert any(
            all(word_contains(w, v) for w, v in zip(trip, sol)) for sol in vals
        )
    for sol in vals:
        assert any(
            all(word_contains(w, v) for w, v in zip(trip, sol)) for trip in survivors
        )


def test_search_x_plus_y_is_z_depth12():
    vals = [t.values() for t in MAIN2_SOLUTIONS]
    survivors = search_triples("x_plus_y_is_z", 12)
    assert len(survivors) == 4
    for trip in survivors:
        assert any(
            all(word_contains(w, v) for w, v in zip(trip, sol)) for sol in vals
        )
    for sol in vals:
        assert any(
            all(word_contains(w, v) for w, v in zip(trip, sol)) for trip in survivors
        )


def test_search_survivors_nest():
    for relation in ("sum_is_one", "x_plus_y_is_z"):
        shallow = set(search_triples(relation, 6))
        deep = search_triples(relation, 8)
        assert deep
        for trip in deep:
            assert tuple(w[:6] for w in trip) in shallow


def test_search_rejects_bad_args():
    with pytest.raises(ValueError):
        search_triples("sum_is_one", 17)
    with pytest.raises(ValueError):
        search_triples("difference", 4)


# ------------------------------------------------------ exclusion carry


def _just_above_b2_min():
    """x0 = (sqrt3-1)/2 = [per(2,1)], the least number with digits in {1,2},
    and h = x0 rounded up at the 25th decimal place."""
    x0 = PeriodicCF((), (2, 1)).value()
    num = int(x0.to_decimal(25).replace("0.", ""))
    return x0, Fraction(num + 1, 10**25)


def test_excludes_b2_never_certifies_a_thin_overlap():
    # [3/10, h] holds x0, whose digits are all 1 or 2; near h the sweep's
    # cylinders overlap the interval by less than 1e-25 at depth 30 and 40
    x0, h = _just_above_b2_min()
    assert Fraction(3, 10) < x0 < h
    for depth in (8, 30, 40):
        assert excludes_b2(Fraction(3, 10), h, depth).status != "certified-empty"
    res = excludes_b2(Fraction(3, 10), h, 60)
    assert res.status == "found-witness"
    lo, hi = Cylinder(res.witness).hull()
    assert Fraction(3, 10) <= lo and hi <= h


def test_verify_tables_carried_status_matches_direct_sweep():
    rep = verify_tables(20)
    assert len(rep["exclusions"]) > 22
    for e in rep["exclusions"]:
        lo, hi = (Fraction(v) for v in e["interval"])
        assert e["status"] == excludes_b2(lo, hi, 30).status, e["interval"]


def test_verify_tables_sweeps_only_the_base_hulls(monkeypatch):
    import badtri.theorems as theorems

    calls = []
    sweep = theorems.excludes_b2

    def counted(lo, hi, depth=30):
        calls.append((lo, hi))
        return sweep(lo, hi, depth)

    monkeypatch.setattr(theorems, "excludes_b2", counted)
    rep = verify_tables(60, 30)
    assert rep["ok"]
    assert len(rep["exclusions"]) == 671
    assert len(calls) == len(set(calls)) == 22


def test_verify_tables_carry_checks_row_endpoints(monkeypatch):
    import badtri.theorems as theorems

    endpoint = theorems._endpoint_value

    def drifted(suffix, n):
        v = endpoint(suffix, n)
        return v + Fraction(1, 10**40) if n == 4 else v

    monkeypatch.setattr(theorems, "_endpoint_value", drifted)
    with pytest.raises(AssertionError, match="carried hull"):
        verify_tables(6)
