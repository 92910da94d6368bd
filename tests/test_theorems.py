"""Tests for the theorem-verification layer.

Pinned rational endpoints were derived by hand from the convergent
recurrence (see test_cf.py::test_convergents_identity for the worked
[2,2,1,3] example) before being asserted here.
"""

import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import badtri.theorems as theorems
from badtri.cf import (FiniteCF, PeriodicCF, _mobius_triple, bad_class, convergents, hull_pairs,
                       word_map)
from badtri.quadfield import QuadRat
from badtri.theorems import (
    B22_SOLUTIONS,
    MAIN2_SOLUTIONS,
    MAIN_SOLUTIONS,
    CaseRow,
    SolutionTriple,
    check_sum,
    excludes_b2,
    scalene_sweep,
    search_triples,
    table_rows,
    verify_tables,
)
from oracles import (
    _value,
    case21_endpoints,
    generate_solutions,
    identity,
    insertion,
    sqrt2,
    sqrt3,
    verify_case21_symbolic,
    verify_case_row,
)


def _hull(word):
    """The closed cylinder hull by value: the images of the tails 0 and 1, sorted."""
    return tuple(sorted(word_map(word, t) for t in (0, 1)))


def _in_hull(word, value):
    lo, hi = _hull(word)
    return lo <= value <= hi


# ------------------------------------------------------------------ patterns


def _forbidden_interval(form, k, ell, s):
    """(r1, r2) of the forbidden pattern (form, k, ell, s), read from
    theorems._pattern_ends on its run of 2s."""
    run = 2 * k - 1 if form == 1 else 2 * k
    return tuple(Fraction(*end) for end in theorems._pattern_ends(ell, s, convergents((2,) * run)))


def test_forbidden_interval_pinned():
    # [2,3,inf] = 3/7, [2,inf] = 1/2
    assert _forbidden_interval(1, 1, 0, 3) == (Fraction(3, 7), Fraction(1, 2))
    # [2,2,1,3,inf] = 11/26 (convergents 1/2, 2/5, 3/7, 11/26)
    assert _forbidden_interval(1, 1, 1, 3) == (Fraction(11, 26), Fraction(1, 2))
    # [2,2,inf] = 2/5, [2,2,3,inf] = 7/17
    assert _forbidden_interval(2, 1, 0, 3) == (Fraction(2, 5), Fraction(7, 17))


def test_forbidden_interval_matches_eval():
    rng = random.Random(42)
    for _ in range(40):
        form = rng.choice((1, 2))
        k = rng.randint(1, 4)
        ell = rng.randint(0, 3)
        s = rng.randint(3, 9)
        run = 2 * k - 1 if form == 1 else 2 * k
        r1, r2 = _forbidden_interval(form, k, ell, s)
        plain = FiniteCF((2,) * run).value()
        deep = FiniteCF((2,) * run + (2, 1) * ell + (s,)).value()
        assert {r1, r2} == {plain, deep}
        assert r1 < r2


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
    lo, hi = _hull(res.witness)
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


def _excludes_b2_by_cylinders(lo, hi, depth):
    """excludes_b2's sweep, taking the value-ordered hull at every node."""
    inconclusive = False

    def visit(word):
        nonlocal inconclusive
        clo, chi = _hull(word)
        if chi < lo or hi < clo:
            return None
        if lo <= clo and chi <= hi:
            return word
        if len(word) >= depth:
            inconclusive = True
            return None
        for b in (1, 2):
            w = visit(word + (b,))
            if w is not None:
                return w
        return None

    for first in ((1,), (2,)):
        w = visit(first)
        if w is not None:
            return "found-witness", w
    return ("inconclusive" if inconclusive else "certified-empty"), None


@st.composite
def _intervals(draw):
    """0 < lo < hi < 1, often thin, and often about a number with digits 1
    and 2: [word, t] for a {1,2}-word and a tail t in (0, 1)."""
    lo = draw(st.one_of(
        st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(999, 1000),
                     max_denominator=10**9),
        st.builds(word_map, st.lists(st.integers(1, 2), min_size=1, max_size=12).map(tuple),
                  st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10),
                               max_denominator=100)),
    ))
    width = draw(st.sampled_from([Fraction(1, 10**k) for k in (1, 3, 6, 9)]))
    hi = min(lo + width * draw(st.fractions(min_value=Fraction(1, 100), max_value=1)),
             Fraction(10**6 - 1, 10**6))
    return lo, hi


@given(_intervals(), st.integers(1, 14))
def test_excludes_b2_matches_a_sweep_over_cylinders(interval, depth):
    res = excludes_b2(*interval, depth)
    assert (res.status, res.witness) == _excludes_b2_by_cylinders(*interval, depth)


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
    # a one-digit change to a word of row 2.1 must fail, at every n.  Each
    # comment names the first of the row's five integer signs that fails
    good = next(r for r in table_rows("even") if r.id == "2.1")
    assert (good.x_suffix, good.y_suffix, good.left_suffix, good.right_suffix) == (
        (1, 2), (2, 2), (3,), (3, 1))
    for x_suffix, y_suffix, left_suffix, right_suffix in [
        # left < right: [2,4,inf] = [2,3,1,inf], the right endpoint
        ((1, 2), (2, 2), (4,), (3, 1)),
        # left < right: the right endpoint [2,3,1,inf] -> [2,2,inf], below the left
        ((1, 2), (2, 2), (3,), (2,)),
        # left <= 1 - X - Y: the x cylinder (3,(2)^n,1,2) -> (3,(2)^n,1,1)
        ((1, 1), (2, 2), (3,), (3, 1)),
        # left <= 1 - X - Y: the y cylinder (3,(2)^n,2,2) -> (3,(2)^n,2,1)
        ((1, 2), (2, 1), (3,), (3, 1)),
        # 1 - X - Y <= right: the right endpoint [2,3,1,inf] -> [2,3,2,inf]
        ((1, 2), (2, 2), (3,), (3, 2)),
    ]:
        bad = CaseRow(good.id, x_suffix, y_suffix, left_suffix, right_suffix, "even")
        for n in (0, 2, 40):
            assert verify_case_row(good, n)
            assert not verify_case_row(bad, n), (bad, n)


def test_a_pattern_that_misses_the_row_is_caught(monkeypatch):
    # r1 <= left and right <= r2 hold for every suffix: the endpoints and the
    # pattern's ends share the (2)^(n+1) prefix, and the s-bearing endpoint
    # continues the pattern's deep end.  A pattern read with s + 1 misses
    # the row: r1 > left on the even table, right > r2 on the odd one
    match = theorems._match_pattern

    def shifted(row, n):
        form, k, ell, s = match(row, n)
        return form, k, ell, s + 1

    rows = [next(r for r in table_rows(parity) if r.id == "2.1") for parity in ("even", "odd")]
    for row, ns in zip(rows, ((0, 2, 40), (1, 3, 41))):
        assert all(verify_case_row(row, n) for n in ns)
    monkeypatch.setattr(theorems, "_match_pattern", shifted)
    for row, ns in zip(rows, ((0, 2, 40), (1, 3, 41))):
        for n in ns:
            assert not verify_case_row(row, n), (row.parity, n)


def _row_words(row, n):
    """The full words behind a row at n: endpoint words, then X and Y cylinder words."""
    ends = tuple((2,) * (n + 1) + s for s in (row.left_suffix, row.right_suffix))
    cylinders = tuple((3,) + (2,) * n + s for s in (row.x_suffix, row.y_suffix))
    return ends, cylinders


def _pattern_ends(form, k, ell, s):
    """(r1, r2) of a forbidden pattern, from the word_map of its two full words."""
    run = 2 * k - 1 if form == 1 else 2 * k
    plain = word_map((2,) * run, 0)
    deep = word_map((2,) * run + (2, 1) * ell + (s,), 0)
    return (deep, plain) if form == 1 else (plain, deep)


def _assert_matches_full_words(entry):
    """An entry of verify_tables, recomputed from its row's full words."""
    rows = table_rows("even") + table_rows("odd")
    row = next(r for r in rows if (r.id, r.parity) == (entry["id"], entry["parity"]))
    n = entry["n"]
    (left, right), cylinders = _row_words(row, n)
    left, right = word_map(left, 0), word_map(right, 0)
    (xlo, xhi), (ylo, yhi) = (_hull(w) for w in cylinders)
    r1, r2 = _pattern_ends(**entry["pattern"])
    # the pattern's run of 2s, 2k - 1 (form 1) or 2k (form 2), is n + 1
    assert 2 * entry["pattern"]["k"] - (entry["pattern"]["form"] == 1) == n + 1
    assert entry["z_interval"] == [str(left), str(right)]
    assert entry["pass"] == (left < right and r1 <= left and right <= r2
                             and left <= 1 - xhi - yhi and 1 - xlo - ylo <= right)
    # verify_case_row builds both prefixes from scratch
    assert verify_case_row(row, n) == entry["pass"]
    assert entry["pass"]


def test_shared_prefixes_match_full_words(monkeypatch):
    # verify_tables steps (2)^(n+1) and (3,(2)^n) one digit per n: every row
    # it checks gets the prefixes of its own n, its pattern matches the
    # pattern's full words, and every entry matches its row's full words
    check = theorems._check_row
    seen = []

    def recorded(row, n, twos, three):
        assert twos == convergents((2,) * (n + 1))
        assert three == convergents((3,) + (2,) * n)
        result = check(row, n, twos, three)
        _, _, pattern, ends, _ = result
        assert ends == tuple((v.numerator, v.denominator) for v in _pattern_ends(*pattern))
        seen.append((row.id, n))
        return result

    monkeypatch.setattr(theorems, "_check_row", recorded)
    entries = verify_tables(60)["rows"]
    assert len(seen) == len(set(seen)) == len(entries) == 17 * 61
    for entry in entries:
        _assert_matches_full_words(entry)


def test_verify_tables_at_the_cap_matches_full_words():
    # the last rows of the largest table the CLI allows, recomputed from
    # their full words
    entries = [e for e in verify_tables(400)["rows"] if e["n"] >= 398]
    assert sorted({e["n"] for e in entries}) == [398, 399, 400] and len(entries) == 17 * 3
    for entry in entries:
        _assert_matches_full_words(entry)


def test_case21_symbolic_endpoints():
    for n in range(0, 22, 2):
        assert verify_case21_symbolic(n)
    with pytest.raises(ValueError):
        case21_endpoints(1)


def test_case21_values_are_exact():
    a, b, c, d = case21_endpoints(0)
    assert (a, b) == _hull((3, 1, 2)) == (Fraction(4, 15), Fraction(3, 11))
    assert c < d


def test_verify_tables_report():
    rep = verify_tables(6)
    assert rep["ok"]
    assert rep["summary"]["rows_checked"] == 17 * 4 + 17 * 3
    assert rep["summary"]["rows_passed"] == rep["summary"]["rows_checked"]
    assert all(e["status"] == "certified-empty" for e in rep["exclusions"])
    sample = rep["rows"][0]
    assert set(sample) == {"id", "parity", "n", "pass", "z_interval", "pattern"}


def test_verify_tables_orders_exclusions_by_exact_hull():
    hulls = [tuple(map(Fraction, e["interval"])) for e in verify_tables(60)["exclusions"]]
    assert hulls == sorted(set(hulls)) and len(hulls) == 671


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
        assert all(b == 2 and j <= 2 for b, j in map(bad_class, (t.x, t.y, t.z)))


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
    # values from two quadratic fields never satisfy either relation
    for mixed in (
        SolutionTriple(PeriodicCF((), (1, 2)), PeriodicCF((), (2, 1)), PeriodicCF((), (2,))),
        SolutionTriple(PeriodicCF((3,), (2,)), PeriodicCF((), (2, 1)), PeriodicCF((3,), (2,))),
    ):
        assert not check_sum(mixed, "sum_is_one")
        assert not check_sum(mixed, "x_plus_y_is_z")


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


@pytest.mark.parametrize("kind", ["2", "11211"])
def test_insertion_builds_its_words_once(monkeypatch, kind):
    calls = []
    build = theorems._INSERTIONS[kind]

    def counted(a, b, c, d):
        calls.append((a, b, c, d))
        return build(a, b, c, d)

    monkeypatch.setitem(theorems._INSERTIONS, kind, counted)
    insertion(kind, Fraction(1, 3), Fraction(1, 4), Fraction(5, 12))
    assert len(calls) == 1
    generate_solutions((kind,) * 5)
    assert len(calls) == 6


def test_insertion_pole_raises():
    # x = 1 makes the kind-2 transform divide by zero
    with pytest.raises(ValueError):
        insertion("2", Fraction(1), Fraction(1, 4), Fraction(-1, 4))
    with pytest.raises(ValueError):
        insertion("2", Fraction(1, 3), Fraction(1, 4), Fraction(1, 5))  # sum != 1
    with pytest.raises(ValueError):
        insertion("nope", Fraction(1, 3), Fraction(1, 4), Fraction(5, 12))


def test_extra_identity_pinned():
    lhs, rhs, _ = theorems._identity("A", Fraction(1, 4), Fraction(1, 5))
    assert Fraction(*lhs) == Fraction(*rhs)
    lhs, rhs, _ = theorems._identity("lucky2", Fraction(1, 7), Fraction(1, 7))
    assert Fraction(*lhs) == Fraction(*rhs)


def test_extra_identity_random():
    rng = random.Random(42)
    for ident in ("A", "B", "C", "lucky1", "lucky2"):
        checked = 0
        while checked < 100:
            x = Fraction(rng.randint(1, 99), rng.randint(100, 400))
            y = Fraction(rng.randint(1, 99), rng.randint(100, 400))
            try:
                lhs, rhs, _ = theorems._identity(ident, x, y)
            except ZeroDivisionError:  # a pole
                continue
            assert Fraction(*lhs) == Fraction(*rhs), (ident, x, y)
            checked += 1


# The identities in their nested rational form, one normalising operation
# at a time: the reference that the pair evaluation in `theorems` must
# reproduce value for value, and pole for pole (a ZeroDivisionError here).


def _ref_inv(v):
    return 1 / v


def _ref_bracket(cs, w):
    return word_map(cs, _ref_inv(w))


_REF_IDENTITIES = {
    "A": lambda x, y: (
        1
        - _ref_bracket((2, 1, 3), _ref_inv(x) - 1)
        - _ref_bracket((2, 1, 3), _ref_inv(y) - 1)
        - _ref_bracket((3, 1, 1), _ref_inv(1 - x - y)),
        4 * (x - y) ** 2 / ((8 * x - 11) * (8 * y - 11) * (11 - 4 * x - 4 * y)),
    ),
    "B": lambda x, y: (
        1
        - _ref_bracket((3, 1, 1), _ref_inv(x))
        - _ref_bracket((3, 1, 1), _ref_inv(y))
        - _ref_bracket((2, 3, 1), _ref_inv(1 - x - y) - 1),
        -2 * (x - y) ** 2 / ((4 * x + 7) * (4 * y + 7) * (2 * x + 2 * y + 7)),
    ),
    "C": lambda x, y: (
        1
        - _ref_bracket((3, 3, 1), _ref_inv(x) - 2)
        - _ref_bracket((3, 3, 1), _ref_inv(y) - 2)
        - _ref_bracket((2, 1, 1, 1), 1 - x - y),
        8 * (x - y) ** 2 / ((16 * x - 13) * (16 * y - 13) * (13 - 8 * x - 8 * y)),
    ),
    "lucky1": lambda x, y: (
        1
        - _ref_bracket((3,), _ref_inv(x) - 1)
        - _ref_bracket((3,), _ref_inv(y) - 1)
        - _ref_bracket((2, 2), _ref_inv(1 - x - y)),
        2 * (x + y - 3) * (2 * x * y - 2 * x - 2 * y + 1)
        / ((2 * x - 3) * (2 * y - 3) * (7 - 2 * x - 2 * y)),
    ),
    "lucky2": lambda x, y: (
        2 * _ref_bracket((3,), _ref_inv(x) - 1) * _ref_bracket((3,), _ref_inv(y) - 1)
        - 2 * _ref_bracket((3,), _ref_inv(x) - 1)
        - 2 * _ref_bracket((3,), _ref_inv(y) - 1)
        + 1,
        -(2 * x * y - 2 * x - 2 * y + 1) / ((2 * x - 3) * (2 * y - 3)),
    ),
}


def _ref_insertion(kind, x, y, z):
    """(X, Y, Z, closed form of the residual) for one insertion kind."""
    if kind == "2":
        return (
            _ref_bracket((3,), _ref_inv(x) - 1),
            _ref_bracket((3,), _ref_inv(y) - 1),
            word_map((2,), z),
            (x - y) ** 2 / ((3 - 2 * x) * (3 - 2 * y) * (3 - x - y)),
        )
    return (
        _ref_bracket((3, 3), 1 + x),
        _ref_bracket((3, 3), 1 + y),
        _ref_bracket((2, 1, 1, 2, 1), _ref_inv(z) - 1),
        -5 * (x - y) ** 2 / ((10 * x + 13) * (10 * y + 13) * (5 * x + 5 * y + 13)),
    )


def _agree_with_reference(x, y, kind_type):
    """Every identity and insertion at (x, y) matches the nested forms.

    Returns the names of those that have a pole there.
    """
    poles = []
    # theorems._identity reads rationals; the oracle's twin also reads quadratics
    decide = theorems._identity if kind_type is Fraction else identity
    for ident, ref in _REF_IDENTITIES.items():
        try:
            expected = ref(x, y)
        except ZeroDivisionError:
            poles.append(ident)
            with pytest.raises(ZeroDivisionError):
                decide(ident, x, y)
        else:
            lhs, rhs, _ = decide(ident, x, y)
            got = _value(*lhs), _value(*rhs)
            assert got == expected and got[0] == got[1], ident
            assert all(type(v) is kind_type for v in got), ident
    z = 1 - x - y
    for kind in ("2", "11211"):
        try:
            bx, by, bz, rhs = _ref_insertion(kind, x, y, z)
        except ZeroDivisionError:
            poles.append(kind)
            with pytest.raises(ValueError, match="pole"):
                insertion(kind, x, y, z)
        else:
            assert 1 - bx - by - bz == rhs
            got = insertion(kind, x, y, z)
            assert got == (bx, by, bz, rhs), kind
            assert all(type(v) is kind_type for v in got), kind
    return poles


# zeros of the inversions and of the right-hand sides' factors
_SPECIAL_X = [Fraction(v) for v in ("0", "1", "1/2", "-1", "3/2", "11/8", "-7/4",
                                    "13/16", "-13/10", "-2", "2")]
_SPECIAL_SUMS = [Fraction(v) for v in ("0", "1", "3", "11/4", "-7/2", "13/8", "-13/5",
                                       "7/2", "2", "-1")]
_rationals = st.one_of(st.sampled_from(_SPECIAL_X), st.fractions(-3, 3, max_denominator=40))


@st.composite
def _xy(draw):
    x = draw(_rationals)
    y = draw(st.one_of(_rationals, st.sampled_from(_SPECIAL_SUMS).map(lambda s: s - x)))
    return x, y


@settings(max_examples=400)
@given(_xy())
def test_pair_evaluation_matches_the_nested_forms(xy):
    _agree_with_reference(*xy, Fraction)


def test_the_drawn_points_reach_the_poles():
    # inversions of zero at x = 0, x = 1, x + y = 1 and x = -1 (1 + x),
    # a zero factor 2x - 3 at x = 3/2
    half = Fraction(1, 2)
    assert _agree_with_reference(Fraction(0), half, Fraction) == ["A", "B", "C", "lucky1",
                                                                 "lucky2", "2"]
    assert _agree_with_reference(Fraction(1), half, Fraction) == ["A", "C", "lucky1",
                                                                 "lucky2", "2"]
    assert _agree_with_reference(half, half, Fraction) == ["A", "B", "C", "lucky1", "11211"]
    assert _agree_with_reference(Fraction(-1), half, Fraction) == ["C", "11211"]
    assert _agree_with_reference(Fraction(3, 2), half, Fraction) == ["C", "lucky1",
                                                                    "lucky2", "2"]


def test_pair_evaluation_matches_the_nested_forms_on_quadratics():
    s2 = sqrt2()
    x = y = (2 - s2) / 2
    z = s2 - 1
    assert _agree_with_reference(x, y, QuadRat) == []
    assert _agree_with_reference(x, z, QuadRat) == []
    for kind in ("11211", "2", "11211"):
        x, y, z, _ = insertion(kind, x, y, z)
        assert _agree_with_reference(x, y, QuadRat) == []


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
    with pytest.raises(ValueError, match=r"capped at 40: .* ~[\d.]+ m?s, and the time grows"):
        generate_solutions(("2",) * 41)


def _scalene_family(ell):
    """The scalene family's words at l, from theorems._scalene_word, as a
    SolutionTriple ordered by value."""
    words = (theorems._scalene_word(t, ell) for t in theorems._SCALENE)
    return SolutionTriple(*sorted(words, key=PeriodicCF.value))


def test_scalene_family():
    prev = set()
    for ell in range(11):
        t = _scalene_family(ell)
        vx, vy, vz = t.values()
        assert vx + vy + vz == 1
        assert vx < vy < vz
        assert check_sum(t, "sum_is_one")
        prev.add(str(t.x))
    assert len(prev) == 11


def test_scalene_words_shape():
    t = _scalene_family(0)
    # [(2)^4, per(1,2)] absorbs one 2 into its period
    assert (t.z.pre, t.z.period) == ((2, 2, 2), (2, 1))
    assert {(w.pre, w.period) for w in (t.x, t.y)} == {((3, 1), (1, 2)), ((3, 3), (1, 2))}


def test_scalene_sweep_matches_scalene_family():
    sweep = scalene_sweep(40)
    assert len(sweep) == 41
    for ell, (values, ok) in enumerate(sweep):
        assert ok
        assert tuple(sorted(QuadRat(*v, 3) for v in values)) == _scalene_family(ell).values()
    with pytest.raises(ValueError):
        scalene_sweep(-1)


@pytest.mark.parametrize("sweep, cap, hook", [
    (lambda: verify_tables(401), r"n_max capped at 400", "table_rows"),
    (lambda: scalene_sweep(1001), r"l_max capped at 1000", "_scalene_classes"),
], ids=["verify_tables", "scalene_sweep"])
def test_sweeps_refuse_past_their_caps_before_any_work(monkeypatch, sweep, cap, hook):
    def work(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(theorems, hook, work)
    with pytest.raises(ValueError, match=cap + r": that run takes ~[\d.]+ s, and the time grows"):
        sweep()


@pytest.mark.parametrize("block", [(1,), (2,), (3,), (4,), (2, 4)])
def test_scalene_classes_agree_with_bad_class_at_every_l(block):
    for head, suffix in [((3,), (1,)), ((3,), (3,)), ((2, 2, 2, 2), ())]:
        template = (head, block, suffix, (1, 2))
        classes = theorems._scalene_classes(template)
        for ell in range(7):
            word = PeriodicCF(head + block * ell + suffix, (1, 2))
            assert classes[min(ell, 1)] == bad_class(word)[0]


def test_scalene_classes_read_the_block():
    assert [theorems._scalene_classes(t) for t in theorems._SCALENE] == [(2, 2)] * 3
    # a block digit 4 puts every l >= 1 word outside B_2; a preperiod digit
    # may exceed B by one, so a block of 3s stays in B_2, its last 3 at l + 1
    assert theorems._scalene_classes(((3,), (4,), (1,), (1, 2))) == (2, 3)
    assert theorems._scalene_classes(((3,), (3,), (1,), (1, 2))) == (2, 2)
    assert bad_class(PeriodicCF((3,) * 6 + (1,), (1, 2))) == (2, 6)


def test_scalene_sweep_checks_the_class(monkeypatch):
    # every sum still holds; only the class verdict changes
    monkeypatch.setattr(theorems, "bad_class", lambda cf: (3, 0))
    assert [ok for _, ok in scalene_sweep(3)] == [False] * 4
    monkeypatch.undo()
    monkeypatch.setattr(theorems, "_scalene_classes", lambda template: (2, 3))
    assert [ok for _, ok in scalene_sweep(3)] == [True, False, False, False]


def test_scalene_sweep_checks_distinctness(monkeypatch):
    # [3,(2)^l,per(2)] twice and [(2)^l,per(2)]: MAIN_SOLUTIONS' isosceles
    # triple at every l, whose sum is 1 but whose x and y are equal
    isosceles = (((3,), (2,), (), (2,)),) * 2 + (((), (2,), (), (2,)),)
    monkeypatch.setattr(theorems, "_SCALENE", isosceles)
    sweep = scalene_sweep(3)
    assert all(sum(QuadRat(*v, 2) for v in values) == 1 for values, _ in sweep)
    assert [ok for _, ok in sweep] == [False] * 4


@pytest.mark.parametrize("word", [0, 1, 2])
def test_scalene_family_refuses_values_from_two_fields(monkeypatch, word):
    # one word's tail [per(2)] lies in Q(sqrt 2), the others' [per(1,2)] in Q(sqrt 3)
    templates = list(theorems._SCALENE)
    head, block, suffix, _ = templates[word]
    templates[word] = (head, block, suffix, (2,))
    monkeypatch.setattr(theorems, "_SCALENE", tuple(templates))
    assert [ok for _, ok in scalene_sweep(2)] == [False] * 3


_QUADRAT_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__truediv__",
                       "__eq__", "__lt__", "__le__", "__gt__", "__ge__")


def test_theorems_decides_with_integers_alone(monkeypatch):
    # every sum, order and equality test is the sign of one cleared integer
    # sum: with QuadRat's arithmetic and comparisons made to raise, every
    # verdict, scalene value and search survivor is still the one pinned below
    def arithmetic(*args):
        raise AssertionError("theorems did QuadRat arithmetic")

    mixed = (
        SolutionTriple(PeriodicCF((), (1, 2)), PeriodicCF((), (2, 1)), PeriodicCF((), (2,))),
        SolutionTriple(PeriodicCF((3,), (2,)), PeriodicCF((), (2, 1)), PeriodicCF((3,), (2,))),
    )
    triples = MAIN_SOLUTIONS + MAIN2_SOLUTIONS + B22_SOLUTIONS + mixed
    for op in _QUADRAT_ARITHMETIC:
        monkeypatch.setattr(QuadRat, op, arithmetic)
    relations = ("sum_is_one", "x_plus_y_is_z")
    verdicts = [[theorems._sum_verdict(t, relation, j=j) for relation in relations
                 for j in (None, 1, 2)] for t in triples]
    checks = [check_sum(t, "sum_is_one", j=2) for t in B22_SOLUTIONS]
    sweep = scalene_sweep(3)
    survivors = {relation: search_triples(relation, 8) for relation in relations}
    monkeypatch.undo()
    # per triple: sum_is_one at j = None, 1, 2, then x_plus_y_is_z at the same j
    holds, fails = (True, True, True), (False, False, True)
    b22 = [holds, (True, True, False), holds, fails, (False, False, False), fails]  # not B_{2,1}
    assert verdicts == ([[holds] * 3 + [fails] * 3] * 2 + [[fails] * 3 + [holds] * 3] * 4
                        + [b22] * 3 + [[fails] * 6] * 2)
    assert checks == [True] * 3
    assert [ok for _, ok in sweep] == [True] * 4
    assert [tuple(QuadRat(*v, 3) for v in values) for values, _ in sweep] == [
        (QuadRat(9, -1, 26, 3), QuadRat(5, 1, 22, 3), QuadRat(61, -1, 143, 3)),
        (QuadRat(39, 1, 138, 3), QuadRat(43, -1, 142, 3), QuadRat(2031, -1, 4899, 3)),
        (QuadRat(241, -1, 818, 3), QuadRat(237, 1, 814, 3), QuadRat(68953, -1, 166463, 3)),
        (QuadRat(1391, 1, 4754, 3), QuadRat(1395, -1, 4758, 3),
         QuadRat(2342331, -1, 5654883, 3)),
    ]
    # each depth-8 survivor holds one target solution's 8-digit prefixes
    targets = {"sum_is_one": MAIN_SOLUTIONS,
               "x_plus_y_is_z": [MAIN2_SOLUTIONS[i] for i in (1, 0, 3, 2)]}
    for relation, words in survivors.items():
        assert words == [tuple(w.digits_prefix(8) for w in (t.x, t.y, t.z))
                         for t in targets[relation]]


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
            all(_in_hull(w, v) for w, v in zip(trip, sol)) for sol in vals
        )
    for sol in vals:
        assert any(
            all(_in_hull(w, v) for w, v in zip(trip, sol)) for trip in survivors
        )


def test_search_x_plus_y_is_z_depth12():
    vals = [t.values() for t in MAIN2_SOLUTIONS]
    survivors = search_triples("x_plus_y_is_z", 12)
    assert len(survivors) == 4
    for trip in survivors:
        assert any(
            all(_in_hull(w, v) for w, v in zip(trip, sol)) for sol in vals
        )
    for sol in vals:
        assert any(
            all(_in_hull(w, v) for w, v in zip(trip, sol)) for trip in survivors
        )


def test_search_survivors_nest():
    for relation in ("sum_is_one", "x_plus_y_is_z"):
        shallow = set(search_triples(relation, 6))
        deep = search_triples(relation, 8)
        assert deep
        for trip in deep:
            assert tuple(w[:6] for w in trip) in shallow


def _frames():
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


def _prefix(w, n):
    return (w.pre + w.period * n)[:n]


@pytest.mark.parametrize("relation, solutions", [
    ("sum_is_one", MAIN_SOLUTIONS),
    ("x_plus_y_is_z", MAIN2_SOLUTIONS),
])
def test_search_needs_no_frame_per_digit(relation, solutions):
    # a search that recursed once per digit would need ~3 * 16 frames here
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 30)
    try:
        survivors = search_triples(relation, 16)
    finally:
        sys.setrecursionlimit(limit)
    assert sorted(survivors) == sorted(
        tuple(_prefix(w, 16) for w in (t.x, t.y, t.z)) for t in solutions
    )


def _spine(pre, period, n=16):
    return (pre + period * n)[:n]


# every survivor at depth 16, in the order the search reports them
_SURVIVORS_AT_16 = {
    ("sum_is_one", 1): [],
    ("sum_is_one", 2): [],
    ("sum_is_one", 3): [
        (_spine((3,), (1, 2)), _spine((), (2, 1)), _spine((), (2, 1))),
        (_spine((3,), (2,)), _spine((3,), (2,)), _spine((), (2,))),
    ],
    ("x_plus_y_is_z", 1): [],
    ("x_plus_y_is_z", 2): [
        (_spine((), (2, 1)), _spine((), (2, 1)), _spine((), (1, 2))),
    ],
    ("x_plus_y_is_z", 3): [
        (_spine((), (2, 1)), _spine((), (2, 1)), _spine((), (1, 2))),
        (_spine((3,), (1, 2)), _spine((), (2, 1)), _spine((1, 1, 1), (2, 1))),
        (_spine((3,), (2,)), _spine((), (2,)), _spine((1,), (2,))),
        (_spine((3,), (2,)), _spine((3,), (2,)), _spine((1, 1), (2,))),
    ],
}


@pytest.mark.parametrize("relation, first_digit_max", sorted(_SURVIVORS_AT_16))
def test_search_survivors_pinned_at_depth_16(relation, first_digit_max):
    survivors = search_triples(relation, 16, first_digit_max=first_digit_max)
    assert survivors == _SURVIVORS_AT_16[relation, first_digit_max]


def _search_by_words(relation, depth, first_digit_max):
    """search_triples with every word's range computed from the whole word
    and kept in a dict keyed by the word, the parity of its length
    deciding which tail gives the lower end."""
    tail_lo, tail_hi = (sqrt3() - 1) / 2, sqrt3() - 1
    cache = {}

    def hull(word):
        if word not in cache:
            if not word:
                lo, hi = word_map((first_digit_max,), tail_hi), word_map((1,), tail_lo)
            else:
                ends = word_map(word, tail_lo), word_map(word, tail_hi)
                lo, hi = ends if len(word) % 2 == 0 else ends[::-1]
            cache[word] = lo, hi, hi - lo
        return cache[word]

    def feasible(words):
        (xl, xh, _), (yl, yh, _), (zl, zh, _) = (hull(w) for w in words)
        if not xl <= yh:
            return False
        if relation == "sum_is_one":
            return yl <= zh and xl + yl + zl <= 1 <= xh + yh + zh
        return xl + yl <= zh and zl <= xh + yh

    survivors = []
    stack = [((), (), ())] if feasible(((), (), ())) else []
    while stack:
        words = stack.pop()
        widths = [(hull(w)[2], i) for i, w in enumerate(words) if len(w) < depth]
        if not widths:
            survivors.append(words)
            continue
        _, i = max(widths, key=lambda t: (t[0], -t[1]))
        children = []
        for b in range(1, (first_digit_max if not words[i] else 2) + 1):
            new = words[:i] + (words[i] + (b,),) + words[i + 1:]
            if feasible(new):
                children.append(new)
        stack.extend(reversed(children))
    return survivors


@pytest.mark.parametrize("first_digit_max", [1, 2, 3, 4])
@pytest.mark.parametrize("relation", ["sum_is_one", "x_plus_y_is_z"])
def test_search_matches_a_word_keyed_search(relation, first_digit_max):
    # first_digit_max 4 stops at depth 10: its survivors grow about 5x per two
    # digits, and depth 16 holds 120,444 (sum) and 234,281 (x + y = z) of them
    for depth in range(11 if first_digit_max == 4 else 17):
        assert search_triples(relation, depth, first_digit_max) == _search_by_words(
            relation, depth, first_digit_max)


@pytest.mark.parametrize("relation", ["sum_is_one", "x_plus_y_is_z"])
def test_search_builds_no_quadrat(monkeypatch, relation):
    def build(*args):
        raise AssertionError("the search built a QuadRat")

    monkeypatch.setattr(QuadRat, "_new", staticmethod(build))
    assert search_triples(relation, 16) == _SURVIVORS_AT_16[relation, 3]


def _search_ends(word):
    """A nonempty word's (lo, hi) over the tails [per(2,1)] and [per(1,2)],
    each as (integer triple, QuadRat): the triples by the search's rule,
    the QuadRats from the tails' images, sorted by value."""
    tails = theorems._TAIL_LO, theorems._TAIL_HI
    m = convergents(word)
    ends = [_mobius_triple(m, t.a, t.b, t.c, t.d) for t in tails]
    if m[0] * m[3] < m[2] * m[1]:
        ends.reverse()
    return list(zip(ends, sorted(word_map(word, t) for t in tails)))


def _triple_sign(terms, k=0):
    return theorems._sum_sign(terms, 3, k)


_SEARCH_WORDS = st.lists(st.integers(1, 4), min_size=1, max_size=24).map(tuple)


@given(data=st.data())
def test_sum_sign_matches_quadrat_arithmetic(data):
    words = data.draw(st.lists(_SEARCH_WORDS, min_size=3, max_size=3))
    if data.draw(st.booleans()):
        words[1] = words[0]  # equal operands: the signs must be 0
    ends = [_search_ends(w) for w in words]
    for triple, value in itertools.chain(*ends):
        assert QuadRat(*triple, 3) == value
    neg = theorems._neg
    # u <= v, as the order tests decide it
    (u, qu), (v, qv) = ends[0][data.draw(st.integers(0, 1))], ends[1][data.draw(st.integers(0, 1))]
    assert _triple_sign((u, neg(v))) == (qu - qv).sign()
    # sum - k, as the relation bounds decide it
    k = data.draw(st.integers(0, 3))
    picks = [e[data.draw(st.integers(0, 1))] for e in ends]
    assert _triple_sign([t for t, _ in picks], k) == (sum(q for _, q in picks) - k).sign()
    # the width order, as the widest-first choice decides it
    ((l0, ql0), (h0, qh0)), ((l1, ql1), (h1, qh1)) = ends[:2]
    assert _triple_sign((h0, neg(l0), neg(h1), l1)) == ((qh0 - ql0) - (qh1 - ql1)).sign()


def test_search_rejects_bad_args():
    with pytest.raises(ValueError):
        search_triples("sum_is_one", 17)
    with pytest.raises(ValueError):
        search_triples("difference", 4)


@pytest.mark.parametrize("first_digit_max", [0, -2, 5, 3.0])
def test_search_refuses_first_digit_max_outside_1_to_4(monkeypatch, first_digit_max):
    def build(*args):
        raise AssertionError("the search built a node")

    # the checks come before the first convergent matrix
    monkeypatch.setattr(theorems, "convergents", build)
    with pytest.raises(ValueError, match="first_digit_max"):
        search_triples("sum_is_one", 4, first_digit_max)


def _in_closed_hull(word, value):
    """An exact value against the Fraction ends of its word's hull_pairs."""
    lo, hi = (Fraction(*end) for end in hull_pairs(convergents(word)))
    return lo <= value <= hi


def _covers_by_prefix(word, cf):
    return cf.digits_prefix(len(word)) == word


@pytest.mark.parametrize("relation, targets, pairs_checked", [
    ("sum_is_one", MAIN_SOLUTIONS, 788),
    ("x_plus_y_is_z", MAIN2_SOLUTIONS, 3052),
])
def test_survivors_cover_targets_by_prefix_as_by_value(relation, targets, pairs_checked):
    # an irrational lies in a word's closed cylinder iff its digits begin
    # with the word: the coverage rule of `verify search`
    pairs = 0
    for first_digit_max, depth_max in ((1, 16), (2, 16), (3, 16), (4, 8)):
        for depth in range(depth_max + 1):
            for words in search_triples(relation, depth, first_digit_max):
                for t in targets:
                    words_cfs = list(zip(words, (t.x, t.y, t.z)))
                    assert (all(_covers_by_prefix(w, cf) for w, cf in words_cfs)
                            == all(_in_closed_hull(w, cf.value()) for w, cf in words_cfs))
                    pairs += 1
    assert pairs == pairs_checked  # (survivor, target) pairs over every depth


_PERIODIC = st.builds(PeriodicCF, st.lists(st.integers(1, 4), max_size=4),
                      st.lists(st.integers(1, 4), min_size=1, max_size=4))


@given(data=st.data())
def test_prefix_is_closed_hull_membership(data):
    cf = data.draw(_PERIODIC)
    try:
        value = cf.value()
    except ValueError:  # a value outside the supported quadratic fields
        assume(False)
    word = cf.digits_prefix(data.draw(st.integers(0, 12)))
    how = data.draw(st.sampled_from(["prefix", "one digit off", "random"]))
    if how == "one digit off" and word:
        i = data.draw(st.integers(0, len(word) - 1))
        word = word[:i] + (data.draw(st.integers(1, 4).filter(lambda b: b != word[i])),) + word[i + 1:]
    elif how == "random":
        word = tuple(data.draw(st.lists(st.integers(1, 4), max_size=12)))
    assert _covers_by_prefix(word, cf) == _in_closed_hull(word, value)


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
    lo, hi = _hull(res.witness)
    assert Fraction(3, 10) <= lo and hi <= h


def test_verify_tables_carried_status_matches_direct_sweep():
    rep = verify_tables(20)
    assert len(rep["exclusions"]) > 22
    for e in rep["exclusions"]:
        lo, hi = (Fraction(v) for v in e["interval"])
        assert e["status"] == excludes_b2(lo, hi, 30).status, e["interval"]


def test_verify_tables_sweeps_only_the_base_hulls(monkeypatch):
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


@pytest.mark.parametrize("depth", [0, 61])
def test_verify_tables_checks_the_depth_before_any_row(monkeypatch, depth):
    def check(*args):
        raise AssertionError("a row was checked")

    monkeypatch.setattr(theorems, "_check_row", check)
    with pytest.raises(ValueError, match="depth"):
        verify_tables(400, depth)


@pytest.mark.parametrize("depth", [2.5, 16.0, True])
@pytest.mark.parametrize("run", [
    lambda depth: search_triples("x_plus_y_is_z", depth),
    lambda depth: excludes_b2(Fraction(1, 3), Fraction(1, 2), depth),
    lambda depth: verify_tables(2, depth),
], ids=["search_triples", "excludes_b2", "verify_tables"])
def test_a_depth_that_is_not_an_int_is_refused_before_any_work(monkeypatch, run, depth):
    def work(*args):
        raise AssertionError("a node or row was built")

    for hook in ("convergents", "hull_pairs", "table_rows"):
        monkeypatch.setattr(theorems, hook, work)
    with pytest.raises(ValueError, match="depth must be an integer"):
        run(depth)


@pytest.mark.parametrize("value", [2.5, 3.0, True])
@pytest.mark.parametrize("run, name", [
    (lambda v: verify_tables(v), "n_max"),
    (lambda v: search_triples("x_plus_y_is_z", 4, first_digit_max=v), "first_digit_max"),
    (lambda v: scalene_sweep(v), "l_max"),
], ids=["verify_tables", "search_triples", "scalene_sweep"])
def test_a_count_that_is_not_an_int_is_refused_before_any_work(monkeypatch, run, name, value):
    def work(*args):
        raise AssertionError("a node, row or l was built")

    for hook in ("convergents", "table_rows", "_scalene_classes"):
        monkeypatch.setattr(theorems, hook, work)
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
        run(value)


def test_verify_tables_carry_checks_row_endpoints(monkeypatch):
    check = theorems._check_row

    def drifted(row, n, twos, three):
        left, right, *rest = check(row, n, twos, three)
        if n == 4:
            left = Fraction(*left) + Fraction(1, 10**40)
            left = left.numerator, left.denominator
        return left, right, *rest

    monkeypatch.setattr(theorems, "_check_row", drifted)
    with pytest.raises(AssertionError, match="carried hull"):
        verify_tables(6)
