"""Tests for the continued-fraction core."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from badtri.cf import (
    MAX_WORD_DIGITS,
    ExpandResult,
    FiniteCF,
    PeriodicCF,
    bad_class,
    cf_compare,
    convergents,
    expand_quadratic,
    expand_real,
    format_cf,
    hull_pairs,
    in_bad_class,
    one_minus,
    parse_cf,
    word_map,
)
from badtri.quadfield import QuadRat, sqrt2, sqrt3


def rand_periodic(rng, max_pre=3, max_per=4, hi=3):
    """Random word; value may land outside Q(sqrt 2/3/5), so callers skip those."""
    pre = [rng.randint(1, hi) for _ in range(rng.randint(0, max_pre))]
    per = [rng.randint(1, hi) for _ in range(rng.randint(1, max_per))]
    return PeriodicCF(pre, per)


def rand_valued(rng, n, **kw):
    out = []
    while len(out) < n:
        w = rand_periodic(rng, **kw)
        try:
            v = w.value()
        except ValueError:
            continue
        out.append((w.canonical(), v))
    return out


# ---------------------------------------------------------------- evaluation


def test_eval_finite_examples():
    assert FiniteCF([3]).value() == Fraction(1, 3)
    assert FiniteCF([2, 3]).value() == Fraction(3, 7)
    assert FiniteCF([2, 3, 1]).value() == Fraction(4, 9)
    assert FiniteCF([1]).value() == 1


def test_finite_canonical():
    assert FiniteCF([2, 3, 1]).canonical().digits == (2, 4)
    assert FiniteCF([2, 3, 1]).canonical().value() == Fraction(4, 9)
    assert FiniteCF([1]).canonical().digits == (1,)
    assert FiniteCF([1, 1]).canonical().digits == (2,)


def test_eval_periodic_pinned():
    s2, s3 = sqrt2(), sqrt3()
    assert PeriodicCF([], [2]).value() == s2 - 1
    assert PeriodicCF([], [2, 1]).value() == (s3 - 1) / 2
    assert PeriodicCF([3], [1, 2]).value() == 2 - s3
    assert PeriodicCF([3], [2]).value() == (2 - s2) / 2
    assert PeriodicCF([], [1, 2]).value() == s3 - 1
    assert PeriodicCF([1], [2]).value() == s2 / 2


def test_periodic_canonicalization():
    # absorb preperiod digits into a rotated period
    assert PeriodicCF([3, 2], [2]).canonical() == PeriodicCF([3], [2])
    assert PeriodicCF([1, 1, 1], [2, 1]).canonical() == PeriodicCF([1, 1], [1, 2])
    # primitive period
    assert PeriodicCF([], [2, 1, 2, 1]).canonical() == PeriodicCF([], [2, 1])
    # canonicalization preserves value
    rng = random.Random(5)
    for w, v in rand_valued(rng, 60):
        assert w.value() == v


def test_eval_periodic_radicand_error():
    # [per(1,1,2)] has discriminant with squarefree part 85
    with pytest.raises(ValueError):
        PeriodicCF([], [1, 1, 2]).value()


# ------------------------------------------------------------- expand, gauss


def test_expand_pinned():
    assert expand_quadratic(2 - sqrt3()) == PeriodicCF([3], [1, 2])
    assert expand_quadratic((2 - sqrt2()) / 2) == PeriodicCF([3], [2])


def test_expand_roundtrip_random():
    rng = random.Random(42)
    for w, v in rand_valued(rng, 100):
        assert expand_quadratic(v) == w
        assert expand_quadratic(v).value() == v


def test_expand_rejects_rational():
    with pytest.raises(ValueError):
        expand_quadratic(QuadRat(Fraction(1, 3)))
    with pytest.raises(ValueError):
        expand_quadratic(sqrt2())  # not in (0,1)


def test_expand_gives_up_after_max_gauss_steps(monkeypatch):
    # [3,per(1,2)] repeats its state at the fourth step
    monkeypatch.setattr("badtri.cf.MAX_GAUSS_STEPS", 4)
    assert expand_quadratic(2 - sqrt3()) == PeriodicCF([3], [1, 2])
    monkeypatch.setattr("badtri.cf.MAX_GAUSS_STEPS", 3)
    with pytest.raises(RuntimeError, match="no period detected within 3 iterations"):
        expand_quadratic(2 - sqrt3())


def test_gauss_map_shift():
    # the Gauss map 1/x - floor(1/x) drops a word's first digit
    rng = random.Random(9)
    for w, v in rand_valued(rng, 60):
        inv = v.inverse()
        tail = expand_quadratic(inv - inv.floor())
        d, rest = (
            (w.pre[0], PeriodicCF(w.pre[1:], w.period))
            if w.pre
            else (w.period[0], PeriodicCF((), w.period[1:] + w.period[:1]))
        )
        assert tail == rest.canonical()


# ------------------------------------------------------------------ 1 ancora


def test_one_minus_pinned():
    assert one_minus(PeriodicCF([], [2])) == PeriodicCF([1, 1], [2])
    assert one_minus(PeriodicCF([], [2, 1])).value() == (3 - sqrt3()) / 2
    assert one_minus(PeriodicCF([], [2, 1])) == PeriodicCF([1, 1, 1], [2, 1]).canonical()


def test_one_minus_value_law_and_involution():
    rng = random.Random(1)
    seen = 0
    for w, v in rand_valued(rng, 80):
        if (1 - v).sign() <= 0:
            continue
        m = one_minus(w)
        assert m.value() == 1 - v
        assert one_minus(m) == w
        seen += 1
    assert seen >= 60
    # finite words too
    for _ in range(200):
        digits = [rng.randint(1, 5) for _ in range(rng.randint(1, 6))]
        f = FiniteCF(digits).canonical()
        if f.value() == 1:
            continue
        m = one_minus(f)
        assert m.value() == 1 - f.value()
        assert one_minus(m) == f


# ------------------------------------------------------------------ cylinders


def _hull(word):
    """The closed cylinder hull by value: the images of the tails 0 and 1, sorted."""
    return tuple(sorted(word_map(word, t) for t in (0, 1)))


def test_cylinder_pinned():
    # the hull's ends are the word's value (tail 0) and the mediant (tail 1);
    # the mediant is the lower end for a word of odd length
    for word, hull, mediant in (((3,), (Fraction(1, 4), Fraction(1, 3)), 0),
                                ((1,), (Fraction(1, 2), Fraction(1)), 0),
                                ((2, 1), (Fraction(1, 3), Fraction(2, 5)), 1)):
        assert _hull(word) == hull
        assert word_map(word, 1) == hull[mediant]


def test_cylinder_width_nesting_determinant():
    rng = random.Random(4)
    for _ in range(200):
        word = [rng.randint(1, 4) for _ in range(rng.randint(1, 8))]
        p1, q1, p, q = convergents(word)
        assert p * q1 - p1 * q == (-1) ** (len(word) + 1)
        lo, hi = _hull(word)
        assert hi - lo == Fraction(1, q * (q + q1))
        for b in (1, 2, 3):
            child_lo, child_hi = _hull(word + [b])
            assert lo <= child_lo and child_hi <= hi
        # the word's own value lies in the cylinder
        assert lo <= FiniteCF(word).value() <= hi


def test_cylinder_contains_expansion_prefix():
    rng = random.Random(8)
    for w, v in rand_valued(rng, 40):
        lo, hi = _hull(w.digits_prefix(5))
        assert (v - lo).sign() >= 0 and (hi - v).sign() >= 0


# --------------------------------------------------------------- hull pairs

_words = st.lists(st.integers(1, 6), max_size=8).map(tuple)


@given(_words, _words)
def test_hull_pairs_are_the_sorted_tail_images_in_lowest_terms(prefix, word):
    # a Fraction's numerator and denominator are coprime with the
    # denominator positive, so equal pairs show hull_pairs' are too
    ends = _hull(prefix + word)
    assert hull_pairs(convergents(word, convergents(prefix))) == tuple(
        (v.numerator, v.denominator) for v in ends)


@given(_words, st.integers(1, 6))
def test_one_digit_step_continues_the_word(word, b):
    assert convergents((b,), convergents(word)) == convergents(word + (b,))


def test_hull_of_the_empty_word_is_the_tails():
    assert hull_pairs(convergents(())) == ((0, 1), (1, 1))
    lo, hi = PeriodicCF((), (2, 1)).value(), PeriodicCF((), (1, 2)).value()
    assert (word_map((), lo), word_map((), hi)) == (lo, hi)
    # quadratic tails map through one digit's decreasing map
    assert word_map((3,), hi) < word_map((3,), lo)


# ----------------------------------------------------------------- compare


def test_compare_b2_extremes():
    lo = PeriodicCF([], [2, 1])  # min of the digit-{1,2} numbers
    hi = PeriodicCF([], [1, 2])  # max
    assert cf_compare(lo, hi) == -1
    assert cf_compare(hi, lo) == 1
    rng = random.Random(6)
    for _ in range(1000):
        w = PeriodicCF(
            [rng.randint(1, 2) for _ in range(rng.randint(0, 4))],
            [rng.randint(1, 2) for _ in range(rng.randint(1, 4))],
        ).canonical()
        assert cf_compare(lo, w) <= 0
        assert cf_compare(w, hi) <= 0


def test_compare_matches_values():
    rng = random.Random(13)
    words = rand_valued(rng, 40)
    for wx, vx in words:
        for wy, vy in words:
            try:
                s = (vx - vy).sign()
            except ValueError:
                continue  # mixed radicands: incomparable exactly, skip
            assert cf_compare(wx, wy) == s


# ----------------------------------------------------------------- bad class


def test_bad_class_pinned():
    assert bad_class(PeriodicCF([], [2])) == (2, 0)
    assert bad_class(PeriodicCF([3], [2])) == (2, 1)
    assert bad_class(PeriodicCF([3, 3], [1, 2])) == (2, 2)


def test_bad_class_minimal_and_monotone():
    rng = random.Random(21)
    for _ in range(300):
        w = rand_periodic(rng, max_pre=4, hi=5)
        b, j = bad_class(w)
        assert in_bad_class(w.canonical(), b, j)
        if j > 0:
            assert not in_bad_class(w.canonical(), b, j - 1)
        assert not in_bad_class(w.canonical(), b - 1, j) or b == 1
        # membership is monotone in j
        assert in_bad_class(w.canonical(), b, j + 1)


_digit = st.integers(1, 6)


@given(st.lists(_digit, max_size=6), st.lists(_digit, min_size=1, max_size=4),
       st.integers(1, 7), st.integers(0, 8))
def test_in_bad_class_is_the_digit_scan(pre, period, b, j):
    # B_{b,j}: a digit at position k <= j may be b + 1, every later one at
    # most b; past the preperiod and position j one full period shows them all
    w = PeriodicCF(pre, period)
    scan = all(w.digit(k) <= (b + 1 if k <= j else b)
               for k in range(1, max(len(pre), j) + len(period) + 1))
    assert in_bad_class(w, b, j) == scan
    assert bad_class(w) == bad_class(w.canonical())
    with pytest.raises(ValueError, match="j must be >= 0"):
        in_bad_class(w, b, -1)


# --------------------------------------------------------------- expand_real


def test_expand_real_rational_boundary():
    r = expand_real("0." + "3" * 40, Fraction(1, 10**40))
    assert r == ExpandResult((3,), True)


def test_expand_real_golden():
    golden = (QuadRat(0, 1, 1, 5) - 1) / 2
    r = expand_real(golden.to_decimal(50))
    assert set(r.digits) == {1}
    assert len(r.digits) >= 40
    assert not r.terminated


def test_expand_real_sqrt2():
    r = expand_real((sqrt2() - 1).to_decimal(60))
    assert set(r.digits) == {2}
    assert len(r.digits) >= 50


def test_expand_real_certified_prefix_correct():
    # unconditional digits must agree with the true expansion even for coarse
    # bounds; a terminated result's final digit is the bracketing boundary and
    # is only conditionally correct
    x = (sqrt3() - 1) / 2
    true = PeriodicCF([], [2, 1])
    for places in (8, 20, 45):
        r = expand_real(x.to_decimal(places))
        sure = r.digits[:-1] if r.terminated else r.digits
        assert len(sure) >= places // 2  # digits accrue with precision
        assert sure == true.digits_prefix(len(sure))
    with pytest.raises(ValueError):
        expand_real("0.5", Fraction(1, 4))  # too coarse for even one digit


def test_expand_real_reads_p_q_and_err_text():
    # p/q text is exact, so its error bound defaults to 0; err may be text
    exact = ExpandResult((1, 2, 2), True)
    assert expand_real("5/7") == expand_real(Fraction(5, 7), 0) == exact
    assert expand_real("0.5", "1e-3") == expand_real("0.5", Fraction(1, 1000))
    assert expand_real("0.25", "1/1000") == expand_real("0.25", Fraction(1, 1000))


# ------------------------------------------------------------- text syntax


def test_parse_format_roundtrip():
    w = parse_cf("[3,(2)^4,1,per(1,2)]")
    assert w == PeriodicCF([3, 2, 2, 2, 2, 1], [1, 2]).canonical()
    assert parse_cf("[2,3,inf]") == FiniteCF([2, 3])
    assert parse_cf("[ 2 , 3 , inf ]") == FiniteCF([2, 3])
    assert parse_cf(format_cf(w)) == w
    assert format_cf(FiniteCF([2, 3])) == "[2,3,inf]"
    assert format_cf(PeriodicCF([3], [2])) == "[3,per(2)]"
    rng = random.Random(2)
    for _ in range(100):
        w = rand_periodic(rng)
        assert parse_cf(format_cf(w)) == w.canonical()


def test_parse_errors():
    for bad in ("[2,3]", "2,3,inf", "[per(1),2]", "[inf,2]", "[(2)^,inf]", "[2,(1,per(2)]"):
        with pytest.raises(ValueError):
            parse_cf(bad)


def test_parse_caps_repetitions_at_the_word_length():
    assert len(parse_cf(f"[(2)^{MAX_WORD_DIGITS},inf]").digits) == MAX_WORD_DIGITS
    for bad in (
        f"[(1)^{MAX_WORD_DIGITS + 1},inf]",
        f"[(1,2)^{MAX_WORD_DIGITS // 2 + 1},inf]",
        f"[(1)^{MAX_WORD_DIGITS // 2},(2)^{MAX_WORD_DIGITS // 2 + 1},per(1)]",
    ):
        with pytest.raises(ValueError, match=f"past {MAX_WORD_DIGITS} digits"):
            parse_cf(bad)
    with pytest.raises(ValueError, match="negative repeat count"):
        parse_cf("[(1)^-1,inf]")


def test_convergents_identity():
    p1, q1, p, q = convergents([2, 2, 1, 3])
    assert Fraction(p, q) == Fraction(11, 26)
    assert p * q1 - p1 * q in (-1, 1)


# ---------------------------------------------------------------- properties

# primitive periods whose value lies in Q(sqrt d) for a d PeriodicCF.value knows
PERIODS_BY_FIELD = {
    5: [(1,), (4,)],
    2: [(2,), (1, 4), (4, 1)],
    3: [(1, 2), (2, 1), (3, 4), (4, 3)],
}


def _words(periods):
    return st.builds(
        PeriodicCF, st.lists(st.integers(1, 4), max_size=12), st.sampled_from(periods)
    )


words = _words([p for ps in PERIODS_BY_FIELD.values() for p in ps])
word_pairs = st.sampled_from(sorted(PERIODS_BY_FIELD.values())).flatmap(
    lambda periods: st.tuples(_words(periods), _words(periods))
)


def _fold_value(w):
    """[pre, y] one digit at a time, y the purely periodic tail."""
    y = PeriodicCF((), w.period).value()
    for b in reversed(w.pre):
        y = (b + y).inverse()
    return y


@given(words)
def test_value_matches_digit_fold(w):
    assert w.value() == _fold_value(w)


@given(words)
def test_expand_and_text_roundtrip(w):
    assert expand_quadratic(w.value()) == w.canonical()
    assert parse_cf(format_cf(w)) == w.canonical()


@given(words)
def test_one_minus_involution_and_value(w):
    m = one_minus(w)
    assert one_minus(m) == w.canonical()
    assert m.value() == 1 - w.value()


@given(word_pairs)
def test_compare_is_sign_of_difference(pair):
    x, y = pair
    assert cf_compare(x, y) == (x.value() - y.value()).sign()


@given(st.lists(st.integers(1, 6), max_size=10),
       st.one_of(st.integers(-30, 30), st.fractions(-30, 30, max_denominator=60)),
       st.booleans())
def test_word_map_of_a_rational_tail_is_its_mobius_map(word, t, at_pole):
    # one Fraction from the convergent matrix, equal to the map computed
    # in Fraction arithmetic, and a ZeroDivisionError at the same poles
    p1, q1, p, q = convergents(word)
    if at_pole and q1:
        t = Fraction(-q, q1)
    try:
        expected = (p1 * Fraction(t) + p) / (q1 * Fraction(t) + q)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            word_map(word, t)
    else:
        value = word_map(word, t)
        assert type(value) is Fraction and value == expected


@given(st.lists(st.integers(1, 6), max_size=10), st.lists(st.integers(1, 6), max_size=10))
def test_convergents_continue_a_prefix(prefix, word):
    assert convergents(word, convergents(prefix)) == convergents(prefix + word)
