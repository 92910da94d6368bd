"""Tests for exact quadratic-field arithmetic."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from badtri.cf import convergents, word_map
from badtri.quadfield import QuadRat, sqrt2, sqrt3


def rand_quadrat(rng, d=2, span=20):
    a = rng.randint(-span, span)
    b = rng.randint(-span, span)
    c = rng.randint(1, span)
    if rng.random() < 0.5:
        c = -c
    return QuadRat(a, b, c, d)


def test_normalization():
    x = QuadRat(2, 4, -6, 2)
    assert (x.a, x.b, x.c) == (-1, -2, 3)
    assert QuadRat(0, 0, 7, 3) == 0
    # gcd reduced, denominator positive
    y = QuadRat(10, 20, 30, 3)
    assert (y.a, y.b, y.c) == (1, 2, 3)


def test_construction_from_rationals():
    assert QuadRat(Fraction(3, 4)) == Fraction(3, 4)
    assert QuadRat(5) == 5
    x = QuadRat(1, 1, 2, 2)
    assert QuadRat(x, d=2) == x


@pytest.mark.parametrize("args", [
    (1.5,),                      # a float a was truncated to 1
    (1, Fraction(1, 2)),         # a Fraction b was truncated to 0
    (1, 0, 0.4),                 # c = 0.4 passed the zero check, then int() made it 0
    (1, 0, 2.0),
    (1, 0, 1, 2.0),              # d must be an int, not a float equal to one
    ("1",),
    (None,),
])
def test_non_integer_parts_rejected(args):
    with pytest.raises(TypeError):
        QuadRat(*args)


def test_constructor_checks_final_values():
    with pytest.raises(ValueError):
        QuadRat(1, 0, 1, 7)
    with pytest.raises(ZeroDivisionError):
        QuadRat(1, 0, 0)
    with pytest.raises(ZeroDivisionError):
        QuadRat(Fraction(1, 2), 0, 0)
    with pytest.raises(ZeroDivisionError):
        QuadRat(sqrt2(), 0, 0)


def test_field_axioms_random():
    rng = random.Random(42)
    for d in (2, 3):
        for _ in range(200):
            x = rand_quadrat(rng, d)
            y = rand_quadrat(rng, d)
            z = rand_quadrat(rng, d)
            assert x + y == y + x
            assert (x + y) + z == x + (y + z)
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x - y == -(y - x)
            if y != 0:
                assert (x / y) * y == x
            if x != 0:
                assert x * x.inverse() == 1


def test_sign_against_decimal_oracle():
    rng = random.Random(7)
    for d in (2, 3):
        for _ in range(300):
            x = rand_quadrat(rng, d, span=50)
            s = x.sign()
            if s == 0:
                assert x == 0
                continue
            # 50-digit decimal of |x| must be nonzero in the claimed direction
            dec = (x if s > 0 else -x).to_decimal(50)
            assert not dec.startswith("-")
            assert any(ch != "0" for ch in dec.replace(".", ""))
            assert (float(x) > 0) == (s > 0)


def test_floor_random():
    rng = random.Random(11)
    for d in (2, 3, 5):
        for _ in range(300):
            x = rand_quadrat(rng, d, span=40)
            n = x.floor()
            assert (x - n).sign() >= 0
            assert (x - (n + 1)).sign() < 0


def test_unit_power_additivity():
    u = 1 + sqrt2()
    rng = random.Random(3)
    for _ in range(50):
        j = rng.randint(-8, 8)
        k = rng.randint(-8, 8)
        assert u**j * u**k == u ** (j + k)
    assert u**4 == 17 + 12 * sqrt2()
    assert u**-1 == sqrt2() - 1
    assert u**0 == 1


def test_pinned_decimals():
    assert (sqrt2() - 1).to_decimal(5) == "0.41421"
    assert QuadRat(Fraction(1, 3)).to_decimal(3) == "0.333"
    assert ((sqrt3() - 1) / 2).to_decimal(5) == "0.36602"
    assert QuadRat(-1, 0, 2, 2).to_decimal(2) == "-0.50"


def test_to_decimal_past_the_int_text_limit():
    # Python reads and writes ints of at most 4300 digits as text by default
    x = sqrt2() - 1
    text = x.to_decimal(10000)
    assert len(text) == 10002 and text.startswith(x.to_decimal(4000))
    assert QuadRat(Fraction(1, 10**9999)).to_decimal(10000) == "0." + "0" * 9998 + "10"


def test_solution_sums():
    s2, s3 = sqrt2(), sqrt3()
    assert (2 - s3) + (s3 - 1) / 2 + (s3 - 1) / 2 == 1
    assert (2 - s2) / 2 + (2 - s2) / 2 + (s2 - 1) == 1
    assert (1 - s2).sign() == -1
    assert (1 + s2) ** 2 == 3 + 2 * s2


def test_mixed_radicand_rejected():
    with pytest.raises(ValueError):
        sqrt2() + sqrt3()
    # rational values lift across radicands fine
    assert QuadRat(1, 0, 2, 2) + QuadRat(1, 0, 2, 3) == 1


def test_ordering():
    s2 = sqrt2()
    assert s2 - 1 < Fraction(1, 2)
    assert s2 > 1
    vals = sorted([s2 - 1, QuadRat(Fraction(1, 3)), s2 / 2, 2 - s2])
    assert [float(v) for v in vals] == sorted(float(v) for v in vals)


def test_hash_consistency():
    assert hash(QuadRat(Fraction(2, 3))) == hash(Fraction(2, 3))
    s = {sqrt2() - 1, sqrt2() - 1, QuadRat(1, -1, 1, 2) * -1}
    assert len(s) == 1


# ---------------------------------------------------------------- properties

# |a|, |b| <= 10^5 keep float's error near 1e-11, well inside the 1e-9 guard
_INTS = st.integers(-10**5, 10**5)


def _quadrats(d):
    return st.builds(QuadRat, _INTS, _INTS, st.integers(1, 10**5), st.just(d))


same_field_triples = st.sampled_from((2, 3, 5)).flatmap(
    lambda d: st.tuples(_quadrats(d), _quadrats(d), _quadrats(d))
)


@given(same_field_triples)
def test_field_laws(xyz):
    x, y, z = xyz
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == 0
    assert x - y == -(y - x)
    if x != 0:
        assert x * x.inverse() == 1
    if y != 0:
        assert (x / y) * y == x


@given(st.sampled_from((2, 3, 5)).flatmap(_quadrats))
def test_sign_agrees_with_float(x):
    f = float(x)
    if abs(f) > 1e-9:
        assert x.sign() == (1 if f > 0 else -1)
    assert (x.sign() == 0) == (x == 0)


# -------------------------------------------- fast paths against the formulas
#
# Each reference below is the textbook formula for its operation, built
# through the public constructor; an int or Fraction operand enters as
# QuadRat(Fraction(x), 0, 1, d).  The fast paths must give the very same
# normalised slots, and raise where the references raise.


def _matched(left, right):
    """left and right over one radicand, lifted as the operators lift them.

    A number operand takes the QuadRat's field; of two QuadRats in
    different fields, the rational one moves to the other's field (the
    right one when both are rational).
    """
    if not isinstance(left, QuadRat):
        return _matched(right, left)[::-1]
    if not isinstance(right, QuadRat):
        return left, QuadRat(Fraction(right), 0, 1, left.d)
    if right.d == left.d:
        return left, right
    if right.b == 0:
        return left, QuadRat(right.a, 0, right.c, left.d)
    return QuadRat(left.a, 0, left.c, right.d), right


def _ref_neg(s):
    return QuadRat(-s.a, -s.b, s.c, s.d)


def _ref_add(s, o):
    return QuadRat(s.a * o.c + o.a * s.c, s.b * o.c + o.b * s.c, s.c * o.c, s.d)


def _ref_sub(s, o):
    return _ref_add(s, _ref_neg(o))


def _ref_mul(s, o):
    return QuadRat(s.a * o.a + s.d * s.b * o.b, s.a * o.b + s.b * o.a, s.c * o.c, s.d)


def _ref_inverse(s):
    if s.a == 0 and s.b == 0:
        raise ZeroDivisionError("division by zero QuadRat")
    return QuadRat(s.c * s.a, -s.c * s.b, s.a * s.a - s.d * s.b * s.b, s.d)


def _ref_div(s, o):
    return _ref_mul(s, _ref_inverse(o))


def _outcome(fn, *args):
    """fn(*args) as its slots, or ZeroDivisionError if it raised that."""
    try:
        r = fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError
    return r.a, r.b, r.c, r.d


def _normalised(r, d):
    return r.c > 0 and math.gcd(r.a, r.b, r.c) == 1 and r.d == d


def _elements(d):
    """Irrational and rational elements of Q(sqrt d), zero and one included."""
    return st.one_of(
        _quadrats(d),
        st.builds(QuadRat, _INTS, st.just(0), st.integers(1, 10**5), st.just(d)),
        st.sampled_from((QuadRat(0, 0, 1, d), QuadRat(1, 0, 1, d), QuadRat(0, 1, 1, d))),
    )


def _operands(d):
    """An element of the same field, an int, a Fraction, or a rational of another field."""
    other = 5 if d == 2 else 2
    return st.one_of(
        _elements(d),
        _INTS,
        st.builds(Fraction, _INTS, st.integers(1, 10**5)),
        st.builds(QuadRat, _INTS, st.just(0), st.integers(1, 10**5), st.just(other)),
    )


@pytest.mark.parametrize("d", (2, 3, 5))
@given(data=st.data())
def test_operations_match_the_constructor_formulas(d, data):
    x = data.draw(_elements(d))
    y = data.draw(_operands(d))
    cases = [
        (lambda: x + y, _ref_add, x, y),
        (lambda: y + x, _ref_add, y, x),
        (lambda: x - y, _ref_sub, x, y),
        (lambda: y - x, _ref_sub, y, x),
        (lambda: x * y, _ref_mul, x, y),
        (lambda: y * x, _ref_mul, y, x),
        (lambda: x / y, _ref_div, x, y),
        (lambda: y / x, _ref_div, y, x),
    ]
    for fast, ref, left, right in cases:
        got = _outcome(fast)
        assert got == _outcome(ref, *_matched(left, right))
        if got is not ZeroDivisionError:
            assert _normalised(fast(), got[3])
    for fast, ref in [
        (lambda: -x, _ref_neg),
        (lambda: x.inverse(), _ref_inverse),
        (lambda: x ** 3, lambda s: _ref_mul(_ref_mul(s, s), s)),
        (lambda: x ** -2, lambda s: _ref_mul(_ref_inverse(s), _ref_inverse(s))),
    ]:
        got = _outcome(fast)
        assert got == _outcome(ref, x)
        if got is not ZeroDivisionError:
            assert _normalised(fast(), d)
    # the order is the sign of the normalised difference
    sign = _ref_sub(*_matched(x, y)).sign()
    assert (x < y, x <= y, x > y, x >= y) == (sign < 0, sign <= 0, sign > 0, sign >= 0)
    assert (y < x, y <= x, y > x, y >= x) == (sign > 0, sign >= 0, sign < 0, sign <= 0)
    assert (x == y) == (y == x) == (sign == 0)


@pytest.mark.parametrize("d", (2, 3, 5))
@given(data=st.data())
def test_word_map_matches_the_nested_form(d, data):
    word = tuple(data.draw(st.lists(st.integers(1, 6), max_size=10)))
    p1, q1, p, q = convergents(word)
    if q1 and data.draw(st.booleans()):
        t = QuadRat(-q, 0, q1, d)  # the rational pole
    else:
        t = data.draw(_elements(d))
    got = _outcome(word_map, word, t)
    assert got == _outcome(lambda: (p1 * t + p) / (q1 * t + q))
    if got is not ZeroDivisionError:
        assert _normalised(word_map(word, t), d)
