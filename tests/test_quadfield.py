"""Tests for exact quadratic-field arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


@settings(deadline=None, derandomize=True)
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


@settings(deadline=None, derandomize=True)
@given(st.sampled_from((2, 3, 5)).flatmap(_quadrats))
def test_sign_agrees_with_float(x):
    f = float(x)
    if abs(f) > 1e-9:
        assert x.sign() == (1 if f > 0 else -1)
    assert (x.sign() == 0) == (x == 0)
