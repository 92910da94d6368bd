"""Exact arithmetic in the real quadratic fields Q(sqrt(2)), Q(sqrt(3)), Q(sqrt(5)).

A :class:`QuadRat` is an element (a + b*sqrt(d))/c with integer a, b and a
positive integer c, kept in lowest terms (gcd(a, b, c) == 1).  All
operations, including sign determination and floor, are exact integer
computations -- no floating point is ever consulted for a decision.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction

__all__ = ["QuadRat", "sqrt2", "sqrt3"]

_ALLOWED_D = (2, 3, 5)


def _sign(a, b, d):
    """Exact sign of a + b*sqrt(d), by integer case analysis (no floats)."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # a and b have opposite signs: compare a^2 with d*b^2.
    lhs, rhs = a * a, d * b * b
    if lhs == rhs:  # impossible for squarefree d, kept for safety
        return 0
    bigger_is_a = lhs > rhs
    return (1 if bigger_is_a else -1) if a > 0 else (-1 if bigger_is_a else 1)


class QuadRat:
    """(a + b*sqrt(d)) / c, normalized so c > 0 and gcd(a, b, c) == 1."""

    __slots__ = ("a", "b", "c", "d")

    def __new__(cls, a, b=0, c=1, d=2):
        if not (isinstance(b, int) and isinstance(c, int) and isinstance(d, int)):
            raise TypeError(f"QuadRat needs int b, c and d, got {b!r}, {c!r}, {d!r}")
        if isinstance(a, QuadRat):
            a, b, c, d = a.a, a.b, a.c * c, a.d
        elif isinstance(a, Fraction):
            a, c = a.numerator, c * a.denominator
        elif not isinstance(a, int):
            raise TypeError(f"QuadRat needs an int, Fraction or QuadRat a, got {a!r}")
        if d not in _ALLOWED_D:
            raise ValueError(f"unsupported radicand {d}")
        if c == 0:
            raise ZeroDivisionError("zero denominator")
        return QuadRat._new(a, b, c, d)

    @staticmethod
    def _new(a, b, c, d):
        """The normalised (a + b*sqrt(d))/c from ints already known valid.

        c != 0 and d in _ALLOWED_D are the caller's to ensure; the sign
        moves into the numerator and one gcd reduces all three.
        """
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(a, b, c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        self = _object_new(QuadRat)
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_d(self, d)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("QuadRat is immutable")

    # -- helpers -----------------------------------------------------------

    def _match(self, other):
        """(self, other) as QuadRats over one radicand, or NotImplemented."""
        if isinstance(other, QuadRat):
            if other.d != self.d:
                # A rational value lives in every field; lift it over.
                if other.b == 0:
                    return self, QuadRat._new(other.a, 0, other.c, self.d)
                if self.b == 0:
                    return QuadRat._new(self.a, 0, self.c, other.d), other
                raise ValueError(
                    f"radicand mismatch: sqrt({self.d}) vs sqrt({other.d})")
            return self, other
        if isinstance(other, int):
            return self, QuadRat._new(other, 0, 1, self.d)
        if isinstance(other, Fraction):
            return self, QuadRat._new(other.numerator, 0, other.denominator, self.d)
        return NotImplemented

    @staticmethod
    def _quotient(s, o):
        """s / o in one step: s times o's conjugate over o's norm."""
        if o.a == 0 and o.b == 0:
            raise ZeroDivisionError("division by zero QuadRat")
        d = s.d
        return QuadRat._new(o.c * (s.a * o.a - d * s.b * o.b), o.c * (s.b * o.a - s.a * o.b),
                            s.c * (o.a * o.a - d * o.b * o.b), d)

    def _cmp(self, other):
        """Sign of self - other, from the unreduced difference; c > 0 on both."""
        pair = self._match(other)
        if pair is NotImplemented:
            return NotImplemented
        s, o = pair
        return _sign(s.a * o.c - o.a * s.c, s.b * o.c - o.b * s.c, s.d)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        pair = self._match(other)
        if pair is NotImplemented:
            return NotImplemented
        s, o = pair
        return QuadRat._new(s.a * o.c + o.a * s.c, s.b * o.c + o.b * s.c, s.c * o.c, s.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadRat._new(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other):
        pair = self._match(other)
        if pair is NotImplemented:
            return NotImplemented
        s, o = pair
        return QuadRat._new(s.a * o.c - o.a * s.c, s.b * o.c - o.b * s.c, s.c * o.c, s.d)

    def __rsub__(self, other):
        pair = self._match(other)
        if pair is NotImplemented:
            return NotImplemented
        s, o = pair
        return QuadRat._new(o.a * s.c - s.a * o.c, o.b * s.c - s.b * o.c, s.c * o.c, s.d)

    def __mul__(self, other):
        pair = self._match(other)
        if pair is NotImplemented:
            return NotImplemented
        s, o = pair
        return QuadRat._new(s.a * o.a + s.d * s.b * o.b, s.a * o.b + s.b * o.a,
                            s.c * o.c, s.d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadRat":
        a, b, d = self.a, self.b, self.d
        if a == 0 and b == 0:
            raise ZeroDivisionError("division by zero QuadRat")
        # c/(a+b*sqrt(d)) = c*(a-b*sqrt(d))/(a^2-d*b^2)
        return QuadRat._new(self.c * a, -self.c * b, a * a - d * b * b, d)

    def __truediv__(self, other):
        pair = self._match(other)
        if pair is NotImplemented:
            return NotImplemented
        return QuadRat._quotient(*pair)

    def __rtruediv__(self, other):
        pair = self._match(other)
        if pair is NotImplemented:
            return NotImplemented
        s, o = pair
        return QuadRat._quotient(o, s)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = QuadRat._new(1, 0, 1, self.d)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- order -------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the value, by integer case analysis (no floats)."""
        return _sign(self.a, self.b, self.d)

    def __eq__(self, other):
        pair = self._match(other)
        if pair is NotImplemented:
            return NotImplemented
        s, o = pair
        return (s.a, s.b, s.c) == (o.a, o.b, o.c)

    def __lt__(self, other):
        s = self._cmp(other)
        return s if s is NotImplemented else s < 0

    def __le__(self, other):
        s = self._cmp(other)
        return s if s is NotImplemented else s <= 0

    def __gt__(self, other):
        s = self._cmp(other)
        return s if s is NotImplemented else s > 0

    def __ge__(self, other):
        s = self._cmp(other)
        return s if s is NotImplemented else s >= 0

    def __hash__(self):
        if self.b == 0:
            return hash(Fraction(self.a, self.c))
        return hash((self.a, self.b, self.c, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- floor / conversion -------------------------------------------------

    def floor(self) -> int:
        """Exact floor via integer square root plus a one-step correction."""
        a, b, c, d = self.a, self.b, self.c, self.d
        if b == 0:
            return a // c
        m = math.isqrt(d * b * b)
        if b < 0:
            m = -m - 1  # d*b^2 is never a perfect square for squarefree d
        q = (a + m) // c
        # value lies in [(a+m)/c, (a+m+1)/c); check whether it reached q+1.
        if _sign(a - (q + 1) * c, b, d) >= 0:
            return q + 1
        return q

    def __float__(self):
        return (self.a + self.b * math.sqrt(self.d)) / self.c

    def to_decimal(self, digits: int) -> str:
        """Decimal string truncated (not rounded) to ``digits`` places.

        Computed from the integer square root of d * 10^(2*digits) * b^2,
        so every printed digit is exact.  `decimal` prints the places, past
        Python's 4300-digit limit on converting an int to text.
        """
        if digits < 0 or digits > 10000:
            raise ValueError("digits out of range")
        if self.sign() < 0:
            return "-" + (-self).to_decimal(digits)
        scale = 10 ** digits
        shifted = QuadRat._new(self.a * scale, self.b * scale, self.c, self.d)
        n = shifted.floor()
        whole, frac = divmod(n, scale)
        return f"{whole}.{decimal.Decimal(frac):0{digits}}" if digits else f"{whole}"

    # -- misc ----------------------------------------------------------------

    def __repr__(self):
        if self.b == 0:
            return f"QuadRat({self.a}/{self.c})" if self.c != 1 else f"QuadRat({self.a})"
        return f"QuadRat(({self.a}{self.b:+d}*sqrt({self.d}))/{self.c})"

    def __str__(self):
        if self.b == 0:
            return str(Fraction(self.a, self.c))
        num = []
        if self.a:
            num.append(str(self.a))
        if self.b == 1:
            num.append("+sqrt(%d)" % self.d if self.a else "sqrt(%d)" % self.d)
        elif self.b == -1:
            num.append("-sqrt(%d)" % self.d)
        else:
            num.append(f"{self.b:+d}*sqrt({self.d})" if self.a
                       else f"{self.b}*sqrt({self.d})")
        s = "".join(num)
        return f"({s})/{self.c}" if self.c != 1 else s


# QuadRat._new fills a fresh instance through the slot descriptors, which
# bypass the __setattr__ that keeps every QuadRat immutable afterwards.
_object_new = object.__new__
_set_a, _set_b, _set_c, _set_d = (QuadRat.__dict__[k].__set__ for k in QuadRat.__slots__)


def sqrt2() -> QuadRat:
    return QuadRat(0, 1, 1, 2)


def sqrt3() -> QuadRat:
    return QuadRat(0, 1, 1, 3)
