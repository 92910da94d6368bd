"""Exact arithmetic in the real quadratic fields Q(sqrt(2)) and Q(sqrt(3)).

A :class:`QuadRat` is an element (a + b*sqrt(d))/c with integer a, b and a
positive integer c, kept in lowest terms (gcd(a, b, c) == 1).  All
operations, including sign determination and floor, are exact integer
computations -- no floating point is ever consulted for a decision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering

_ALLOWED_D = (2, 3, 5)


@total_ordering
class QuadRat:
    """(a + b*sqrt(d)) / c, normalized so c > 0 and gcd(a, b, c) == 1."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b=0, c=1, d=2):
        if isinstance(a, QuadRat):
            a, b, c, d = a.a, a.b, a.c * c, a.d
        elif isinstance(a, Fraction):
            a, c = a.numerator, c * a.denominator
        if d not in _ALLOWED_D:
            raise ValueError(f"unsupported radicand {d}")
        if c == 0:
            raise ZeroDivisionError("zero denominator")
        a, b, c = int(a), int(b), int(c)
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(math.gcd(abs(a), abs(b)), c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadRat is immutable")

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _coerce(x, d):
        if isinstance(x, QuadRat):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadRat(Fraction(x), 0, 1, d)
        return NotImplemented

    def _match(self, other):
        other = QuadRat._coerce(other, self.d)
        if other is NotImplemented:
            return NotImplemented
        if other.d != self.d:
            # A rational value lives in every field; lift it over.
            if other.b == 0:
                other = QuadRat(other.a, 0, other.c, self.d)
            elif self.b == 0:
                return QuadRat(self.a, 0, self.c, other.d), other
            else:
                raise ValueError(
                    f"radicand mismatch: sqrt({self.d}) vs sqrt({other.d})")
        return self, other

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        pair = self._match(other)
        if pair is NotImplemented:
            return NotImplemented
        s, o = pair
        return QuadRat(s.a * o.c + o.a * s.c, s.b * o.c + o.b * s.c,
                       s.c * o.c, s.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadRat(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other):
        pair = self._match(other)
        if pair is NotImplemented:
            return NotImplemented
        s, o = pair
        return s + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        pair = self._match(other)
        if pair is NotImplemented:
            return NotImplemented
        s, o = pair
        return QuadRat(s.a * o.a + s.d * s.b * o.b, s.a * o.b + s.b * o.a,
                       s.c * o.c, s.d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadRat":
        if self.a == 0 and self.b == 0:
            raise ZeroDivisionError("division by zero QuadRat")
        # c/(a+b*sqrt(d)) = c*(a-b*sqrt(d))/(a^2-d*b^2)
        norm = self.a * self.a - self.d * self.b * self.b
        return QuadRat(self.c * self.a, -self.c * self.b, norm, self.d)

    def __truediv__(self, other):
        pair = self._match(other)
        if pair is NotImplemented:
            return NotImplemented
        s, o = pair
        return s * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = QuadRat(1, 0, 1, self.d)
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
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # a and b have opposite signs: compare a^2 with d*b^2.
        lhs, rhs = a * a, self.d * b * b
        if lhs == rhs:  # impossible for squarefree d, kept for safety
            return 0
        bigger_is_a = lhs > rhs
        return (1 if bigger_is_a else -1) if a > 0 else (-1 if bigger_is_a else 1)

    def __eq__(self, other):
        pair = self._match(other)
        if pair is NotImplemented:
            return NotImplemented
        s, o = pair
        return (s.a, s.b, s.c) == (o.a, o.b, o.c)

    def __lt__(self, other):
        pair = self._match(other)
        if pair is NotImplemented:
            return NotImplemented
        s, o = pair
        return (s - o).sign() < 0

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
        if QuadRat(a - (q + 1) * c, b, c, d).sign() >= 0:
            return q + 1
        return q

    def __float__(self):
        return (self.a + self.b * math.sqrt(self.d)) / self.c

    def to_decimal(self, digits: int) -> str:
        """Decimal string truncated (not rounded) to ``digits`` places.

        Computed from the integer square root of d * 10^(2*digits) * b^2,
        so every printed digit is exact.
        """
        if digits < 0 or digits > 10000:
            raise ValueError("digits out of range")
        if self.sign() < 0:
            return "-" + (-self).to_decimal(digits)
        scale = 10 ** digits
        shifted = QuadRat(self.a * scale, self.b * scale, self.c, self.d)
        n = shifted.floor()
        whole, frac = divmod(n, scale)
        return f"{whole}.{frac:0{digits}d}" if digits else f"{whole}"

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


def sqrt2() -> QuadRat:
    return QuadRat(0, 1, 1, 2)


def sqrt3() -> QuadRat:
    return QuadRat(0, 1, 1, 3)
