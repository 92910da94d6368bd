"""Continued fractions over exact arithmetic.

Finite words carry terminated semantics ``[a_1, ..., a_n, inf]`` and encode
rationals in (0, 1]; eventually periodic words encode quadratic irrationals.
Rational values are `fractions.Fraction`, quadratic values are `QuadRat`,
so every operation in this module is exact.
"""

from __future__ import annotations

import decimal
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .quadfield import _ALLOWED_D, QuadRat

__all__ = [
    "FiniteCF",
    "PeriodicCF",
    "convergents",
    "word_map",
    "hull_pairs",
    "expand_quadratic",
    "one_minus",
    "cf_compare",
    "bad_class",
    "in_bad_class",
    "expand_real",
    "ExpandResult",
    "parse_cf",
    "format_cf",
]


def _check_digits(digits):
    for a in digits:
        if not isinstance(a, int) or a < 1:
            raise ValueError(f"continued-fraction digits must be integers >= 1, got {a!r}")


@dataclass(frozen=True)
class FiniteCF:
    """A finite word [a_1, ..., a_n, inf] denoting a rational in (0, 1]."""

    digits: tuple

    def __init__(self, digits):
        """Store the canonical spelling: a trailing 1 is merged into its neighbour.

        Every rational in (0, 1) has exactly two finite expansions,
        [..., a] and [..., a-1, 1]; the stored one does not end in 1 (the
        single word [1] is its own canonical form), so equal words are
        equal values.
        """
        digits = tuple(digits)
        if not digits:
            raise ValueError("empty continued fraction")
        _check_digits(digits)
        if len(digits) > 1 and digits[-1] == 1:
            digits = digits[:-2] + (digits[-2] + 1,)
        object.__setattr__(self, "digits", digits)

    def value(self):
        return word_map(self.digits, 0)

    def __str__(self):
        return format_cf(self)


@dataclass(frozen=True)
class PeriodicCF:
    """An eventually periodic word: preperiod digits followed by a repeating block."""

    pre: tuple
    period: tuple

    def __init__(self, pre, period):
        """Store the canonical spelling: primitive period, then shortest preperiod.

        A trailing preperiod digit equal to the period's last digit can be
        absorbed by rotating the period, e.g. [3,2,per(2)] = [3,per(2)] and
        [1,per(2,1)] = [per(1,2)].  The preperiod's trailing digits that
        match the period read backwards cyclically are counted in one pass,
        then the period is rotated once, so equal words are equal values.
        """
        pre = tuple(pre)
        period = tuple(period)
        if not period:
            raise ValueError("period must be nonempty")
        _check_digits(pre)
        _check_digits(period)
        n = len(period)
        for p in range(1, n):
            if n % p == 0 and period == period[:p] * (n // p):
                period, n = period[:p], p
                break
        k = 0
        while k < len(pre) and pre[-1 - k] == period[-1 - k % n]:
            k += 1
        if k:
            r = k % n
            pre, period = pre[:-k], period[n - r:] + period[:n - r]
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "period", period)

    def value(self):
        """Exact value: fixed point of the period, pushed through the preperiod.

        The purely periodic tail y satisfies a quadratic with integer
        coefficients read off the period's convergents; the root in (0, 1)
        is the positive one.  The preperiod then acts on y by its word map.
        """
        p1, q1, p, q = convergents(self.period)
        # q1*y^2 + (q - p1)*y - p = 0
        disc = (q - p1) * (q - p1) + 4 * q1 * p
        root = math.isqrt(disc)
        if root * root == disc:
            raise ValueError("period is degenerate (rational fixed point)")
        for d in _ALLOWED_D:
            m = math.isqrt(disc // d)
            if m * m * d == disc:
                return word_map(self.pre, QuadRat(p1 - q, m, 2 * q1, d))
        raise ValueError(f"discriminant {disc} is not d*square for d in {_ALLOWED_D}")

    def digit(self, k):
        """1-indexed digit a_k."""
        if k < 1:
            raise IndexError("digits are 1-indexed")
        if k <= len(self.pre):
            return self.pre[k - 1]
        return self.period[(k - len(self.pre) - 1) % len(self.period)]

    def digits_prefix(self, n):
        return tuple(self.digit(k) for k in range(1, n + 1))

    def __str__(self):
        return format_cf(self)


def convergents(word, start=(1, 0, 0, 1)):
    """(P_{n-1}, Q_{n-1}, P_n, Q_n) for a digit word, from the standard recurrence.

    `start` is the same tuple for a prefix that the word continues; the
    default is the empty word's.
    """
    p1, q1, p, q = start
    for b in word:
        p1, p = p, b * p + p1
        q1, q = q, b * q + q1
    return p1, q1, p, q


def word_map(word, t):
    """[word, t]: the value of the word followed by a tail of value t.

    The word acts on t by the Mobius map of its convergent matrix,
    (P_{n-1} t + P_n) / (Q_{n-1} t + Q_n), exactly for int, Fraction and
    QuadRat tails.  A rational tail n/d maps to the one Fraction
    (P_{n-1} n + P_n d) / (Q_{n-1} n + Q_n d), never a float.  A QuadRat
    tail (a + b sqrt(r))/c maps to (A + B sqrt(r)) / (C + E sqrt(r)) with
    A = P_{n-1} a + P_n c, B = P_{n-1} b, C = Q_{n-1} a + Q_n c and
    E = Q_{n-1} b, and multiplying both by C - E sqrt(r) makes that one
    normalised QuadRat.  A pole raises ZeroDivisionError.
    """
    m = convergents(word)
    if isinstance(t, QuadRat):
        return QuadRat._new(*_mobius_triple(m, t.a, t.b, t.c, t.d), t.d)
    p1, q1, p, q = m
    n, d = t.numerator, t.denominator
    return Fraction(p1 * n + p * d, q1 * n + q * d)


def _mobius_triple(m, a, b, c, r):
    """(a + b sqrt(r))/c under the convergent tuple m, as an unreduced
    integer triple (A, B, C) standing for (A + B sqrt(r))/C, with C > 0.

    The image (P' t + P)/(Q' t + Q) is multiplied above and below by the
    conjugate of its denominator, as word_map describes; no gcd is taken.
    """
    p1, q1, p, q = m
    big_a, big_b = p1 * a + p * c, p1 * b
    big_c, big_e = q1 * a + q * c, q1 * b
    norm = big_c * big_c - r * big_e * big_e
    if norm == 0:
        raise ZeroDivisionError("word map at its pole")
    num_a, num_b = big_a * big_c - r * big_b * big_e, big_b * big_c - big_a * big_e
    return (num_a, num_b, norm) if norm > 0 else (-num_a, -num_b, -norm)


def hull_pairs(m):
    """(lo, hi): the closed hull of a cylinder, as (P, Q) integer pairs.

    The cylinder of a word with convergent tuple m = (P', Q', P, Q) holds
    [word, t] for the tails t in [0, 1].  For t >= 0 the word's Mobius map
    (P' t + P)/(Q' t + Q) is monotone, increasing iff P'Q - PQ' > 0, so the
    ends are P/Q and (P + P')/(Q + Q'), the images of the tails 0 and 1,
    ordered by that sign.  For the tuple of a word of digits >= 1 that
    difference is +-1, so both pairs are in lowest terms with positive
    denominators.
    """
    p1, q1, p, q = m
    ends = (p, q), (p + p1, q + q1)
    return ends if p1 * q > p * q1 else ends[::-1]


MAX_GAUSS_STEPS = 10**6  # Gauss-map steps expand_quadratic takes before it gives up


def expand_quadratic(x):
    """Expand a quadratic irrational in (0,1) by iterating the Gauss map exactly.

    The normalized state space is finite, so the orbit must cycle; we key
    on the exact state and cut the word there.  MAX_GAUSS_STEPS only guards
    against malformed inputs.
    """
    if not isinstance(x, QuadRat):
        raise TypeError("expand_quadratic needs a QuadRat; rationals have finite words")
    if x.b == 0:
        raise ValueError("input is rational; use the finite expansion")
    if x.sign() <= 0 or (x - 1).sign() >= 0:
        raise ValueError("input must lie in (0, 1)")
    seen = {}
    digits = []
    state = x
    for i in range(MAX_GAUSS_STEPS):
        if state in seen:
            start = seen[state]
            return PeriodicCF(digits[:start], digits[start:])
        seen[state] = i
        inv = state.inverse()
        a = inv.floor()
        digits.append(a)
        state = inv - a
    raise RuntimeError(f"no period detected within {MAX_GAUSS_STEPS} iterations")


def one_minus(cf):
    """Digit-level map realizing x -> 1-x.

    [a1, ...] with a1 >= 2 becomes [1, a1-1, ...]; [1, a2, ...] becomes
    [1+a2, ...].  Works for finite and periodic words alike and is an
    involution.  A periodic word is read as its preperiod and two copies
    of its period, so it has two leading digits; the constructors put the
    result in canonical form.
    """
    periodic = isinstance(cf, PeriodicCF)
    digits = cf.pre + cf.period * 2 if periodic else cf.digits
    if digits[0] >= 2:
        head = (1, digits[0] - 1) + digits[1:]
    elif len(digits) == 1:
        raise ValueError("1 - [1,inf] = 0 is not in (0, 1)")
    else:
        head = (digits[1] + 1,) + digits[2:]
    return PeriodicCF(head, cf.period) if periodic else FiniteCF(head)


def cf_compare(x, y):
    """-1, 0, +1 ordering two periodic words by the alternating digit rule.

    At the first disagreeing position n, x < y iff (-1)^n a_n < (-1)^n b_n.
    If no disagreement occurs within the joint cycle bound the values are equal.
    """
    bound = (
        max(len(x.pre), len(y.pre))
        + math.lcm(len(x.period), len(y.period))
        + 1
    )
    for n in range(1, bound + 1):
        a, b = x.digit(n), y.digit(n)
        if a != b:
            s = 1 if a > b else -1
            return -s if n % 2 == 1 else s
    return 0


def bad_class(cf):
    """Smallest (B, j) with cf in B_{B,j}: digits <= B+1 up to position j, <= B after.

    The period pins B from below; preperiod digits may exceed B by one, and
    j is the last position where that allowance is used (0 if never).
    """
    b = max(cf.period)
    if cf.pre:
        b = max(b, max(cf.pre) - 1)
    j = 0
    for k, d in enumerate(cf.pre, start=1):
        if d > b:
            j = k
    return b, j


def in_bad_class(cf, b, j=0):
    """Membership test for B_{b,j} (j=0 gives plain B_b), for j >= 0.

    The classes are nested, B_{b,j} within B_{b,j+1} and B_{b+1,0}, so cf
    is a member iff its least class from bad_class lies below (b, j).
    """
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j!r}")
    least, last = bad_class(cf)
    return least < b or (least == b and last <= j)


@dataclass(frozen=True)
class ExpandResult:
    digits: tuple
    terminated: bool


MAX_DECIMAL_DIGITS = 10_000  # digits, and exponent size, of a decimal expand_real reads
# the form of decimal text; `decimal` refuses some of it, with an exponent past its range
_DECIMAL_FORM = re.compile(r"\s*[+-]?(\d+\.?\d*|\.\d+)(e[+-]?\d+)?\s*", re.IGNORECASE)


def expand_real(value, err=None, terms=64):
    """Certified CF digits of a real given with an explicit error bound.

    `value` and `err` are decimal or p/q text, or exact numbers.  `err`
    defaults to one unit in a decimal's last place, exponent included, and
    to 0 for p/q text, which is exact.  Digits are emitted only while both
    endpoints of [value-err, value+err] agree on floor(1/x).  When the
    interval instead brackets a rational boundary 1/n, that digit is
    emitted once and the result is flagged `terminated`: the expansion is
    exact iff the input was exactly that rational.
    """
    v, default = _read_real(value) if isinstance(value, str) else (Fraction(value), None)
    if isinstance(err, str):
        err = _read_real(err)[0]
    elif err is None:
        err = default
    if err is None:
        raise ValueError("an explicit error bound is required for non-string input")
    if err < 0:
        raise ValueError(f"err must be >= 0, got {err}")
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    lo, hi = v - err, v + err
    if lo <= 0 or hi >= 1:
        raise ValueError("value with its error bound must lie inside (0, 1)")
    digits = []
    terminated = False
    while len(digits) < terms:
        if lo <= 0:
            terminated = True
            break
        f_hi = (1 / hi).__floor__()
        f_lo = (1 / lo).__floor__()
        if f_hi == f_lo:
            a = f_hi
            digits.append(a)
            lo, hi = 1 / hi - a, 1 / lo - a
        elif f_lo == f_hi + 1 and lo <= Fraction(1, f_lo) <= hi:
            digits.append(f_lo)
            terminated = True
            break
        else:
            break
    if not digits:
        raise ValueError("precision exhausted before any digit was certified")
    return ExpandResult(tuple(digits), terminated)


def _read_real(text):
    """(value, default err) of decimal or p/q text.  A decimal is bounded
    before any Fraction is built: 10**|exponent| alone can take seconds."""
    num, slash, den = text.partition("/")
    if slash:
        p, q = _int(num, text), _int(den, text)
        if q == 0:
            raise ValueError(f"zero denominator in {_excerpt(text)}")
        return Fraction(p, q), Fraction(0)
    past_bound = ValueError(f"{_excerpt(text)} is past the bound of {MAX_DECIMAL_DIGITS} on "
                            "a decimal's digit count and exponent size")
    try:
        d = decimal.Decimal(text)
    except decimal.InvalidOperation:
        if _DECIMAL_FORM.fullmatch(text):
            raise past_bound from None
        raise ValueError(f"{_excerpt(text)} is neither decimal nor p/q text") from None
    if not d.is_finite():
        raise ValueError(f"{_excerpt(text)} is not a finite number")
    _, digits, exponent = d.as_tuple()
    if len(digits) > MAX_DECIMAL_DIGITS or abs(exponent) > MAX_DECIMAL_DIGITS:
        raise past_bound
    return Fraction(*d.as_integer_ratio()), Fraction(10) ** exponent


MAX_WORD_DIGITS = 10**5  # digits a parse_cf repetition may expand the word to


def _excerpt(text):
    """text quoted for an error message, cut after 30 characters."""
    return repr(text) if len(text) <= 30 else repr(text[:30]) + "..."


def _int(token, text):
    """int(token) for an entry of `text`; an error names the text and the entry."""
    try:
        return int(token)
    except ValueError:
        where = _excerpt(text)
        if not token.strip():
            raise ValueError(f"{where} has an empty entry") from None
        limit = sys.get_int_max_str_digits()
        if limit and len(token) > limit:
            raise ValueError(
                f"{where}: token {token[:10]}... has {len(token)} characters, past Python's "
                f"limit of {limit} digits for reading an int"
            ) from None
        raise ValueError(f"{where}: entry {_excerpt(token)} is not an integer") from None


def parse_cf(text):
    """Parse the word syntax: `[3,(2)^4,1,per(1,2)]` or `[2,3,inf]`.

    `(w)^k` repeats a block, up to MAX_WORD_DIGITS digits in all;
    `per(...)` marks the periodic tail (must be last), `inf` terminates a
    rational word.
    """
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"expected a bracketed word, got {text!r}")
    body = s[1:-1]
    tokens = []
    depth = 0
    cur = ""
    for ch in body:
        if ch == "," and depth == 0:
            tokens.append(cur.strip())
            cur = ""
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        cur += ch
    if cur.strip():
        tokens.append(cur.strip())
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")

    digits = []
    period = None
    finite = False
    for i, tok in enumerate(tokens):
        last = i == len(tokens) - 1
        if tok == "inf":
            if not last:
                raise ValueError("inf must be the final token")
            finite = True
        elif tok.startswith("per(") and tok.endswith(")"):
            if not last:
                raise ValueError("per(...) must be the final token")
            period = [_int(t, text) for t in tok[4:-1].split(",")]
        elif tok.startswith("("):
            inner, _, exp = tok.partition("^")
            if not (inner.startswith("(") and inner.endswith(")")) or not exp:
                raise ValueError(f"bad repetition token {tok!r}")
            block, count = [_int(t, text) for t in inner[1:-1].split(",")], _int(exp, text)
            if count < 0:
                raise ValueError(f"negative repeat count in {tok!r}")
            if len(digits) + len(block) * count > MAX_WORD_DIGITS:
                raise ValueError(
                    f"{tok!r} expands the word past {MAX_WORD_DIGITS} digits: a word that "
                    "long takes ~0.4 s to evaluate, and the time grows as its length squared"
                )
            digits.extend(block * count)
        else:
            digits.append(_int(tok, text))
    if period is not None:
        return PeriodicCF(digits, period)
    if finite:
        return FiniteCF(digits)
    raise ValueError("word must end with per(...) or inf")


def format_cf(cf):
    """Inverse of parse_cf, emitted without repetition shorthand."""
    if isinstance(cf, FiniteCF):
        return "[" + ",".join(map(str, cf.digits + ("inf",))) + "]"
    items = list(map(str, cf.pre))
    items.append("per(" + ",".join(map(str, cf.period)) + ")")
    return "[" + ",".join(items) + "]"
