"""Exact verification of the sum relations among badly approximable numbers.

Everything here reduces to exact rational or quadratic arithmetic: the
17-row case tables, the forbidden-pattern exclusion argument, the two
insertion transforms and their residual identities, the explicit solution
families, and an independent branch-and-bound search over digit cylinders.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cf import PeriodicCF, _mobius_triple, bad_class, convergents, hull_pairs, in_bad_class
from .quadfield import QuadRat, _sign, sqrt2

__all__ = [
    "ForbiddenPattern",
    "forbidden_interval",
    "excludes_b2",
    "CaseRow",
    "table_rows",
    "verify_case_row",
    "case21_endpoints",
    "verify_case21_symbolic",
    "verify_tables",
    "SolutionTriple",
    "MAIN_SOLUTIONS",
    "MAIN2_SOLUTIONS",
    "B22_SOLUTIONS",
    "PRESET_TRIPLES",
    "check_sum",
    "insertion",
    "extra_identity",
    "generate_solutions",
    "scalene_family",
    "scalene_sweep",
    "search_triples",
]

# ------------------------------------------------------------------ patterns


@dataclass(frozen=True)
class ForbiddenPattern:
    """A rational interval certified to contain no number with all digits <= 2.

    Form 1 hull: [ [(2)^{2k-1},(2,1)^l,s,inf], [(2)^{2k-1},inf] ];
    form 2 hull: [ [(2)^{2k},inf], [(2)^{2k},(2,1)^l,s,inf] ].
    """

    form: int
    k: int
    ell: int
    s: int
    r1: Fraction
    r2: Fraction


def forbidden_interval(form, k, ell, s):
    if form not in (1, 2):
        raise ValueError("form must be 1 or 2")
    for name, value, least in (("k", k, 1), ("ell", ell, 0), ("s", s, 3)):
        _check_int(name, value, least)
    twos = convergents((2,) * (2 * k - 1 if form == 1 else 2 * k))
    r1, r2 = _pattern_ends(ell, s, twos)
    return ForbiddenPattern(form, k, ell, s, Fraction(*r1), Fraction(*r2))


def _pattern_ends(ell, s, twos):
    """(r1, r2) as (P, Q) pairs in lowest terms: the values of the (2)^run
    prefix with convergent tuple `twos` and of that prefix continued by
    (2,1)^ell, s, in increasing order."""
    plain = twos[2:]
    _, _, p, q = convergents((2, 1) * ell + (s,), twos)
    return ((p, q), plain) if p * plain[1] < plain[0] * q else (plain, (p, q))


@dataclass(frozen=True)
class ExclusionResult:
    status: str  # "certified-empty" | "found-witness" | "inconclusive"
    witness: tuple | None = None


def excludes_b2(lo, hi, depth=30):
    """Does [lo, hi] avoid every number with all CF digits in {1, 2}?

    Recursive sweep over {1,2}-digit cylinders.  A cylinder wholly inside
    [lo, hi] is a witness (its all-2s extension is such a number, inside
    the interval); cylinders disjoint from [lo, hi] are pruned; straddling
    cylinders are split.  A cylinder that still straddles [lo, hi] at the
    depth cap, however thin the overlap, makes the verdict `inconclusive`.
    Nodes are (word, convergent matrix) pairs, from the empty word's (0, 1),
    and a node's range is its `hull_pairs`, compared with lo and hi by
    integer cross-products.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not 0 < lo < hi < 1:
        raise ValueError("need 0 < lo < hi < 1")
    _check_depth(depth)
    lp, lq, hp, hq = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    inconclusive = False

    def visit(word, m):
        nonlocal inconclusive
        (ap, aq), (bp, bq) = hull_pairs(m)
        if bp * lq < lp * bq or hp * aq < ap * hq:
            return None
        if lp * aq <= ap * lq and bp * hq <= hp * bq:
            return word
        if len(word) >= depth:
            inconclusive = True
            return None
        for b in (1, 2):
            w = visit(word + (b,), convergents((b,), m))
            if w is not None:
                return w
        return None

    w = visit((), (1, 0, 0, 1))
    if w is not None:
        return ExclusionResult("found-witness", w)
    if inconclusive:
        return ExclusionResult("inconclusive")
    return ExclusionResult("certified-empty")


def _check_int(name, value, least):
    """Refuse, with ValueError, a value that is not an int (a bool is not
    one) or is below `least`; each caller checks its own cap after this."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


def _check_depth(depth):
    _check_int("depth", depth, 1)
    if depth > 60:
        raise ValueError("depth capped at 60: a sweep that deep takes ~1.5 ms per interval, "
                         "and the time grows about as the depth squared")


# ------------------------------------------------------------------- tables


@dataclass(frozen=True)
class CaseRow:
    """One row of the case analysis: cylinder pair and pattern endpoints.

    Suffixes are relative to the common prefixes — (3,(2)^n) for the X/Y
    cylinder words, (2)^{n+1} for the pattern endpoint words.
    """

    id: str
    x_suffix: tuple
    y_suffix: tuple
    left_suffix: tuple
    right_suffix: tuple
    parity: str  # "even" | "odd"


_EVEN_ROWS = [
    ("1", (1,), (1,), (3,), ()),
    ("2.1", (1, 2), (2, 2), (3,), (3, 1)),
    ("2.2", (1, 2), (2, 1), (2, 1, 12), (3, 1)),
    ("2.3.1", (1, 1, 1), (2, 2, 1), (3,), (3, 2)),
    ("2.3.2", (1, 1, 1), (2, 2, 2), (3,), (3, 3)),
    ("2.3.3", (1, 1, 2), (2, 2, 1), (2, 1, 14), (3, 10)),
    ("2.3.4", (1, 1, 2), (2, 2, 2), (2, 1, 10), (3, 20)),
    ("2.4.1", (1, 1, 1), (2, 1, 1), (2, 1, 6), (3, 4)),
    ("2.4.2", (1, 1, 1), (2, 1, 2), (2, 1, 4), (3, 8)),
    ("2.4.3", (1, 1, 2), (2, 1, 1), (2, 1, 3), (2, 1)),
    ("2.4.4.1.1", (1, 1, 2, 1, 1), (2, 1, 2, 1, 1), (2, 1, 3), (2, 1)),
    ("2.4.4.1.2", (1, 1, 2, 1, 1), (2, 1, 2, 1, 2), (2, 1, 3), (2, 1)),
    ("2.4.4.1.3", (1, 1, 2, 1, 2), (2, 1, 2, 1, 2), (2, 1, 3), (2, 1)),
    ("2.4.4.1.4", (1, 1, 2, 1, 2), (2, 1, 2, 1, 1), (2, 1, 3), (2, 1)),
    ("2.4.4.2", (1, 1, 2, 1), (2, 1, 2, 2), (2, 1, 2, 1, 20), (2, 1)),
    ("2.4.4.3", (1, 1, 2, 2), (2, 1, 2, 1), (2, 1, 3), (2, 1)),
    ("2.4.4.4", (1, 1, 2, 2), (2, 1, 2, 2), (2, 1, 3), (2, 1)),
]


def table_rows(parity):
    """The 17 rows for one parity; the odd table swaps the endpoint columns."""
    if parity == "even":
        return [CaseRow(i, x, y, l, r, "even") for i, x, y, l, r in _EVEN_ROWS]
    if parity == "odd":
        return [CaseRow(i, x, y, r, l, "odd") for i, x, y, l, r in _EVEN_ROWS]
    raise ValueError("parity must be 'even' or 'odd'")


def _match_pattern(row, n):
    """(form, k, ell, s): the ForbiddenPattern the row's endpoints instantiate at n.

    The pattern's s-bearing word is the left endpoint on the even table
    (form 1, odd run length) and the right endpoint on the odd table
    (form 2, even run length); the other endpoint may carry any tail.
    """
    run = n + 1
    form = 1 if run % 2 == 1 else 2
    s_suffix = row.left_suffix if form == 1 else row.right_suffix
    ell = 0
    rest = s_suffix
    while len(rest) >= 2 and rest[0] == 2 and rest[1] == 1:
        ell += 1
        rest = rest[2:]
    if not rest or rest[0] < 3:
        raise AssertionError(f"row {row.id}: endpoint {s_suffix} lacks the s >= 3 digit")
    s = rest[0]
    k = (run + 1) // 2 if form == 1 else run // 2
    return form, k, ell, s


def _check_row(row, n, twos, three):
    """(left, right, pattern, ends, ok) for one table row at one n; see verify_case_row.

    `twos` and `three` are the convergent tuples of (2)^(n+1) and (3,(2)^n),
    the prefixes of the row's endpoint words and of its X/Y words.  The
    endpoints `left`, `right` and the pattern's `ends` (r1, r2) are (P, Q)
    pairs read from `twos`, and the X/Y hulls are `hull_pairs` from `three`.
    A convergent determinant is +-1, so every pair is in lowest terms with
    a positive denominator, and each check is the sign of an integer
    cross-product.  `pattern` is _match_pattern's (form, k, ell, s).
    """
    if n < 0 or n % 2 != (0 if row.parity == "even" else 1):
        raise ValueError(f"row {row.id} needs n = {row.parity}, got {n}")
    left = convergents(row.left_suffix, twos)[2:]
    right = convergents(row.right_suffix, twos)[2:]
    pattern = _match_pattern(row, n)
    ends = _pattern_ends(pattern[2], pattern[3], twos)
    (lp, lq), (rp, rq), ((r1p, r1q), (r2p, r2q)) = left, right, ends
    # left < right, r1 <= left and right <= r2
    ok = lp * rq < rp * lq and r1p * lq <= lp * r1q and rp * r2q <= r2p * rq
    if ok:
        hx = hull_pairs(convergents(row.x_suffix, three))
        hy = hull_pairs(convergents(row.y_suffix, three))
        # left <= 1 - X - Y <= right over the hulls' closed ends
        ok = _one_minus(right, hx[0], hy[0])[0] <= 0 <= _one_minus(left, hx[1], hy[1])[0]
    return left, right, pattern, ends, ok


def verify_case_row(row, n):
    """Exact containment check for one table row at one n.

    The closed hull of Z = 1 - X - Y over the row's cylinders must land
    inside the row's endpoint interval, which itself must instantiate a
    forbidden pattern of the correct parity.
    """
    return _check_row(row, n, convergents((2,) * (n + 1)), convergents((3,) + (2,) * n))[-1]


def case21_endpoints(n):
    """Closed-form cylinder endpoints for row 2.1 in Q(sqrt 2), even n.

    Returns (A, B, C, D): I(3,(2)^n,1,2) = (A, B] and I(3,(2)^n,2,2) = (C, D]
    as exact quadratic expressions in powers of the fundamental unit 1+sqrt2.
    """
    if n < 0 or n % 2:
        raise ValueError("closed forms are for even n")
    s2 = sqrt2()
    u = 1 + s2
    base = 1 - s2 / 2
    a = base + (12 - 19 * s2) / (-19 + 6 * s2 + 17 * u ** (2 * n + 4))
    b = base + (10 + s2) / (1 + 5 * s2 - 7 * u ** (2 * n + 5))
    c = base + s2 / (1 - u ** (2 * n + 8))
    d = base + s2 / (1 + u ** (2 * n + 8))
    return a, b, c, d


def verify_case21_symbolic(n):
    """Cross-check: the closed forms reproduce the exact cylinder endpoints."""
    a, b, c, d = case21_endpoints(n)
    hulls = [tuple(Fraction(*end) for end in hull_pairs(convergents((3,) + (2,) * n + tail)))
             for tail in ((1, 2), (2, 2))]
    return [(a, b), (c, d)] == hulls


def _text(pair):
    """A (P, Q) pair in lowest terms with Q > 0, as str(Fraction(P, Q)) prints it."""
    p, q = pair
    return f"{p}/{q}" if q != 1 else str(p)


def _row_entry(row, n, twos, three):
    left, right, (form, k, ell, s), _, ok = _check_row(row, n, twos, three)
    return {
        "id": row.id,
        "parity": row.parity,
        "n": n,
        "pass": ok,
        "z_interval": [_text(left), _text(right)],
        "pattern": {"form": form, "k": k, "ell": ell, "s": s},
    }, (left, right)


def verify_tables(n_max=20, exclusion_depth=30):
    """Run every row at every admissible n up to n_max, plus the exclusion oracle.

    `excludes_b2` sweeps only the distinct hulls at n = 0 and n = 1, to depth
    `exclusion_depth`, and each verdict is carried up its row exactly: from
    n to n + 2 both endpoint words gain two leading 2s, so the hull moves by
    M(t) = [2,2,t].  M maps the numbers whose digits are all 1 or 2 onto
    those in I(2,2), so the image holds such a number iff the hull does (a
    witness w becomes (2,2)+w).  Each carried hull must equal the row's own
    endpoints.  Endpoints and hulls are (P, Q) pairs in lowest terms; M is
    the unimodular matrix of (2, 2), so a carried pair stays in lowest terms
    and pair equality is value equality.  n_max and the depth are checked
    before any row is.  Returns a report dict: per-(row, n) pass flags, one
    exclusion verdict per distinct pattern hull, and an overall `ok`.
    """
    _check_int("n_max", n_max, 0)
    if n_max > 400:
        raise ValueError("n_max capped at 400: that run takes ~0.3 s, "
                         "and the time grows about as n_max^1.3")
    _check_depth(exclusion_depth)
    # n runs outermost, so every row at n continues the same two prefixes,
    # (2)^(n+1) and (3,(2)^n), each one digit past the last; the odd table
    # starts at n = 1
    tables = [table_rows(parity) for parity in ("even", "odd")[: n_max + 1]]
    sweeps = [[[] for _ in table] for table in tables]
    twos, three = convergents((2,)), convergents((3,))
    for n in range(n_max + 1):
        for row, pairs in zip(tables[n % 2], sweeps[n % 2]):
            pairs.append(_row_entry(row, n, twos, three))
        twos, three = convergents((2,), twos), convergents((2,), three)
    rows = [pairs for sweep in sweeps for pairs in sweep]
    base = sorted({pairs[0][1] for pairs in rows})
    swept = {hull: excludes_b2(*(Fraction(*end) for end in hull), exclusion_depth)
             for hull in base}
    verdicts = {}
    for pairs in rows:
        hull = pairs[0][1]
        status = swept[hull].status
        for entry, own in pairs:
            if own != hull:
                raise AssertionError(f"row {entry['id']}: carried hull {hull} != {own}")
            verdicts[own] = status
            hull = tuple(_word_map((2, 2), end) for end in hull)
    entries = [entry for pairs in rows for entry, _ in pairs]
    # ordered by integer keys: p/q -> floor(p 2^k / q) is strictly increasing
    # on fractions whose denominators multiply to at most 2^k, as any two
    # distinct ones then differ by at least 2^-k
    k = 2 * max(q.bit_length() for hull in verdicts for _, q in hull)
    exclusions = [
        {"interval": [_text(lo), _text(hi)], "status": status}
        for (lo, hi), status in sorted(
            verdicts.items(), key=lambda verdict: [(p << k) // q for p, q in verdict[0]])
    ]
    ok = all(e["pass"] for e in entries) and all(
        e["status"] == "certified-empty" for e in exclusions
    )
    return {
        "rows": entries,
        "exclusions": exclusions,
        "summary": {
            "rows_checked": len(entries),
            "rows_passed": sum(e["pass"] for e in entries),
            "patterns_checked": len(exclusions),
        },
        "ok": ok,
    }


# ------------------------------------------------------------------ triples


@dataclass(frozen=True)
class SolutionTriple:
    x: PeriodicCF
    y: PeriodicCF
    z: PeriodicCF

    def values(self):
        return self.x.value(), self.y.value(), self.z.value()


def _triple(x, y, z):
    return SolutionTriple(PeriodicCF(*x), PeriodicCF(*y), PeriodicCF(*z))


# x + y + z = 1, components in B_{2,1}, x <= y <= z
MAIN_SOLUTIONS = (
    _triple(((3,), (1, 2)), ((), (2, 1)), ((), (2, 1))),
    _triple(((3,), (2,)), ((3,), (2,)), ((), (2,))),
)

# x + y = z, components in B_{2,1}, x <= y
MAIN2_SOLUTIONS = (
    _triple(((3,), (1, 2)), ((), (2, 1)), ((1, 1, 1), (2, 1))),
    _triple(((), (2, 1)), ((), (2, 1)), ((), (1, 2))),
    _triple(((3,), (2,)), ((3,), (2,)), ((1, 1), (2,))),
    _triple(((3,), (2,)), ((), (2,)), ((1,), (2,))),
)

# x + y + z = 1 with components in B_{2,2}
B22_SOLUTIONS = (
    _triple(((3, 3), (1, 2)), ((3, 3), (1, 2)), ((2, 1), (1, 2))),
    _triple(((3, 1), (1, 2)), ((3, 1), (1, 2)), ((2, 3), (1, 2))),
    _triple(((3, 1), (1, 2)), ((3, 3), (1, 2)), ((2, 2, 2), (2, 1))),
)

# name -> (x, y, z): the angles of each tiling preset over pi, exact
PRESET_TRIPLES = {
    "equilateral": (Fraction(1, 3),) * 3,
    "optimal1": MAIN_SOLUTIONS[0].values(),
    "optimal2": (lambda x, y, z: (z, x, y))(*MAIN_SOLUTIONS[1].values()),
}


def _relation_holds(relation, values):
    """Is x + y + z = 1 (or x + y = z) exact?  Values from two quadratic
    fields never are: one field then holds just one of them, irrational,
    and 1, sqrt(d) over distinct squarefree d are linearly independent."""
    if len({v.d for v in values if v.b}) > 1:
        return False
    vx, vy, vz = values
    return vx + vy + vz == 1 if relation == "sum_is_one" else vx + vy == vz


def _cleared_sum(terms, k=0):
    """The sum of the terms minus k, as one unreduced triple (A, B, C).

    A term (a, b, c) with c > 0 stands for (a + b sqrt d)/c.  Then
    A = sum a_i prod_{j != i} c_j - k prod c_j, B = sum b_i prod_{j != i} c_j
    and C = prod c_j > 0, so _sign(A, B, d) is the sign of the sum minus k,
    and A = B = 0 says that it is 0.
    """
    big_a, big_b, big_c = 0, 0, 1
    for a, b, c in terms:
        big_a, big_b, big_c = big_a * c + a * big_c, big_b * c + b * big_c, big_c * c
    return big_a - k * big_c, big_b, big_c


def _neg(v):
    """-v for a triple v, as _cleared_sum takes them."""
    a, b, c = v
    return -a, -b, c


def _sum_verdict(triple, relation, b=2, j=None):
    """check_sum's (exact, ordered, classes); only exact values are ordered."""
    if relation not in ("sum_is_one", "x_plus_y_is_z"):
        raise ValueError(f"unknown relation {relation!r}")
    vx, vy, vz = values = triple.values()
    exact = _relation_holds(relation, values)
    ordered = exact and vx <= vy and (relation == "x_plus_y_is_z" or vy <= vz)
    classes = all(bad_class(w)[0] <= b if j is None else in_bad_class(w, b, j)
                  for w in (triple.x, triple.y, triple.z))
    return exact, ordered, classes


def check_sum(triple, relation, b=2, j=None):
    """Exact relation + ordering + digit-class check for a solution triple.

    relation is "sum_is_one" (x+y+z=1, x<=y<=z) or "x_plus_y_is_z"
    (x+y=z, x<=y).  By default components need only the eventual digit
    bound b (membership in B_b for some finite j); pass j to demand the
    sharper class B_{b,j}.
    """
    return all(_sum_verdict(triple, relation, b, j))


# --------------------------------------------------------------- insertions


# Both sides of every identity below are built as unreduced
# numerator/denominator pairs: x = a/b and y = c/d enter as their integer
# pairs (a QuadRat v as (v, 1)), each bracket is its word's integer
# convergent matrix applied to a pair, and each right-hand side is written
# homogeneously in (a, b, c, d).  `_identity` compares the two sides by
# one cross-multiplication.  Every inversion on the way checks its
# numerator, so a pole raises wherever the nested form divides by zero.


def _pair(v):
    """v as a numerator/denominator pair; a QuadRat enters as (v, 1)."""
    if isinstance(v, QuadRat):
        return v, 1
    return v.numerator, v.denominator


def _value(n, d):
    """The pair n/d as one Fraction, or one QuadRat division."""
    if isinstance(n, QuadRat) or isinstance(d, QuadRat):
        return n / d
    return Fraction(n, d)


def _inv(w):
    """1/w: the pair swapped; a zero numerator is a pole."""
    n, d = w
    if n == 0:
        raise ZeroDivisionError("inverse of zero")
    return d, n


def _inv_minus(w, k):
    """1/w - k."""
    d, n = _inv(w)
    return d - k * n, n


def _word_map(cs, t):
    """[c1,...,cm, t]: the word's convergent matrix acting on the tail t."""
    p1, q1, p, q = convergents(cs)
    n, d = t
    return p1 * n + p * d, q1 * n + q * d


def _bracket(cs, w):
    """[c1,...,cm, w]: the word cs acting on the tail 1/w."""
    return _word_map(cs, _inv(w))


def _one_minus(u, v, w):
    """1 - u - v - w over the product of the three denominators."""
    (un, ud), (vn, vd), (wn, wd) = u, v, w
    vw = vd * wd
    return (ud - un) * vw - (vn * wd + wn * vd) * ud, ud * vw


def _rest(a, b, c, d):
    """1 - x - y."""
    return b * d - a * d - b * c, b * d


# kind -> (a, b, c, d) -> pairs of X, Y and Z, with z = 1 - x - y
_INSERTIONS = {
    "2": lambda a, b, c, d: (
        _bracket((3,), _inv_minus((a, b), 1)),
        _bracket((3,), _inv_minus((c, d), 1)),
        _word_map((2,), _rest(a, b, c, d)),
    ),
    "11211": lambda a, b, c, d: (
        _bracket((3, 3), (a + b, b)),
        _bracket((3, 3), (c + d, d)),
        _bracket((2, 1, 1, 2, 1), _inv_minus(_rest(a, b, c, d), 1)),
    ),
}


def _lucky2(a, b, c, d):
    """2XY - 2X - 2Y + 1 = 2(X - 1)(Y - 1) - 1, with X and Y built once."""
    xn, xd = _bracket((3,), _inv_minus((a, b), 1))
    yn, yd = _bracket((3,), _inv_minus((c, d), 1))
    return (
        (2 * (xn - xd) * (yn - yd) - xd * yd, xd * yd),
        (b * d - 2 * (a - b) * (c - d), (2 * a - 3 * b) * (2 * c - 3 * d)),
    )


# kind -> (a, b, c, d) -> pair of the closed form of the insertion's
# residual 1 - X - Y - Z
_RESIDUALS = {
    # (x - y)^2 / ((3 - 2x)(3 - 2y)(3 - x - y))
    "2": lambda a, b, c, d: (
        (a * d - b * c) ** 2,
        (3 * b - 2 * a) * (3 * d - 2 * c) * (3 * b * d - a * d - b * c),
    ),
    # -5(x - y)^2 / ((10x + 13)(10y + 13)(5x + 5y + 13))
    "11211": lambda a, b, c, d: (
        -5 * (a * d - b * c) ** 2,
        (10 * a + 13 * b) * (10 * c + 13 * d) * (5 * a * d + 5 * b * c + 13 * b * d),
    ),
}


def _insertion_identity(kind):
    """1 - X - Y - Z = the residual's closed form, for insertion `kind`."""
    return lambda a, b, c, d: (_one_minus(*_INSERTIONS[kind](a, b, c, d)),
                               _RESIDUALS[kind](a, b, c, d))


# ident -> (a, b, c, d) -> (lhs pair, rhs pair): the two insertions, then
# the five auxiliary identities
_IDENTITIES = {
    "2": _insertion_identity("2"),
    "11211": _insertion_identity("11211"),
    # 4(x - y)^2 / ((8x - 11)(8y - 11)(11 - 4x - 4y))
    "A": lambda a, b, c, d: (
        _one_minus(
            _bracket((2, 1, 3), _inv_minus((a, b), 1)),
            _bracket((2, 1, 3), _inv_minus((c, d), 1)),
            _bracket((3, 1, 1), _inv(_rest(a, b, c, d))),
        ),
        (4 * (a * d - b * c) ** 2,
         (8 * a - 11 * b) * (8 * c - 11 * d) * (11 * b * d - 4 * a * d - 4 * b * c)),
    ),
    # -2(x - y)^2 / ((4x + 7)(4y + 7)(2x + 2y + 7))
    "B": lambda a, b, c, d: (
        _one_minus(
            _bracket((3, 1, 1), _inv((a, b))),
            _bracket((3, 1, 1), _inv((c, d))),
            _bracket((2, 3, 1), _inv_minus(_rest(a, b, c, d), 1)),
        ),
        (-2 * (a * d - b * c) ** 2,
         (4 * a + 7 * b) * (4 * c + 7 * d) * (2 * a * d + 2 * b * c + 7 * b * d)),
    ),
    # 8(x - y)^2 / ((16x - 13)(16y - 13)(13 - 8x - 8y))
    "C": lambda a, b, c, d: (
        _one_minus(
            _bracket((3, 3, 1), _inv_minus((a, b), 2)),
            _bracket((3, 3, 1), _inv_minus((c, d), 2)),
            _bracket((2, 1, 1, 1), _rest(a, b, c, d)),
        ),
        (8 * (a * d - b * c) ** 2,
         (16 * a - 13 * b) * (16 * c - 13 * d) * (13 * b * d - 8 * a * d - 8 * b * c)),
    ),
    # 2(x + y - 3)(2xy - 2x - 2y + 1) / ((2x - 3)(2y - 3)(7 - 2x - 2y))
    "lucky1": lambda a, b, c, d: (
        _one_minus(
            _bracket((3,), _inv_minus((a, b), 1)),
            _bracket((3,), _inv_minus((c, d), 1)),
            _bracket((2, 2), _inv(_rest(a, b, c, d))),
        ),
        (2 * (a * d + b * c - 3 * b * d) * (2 * (a - b) * (c - d) - b * d),
         (2 * a - 3 * b) * (2 * c - 3 * d) * (7 * b * d - 2 * a * d - 2 * b * c)),
    ),
    # -(2xy - 2x - 2y + 1) / ((2x - 3)(2y - 3))
    "lucky2": _lucky2,
}


def _decide(lhs, rhs):
    """(lhs, rhs, lhs == rhs) of two (numerator, denominator) pairs; a zero
    denominator is a pole."""
    (ln, ld), (rn, rd) = lhs, rhs
    if ld == 0 or rd == 0:
        raise ZeroDivisionError("identity at a pole")
    return lhs, rhs, ln * rd == rn * ld


def _identity(ident, x, y):
    """_decide of _IDENTITIES[ident] at (x, y)."""
    return _decide(*_IDENTITIES[ident](*_pair(x), *_pair(y)))


def insertion(kind, x, y, z):
    """Apply one insertion transform to a triple with x+y+z=1.

    kind "2": a 2 goes in after the leading 3 of x and y, and foremost
    into z.  kind "11211": 3,1,3 after the leading 3 of x and y, and
    1,1,2,1,1 after the leading 2 of z.  As words that end in a real
    entry w (the tail 1/w, see _bracket), kind "2" gives X = [3, 1/x-1]
    and Z = [2, z], z's own word behind a 2; kind "11211" gives
    X = [3, 3, 1+x] and Z = [2,1,1,2,1, 1/z-1].  Returns (X, Y, Z,
    residual) where the residual 1-X-Y-Z equals a closed-form rational
    function of x and y alone that vanishes iff x = y — so insertions map
    equal-pair solutions of x+y+z=1 to new solutions.  The words are built
    once, and their residual is checked against that form by `_decide`.
    """
    (a, b), (c, d), (e, f) = _pair(x), _pair(y), _pair(z)
    if (a * d + b * c) * f + e * b * d != b * d * f:
        raise ValueError("insertion requires x + y + z = 1")
    if kind not in _INSERTIONS:
        raise ValueError(f"unknown insertion kind {kind!r}")
    try:
        words = _INSERTIONS[kind](a, b, c, d)
        residual, _, holds = _decide(_one_minus(*words), _RESIDUALS[kind](a, b, c, d))
    except ZeroDivisionError as exc:
        raise ValueError("insertion transform hit a pole") from exc
    if not holds:
        raise AssertionError("residual identity violated — arithmetic bug")
    return (*(_value(*w) for w in words), _value(*residual))


def extra_identity(ident, x, y):
    """Evaluate both sides of one of the auxiliary identities exactly."""
    if ident not in _IDENTITIES or ident in _INSERTIONS:
        raise ValueError(f"unknown identity {ident!r}; "
                         f"choose from {sorted(_IDENTITIES.keys() - _INSERTIONS.keys())}")
    try:
        lhs, rhs, _ = _identity(ident, x, y)
    except ZeroDivisionError as exc:
        raise ValueError("identity evaluated at a pole") from exc
    return _value(*lhs), _value(*rhs)


# ----------------------------------------------------------------- families


_X_BLOCKS = {"2": (2,), "11211": (3, 1, 3)}
_Z_BLOCKS = {"2": (2,), "11211": (1, 1, 2, 1, 1)}


def generate_solutions(code=()):
    """Compose insertions over the code alphabet {"2", "11211"}.

    Starting from MAIN_SOLUTIONS[1] = ([3,per(2)], [3,per(2)], [per(2)]),
    each symbol inserts its block just after the leading digit of the x, y
    and z words; values are carried exactly through the Möbius transforms,
    so the sum stays 1 exactly.  Digits never exceed 3, and a length-L
    all-"2" code keeps the triple inside B_{2,L+1}.
    """
    code = tuple(code)
    if len(code) > 40:
        raise ValueError("code length capped at 40: a 40-symbol code takes ~8 ms, and the "
                         "time grows about as its length squared")
    if any(sym not in _X_BLOCKS for sym in code):
        raise ValueError("code symbols must be '2' or '11211'")
    x, y, z = MAIN_SOLUTIONS[1].values()
    x_mid = ()
    z_mid = ()
    for sym in code:
        x, y, z, _ = insertion(sym, x, y, z)
        x_mid = _X_BLOCKS[sym] + x_mid
        z_mid = _Z_BLOCKS[sym] + z_mid
    triple = _triple(
        ((3,) + x_mid, (2,)), ((3,) + x_mid, (2,)), ((2,) + z_mid, (2,))
    )
    vx, vy, vz = triple.values()
    if (vx, vy, vz) != (x, y, z) or vx + vy + vz != 1:
        raise AssertionError("insertion words and values drifted apart — bug")
    return triple


# The scalene family's words as (head, block, suffix, period): the word at l
# is [head, (block)^l, suffix, per(period)].  They are x = [3,(2)^l,1,per(1,2)],
# y = [3,(2)^l,3,per(1,2)] and z = [(2)^(2l+4),per(1,2)].
_SCALENE = (
    ((3,), (2,), (1,), (1, 2)),
    ((3,), (2,), (3,), (1, 2)),
    ((2, 2, 2, 2), (2, 2), (), (1, 2)),
)


def _scalene_word(template, ell):
    head, block, suffix, period = template
    return PeriodicCF(head + block * ell + suffix, period)


def _scalene_classes(template):
    """(b at l = 0, b at every l >= 1): bad_class's B of the template's words.

    B depends only on which digits a word holds, and from l = 1 on the
    word holds the same ones, so the l = 1 word stands for every l >= 1.
    """
    return tuple(bad_class(_scalene_word(template, ell))[0] for ell in (0, 1))


def scalene_family(ell):
    """The sporadic scalene family: exact x+y+z=1 with x, y, z all distinct."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    cfs = [_scalene_word(t, ell) for t in _SCALENE]
    vals = [w.value() for w in cfs]
    if not _relation_holds("sum_is_one", vals):
        raise AssertionError("scalene family sum failed — transcription bug")
    order = sorted(range(3), key=lambda i: vals[i])
    if vals[order[0]] == vals[order[1]] or vals[order[1]] == vals[order[2]]:
        raise AssertionError("scalene family degenerated")
    return SolutionTriple(*(cfs[i] for i in order))


def scalene_sweep(l_max):
    """[(values, ok)] for l = 0..l_max: the scalene family checked at each l.

    values are the l-th x, y and z, and ok says that x + y + z = 1
    exactly, that the three are distinct and that each word is in B_2.
    No word is built as digits: each template's prefix [head, (block)^l]
    is kept as its convergent tuple and stepped to l + 1 by one block
    (x and y share theirs), then continued by the suffix and applied to
    the period's value.  The classes are read once, by `_scalene_classes`.
    """
    _check_int("l_max", l_max, 0)
    if l_max > 1000:
        raise ValueError("l_max capped at 1000: that run takes ~0.2 s, "
                         "and the time grows about as l_max^2.3")
    classes = [_scalene_classes(t) for t in _SCALENE]
    in_b2 = [all(b[k] <= 2 for b in classes) for k in (0, 1)]
    tails = [PeriodicCF((), period).value() for *_, period in _SCALENE]
    one_field = len({t.d for t in tails}) == 1  # else no l sums to 1, as in _relation_holds
    prefixes = {(head, block): convergents(head) for head, block, _, _ in _SCALENE}
    out = []
    for ell in range(l_max + 1):
        # each value as an unreduced triple from the stepped matrices; the sum
        # and the three differences are then integer zero tests
        x, y, z = ends = [
            _mobius_triple(convergents(suffix, prefixes[head, block]), t.a, t.b, t.c, t.d)
            for (head, block, suffix, _), t in zip(_SCALENE, tails)]
        ok = (in_b2[ell > 0] and one_field and _cleared_sum(ends, 1)[:2] == (0, 0)
              and all(u[0] * v[2] != v[0] * u[2] or u[1] * v[2] != v[1] * u[2]
                      for u, v in ((x, y), (y, z), (x, z))))
        out.append((tuple(QuadRat._new(*v, t.d) for v, t in zip(ends, tails)), ok))
        prefixes = {(head, block): convergents(block, m)
                    for (head, block), m in prefixes.items()}
    return out


# ------------------------------------------------------------------- search


# [per(2,1)] and [per(1,2)], the least and greatest tails with digits <= 2
_TAIL_LO = PeriodicCF((), (2, 1)).value()
_TAIL_HI = PeriodicCF((), (1, 2)).value()


def search_triples(relation, depth, first_digit_max=3):
    """Branch-and-bound for digit-bounded numbers satisfying the relation.

    The numbers themselves obey a1 <= first_digit_max and a_k <= 2 for all
    k >= 2, so each word is scored by the exact value range of its
    digit-bounded extensions (not the full cylinder).  A triple is pruned
    when exact interval arithmetic excludes the relation or the ordering;
    branching always splits the widest unfinished range, the first of
    equal ones, digits in increasing order.  Survivors are the word triples
    alive at full depth.
    """
    _check_int("depth", depth, 0)
    if depth > 16:
        raise ValueError("depth capped at 16: a depth-16 search takes ~3 ms, and the time "
                         "grows about linearly with the depth")
    _check_int("first_digit_max", first_digit_max, 1)
    if first_digit_max > 4:
        raise ValueError("first_digit_max capped at 4: a depth-16 x + y = z search at 4 takes "
                         "~9 s and keeps 234,281 survivors, against ~3 ms at 3")
    if relation not in ("sum_is_one", "x_plus_y_is_z"):
        raise ValueError(f"unknown relation {relation!r}")
    # A node is (word, m, lo, hi): a word, its convergent matrix, and the
    # ends of [word, t] over the tails t, as integer triples over Q(sqrt d).
    # Every test is the sign of a _cleared_sum: no QuadRat is built.
    d, tails = _TAIL_LO.d, [(t.a, t.b, t.c) for t in (_TAIL_LO, _TAIL_HI)]
    survivors = []

    def sign(terms, k=0):
        big_a, big_b, _ = _cleared_sum(terms, k)
        return _sign(big_a, big_b, d)

    def feasible(nodes):
        (_, _, xl, xh), (_, _, yl, yh), (_, _, zl, zh) = nodes
        if sign((xl, _neg(yh))) > 0:
            return False
        if relation == "sum_is_one":
            return sign((yl, _neg(zh))) <= 0 and sign((xl, yl, zl), 1) <= 0 <= sign((xh, yh, zh), 1)
        return sign((xl, yl, _neg(zh))) <= 0 <= sign((xh, yh, _neg(zl)))

    # the empty word's range: first digit 1..first_digit_max, then the tails
    start = (((), (1, 0, 0, 1), _mobius_triple(convergents((first_digit_max,)), *tails[1], d),
              _mobius_triple(convergents((1,)), *tails[0], d)),) * 3
    # depth first, children in increasing digit order, on an explicit
    # stack: the search keeps no Python frame per digit
    stack = [start] if feasible(start) else []
    while stack:
        nodes = stack.pop()
        i = None
        for j, (word, _, lo, hi) in enumerate(nodes):
            # hi - lo against the widest width so far, cross-multiplied
            if len(word) < depth and (
                    i is None or sign((hi, _neg(lo), _neg(nodes[i][3]), nodes[i][2])) > 0):
                i = j
        if i is None:
            survivors.append(tuple(node[0] for node in nodes))
            continue
        word, m = nodes[i][:2]
        children = []
        for b in range(1, (first_digit_max if not word else 2) + 1):
            step = convergents((b,), m)
            ends = [_mobius_triple(step, *t, d) for t in tails]
            if step[0] * step[3] < step[2] * step[1]:  # a decreasing map swaps the ends
                ends.reverse()
            new = list(nodes)
            new[i] = (word + (b,), step, *ends)
            if feasible(new):
                children.append(tuple(new))
        stack.extend(reversed(children))
    return survivors

