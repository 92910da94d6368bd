"""Exact verification of the sum relations among badly approximable numbers.

Everything here reduces to exact rational or quadratic arithmetic: the
17-row case tables, the forbidden-pattern exclusion argument, the two
insertion transforms and their residual identities, the explicit solution
families, and an independent branch-and-bound search over digit cylinders.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .cf import Cylinder, PeriodicCF, bad_class, convergents, in_bad_class, word_map
from .quadfield import QuadRat, sqrt2, sqrt3

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
    "check_sum",
    "insertion",
    "extra_identity",
    "generate_solutions",
    "scalene_family",
    "search_triples",
    "word_contains",
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
    if not all(isinstance(v, int) for v in (k, ell, s)) or k < 1 or ell < 0 or s < 3:
        raise ValueError("need integers k >= 1, ell >= 0, s >= 3")
    # both endpoint words continue the (2)^run prefix
    twos = _twos(2 * k - 1 if form == 1 else 2 * k)
    _, _, p, q = convergents((2, 1) * ell + (s,), twos)
    plain, deep = Fraction(twos[2], twos[3]), Fraction(p, q)
    r1, r2 = (deep, plain) if form == 1 else (plain, deep)
    if not r1 < r2:
        raise AssertionError("pattern endpoints out of order")
    return ForbiddenPattern(form, k, ell, s, r1, r2)


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
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not 0 < lo < hi < 1:
        raise ValueError("need 0 < lo < hi < 1")
    if depth > 60:
        raise ValueError("depth capped at 60: a sweep that deep takes ~1.5 ms per interval, "
                         "and the time grows about as the depth squared")
    if depth < 1:
        raise ValueError("depth must be >= 1")

    inconclusive = False

    def visit(word):
        nonlocal inconclusive
        clo, chi = Cylinder(word).hull()
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
            return ExclusionResult("found-witness", w)
    if inconclusive:
        return ExclusionResult("inconclusive")
    return ExclusionResult("certified-empty")


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
    """Check the row's endpoints instantiate a ForbiddenPattern at this n.

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
    return forbidden_interval(form, k, ell, s)


@functools.lru_cache(maxsize=2)
def _twos(m):
    """convergents((2,) * m), one digit past _twos(m - 1).

    A row value is read by (suffix, n) alone, so the rows at one n share
    their (2)^(n+1) prefix through this cache.  verify_tables asks for
    m = 1, 2, 3, ... in turn, so m - 1 is cached and each prefix costs one
    digit step.  Every 64th prefix starts from the empty word, so a call
    out of that order recurses at most 63 deep.
    """
    if m % 64 == 0:
        return convergents((2,) * m)
    return convergents((2,), _twos(m - 1))


def _endpoint_value(suffix, n):
    """[(2)^(n+1), suffix, inf]: one endpoint of a row's interval at n."""
    _, _, p, q = convergents(suffix, _twos(n + 1))
    return Fraction(p, q)


def _cylinder_hull(suffix, n):
    """Cylinder((3,) + (2,) * n + suffix).hull(), from the (2)^(n+1) prefix.

    [3, w] = [2, w] / (1 + [2, w]), so the word's convergents are
    (P', Q', P, Q) = (p1, p1 + q1, p, p + q) for those (p1, q1, p, q) of
    (2)^(n+1) + suffix, a word of the same length.
    """
    p1, q1, p, q = convergents(suffix, _twos(n + 1))
    value, mediant = Fraction(p, p + q), Fraction(p + p1, p + q + p1 + q1)
    return (mediant, value) if (n + 1 + len(suffix)) % 2 else (value, mediant)


def _check_row(row, n):
    """(left, right, pattern, ok) for one table row at one n; see verify_case_row."""
    if n < 0 or n % 2 != (0 if row.parity == "even" else 1):
        raise ValueError(f"row {row.id} needs n = {row.parity}, got {n}")
    left = _endpoint_value(row.left_suffix, n)
    right = _endpoint_value(row.right_suffix, n)
    pattern = _match_pattern(row, n)
    ok = left < right and pattern.r1 <= left and right <= pattern.r2
    if ok:
        hx = _cylinder_hull(row.x_suffix, n)
        hy = _cylinder_hull(row.y_suffix, n)
        ok = left <= 1 - hx[1] - hy[1] and 1 - hx[0] - hy[0] <= right
    return left, right, pattern, ok


def verify_case_row(row, n):
    """Exact containment check for one table row at one n.

    The closed hull of Z = 1 - X - Y over the row's cylinders must land
    inside the row's endpoint interval, which itself must instantiate a
    forbidden pattern of the correct parity.
    """
    return _check_row(row, n)[3]


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
    cx = Cylinder((3,) + (2,) * n + (1, 2))
    cy = Cylinder((3,) + (2,) * n + (2, 2))
    return (
        a == cx.lo and b == cx.hi and c == cy.lo and d == cy.hi
    )


def _row_entry(row, n):
    left, right, pat, ok = _check_row(row, n)
    return {
        "id": row.id,
        "parity": row.parity,
        "n": n,
        "pass": ok,
        "z_interval": [str(left), str(right)],
        "pattern": {"form": pat.form, "k": pat.k, "ell": pat.ell, "s": pat.s},
    }, (left, right)


def verify_tables(n_max=20, exclusion_depth=30):
    """Run every row at every admissible n up to n_max, plus the exclusion oracle.

    `excludes_b2` sweeps only the distinct hulls at n = 0 and n = 1, to depth
    `exclusion_depth`, and each verdict is carried up its row exactly: from
    n to n + 2 both endpoint words gain two leading 2s, so the hull moves by
    M(t) = [2,2,t].  M maps the numbers whose digits are all 1 or 2 onto
    those in I(2,2), so the image holds such a number iff the hull does (a
    witness w becomes (2,2)+w).  Each carried hull must equal the row's own
    endpoints.  Returns a report dict: per-(row, n) pass flags, one
    exclusion verdict per distinct pattern hull, and an overall `ok`.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    # n runs outermost, so every row at n continues the same (2)^(n+1)
    # prefix, one digit past the last; the odd table starts at n = 1
    tables = [table_rows(parity) for parity in ("even", "odd")[: n_max + 1]]
    sweeps = [[[] for _ in table] for table in tables]
    for n in range(n_max + 1):
        for row, pairs in zip(tables[n % 2], sweeps[n % 2]):
            pairs.append(_row_entry(row, n))
    rows = [pairs for sweep in sweeps for pairs in sweep]
    base = sorted({pairs[0][1] for pairs in rows})
    swept = {hull: excludes_b2(*hull, exclusion_depth) for hull in base}
    # keyed by the printed hull: a Fraction's hash takes a modular inverse
    # of its denominator, ~10% of the run at n_max = 400
    verdicts = {}
    for pairs in rows:
        hull = pairs[0][1]
        status = swept[hull].status
        for entry, own in pairs:
            if own != hull:
                raise AssertionError(f"row {entry['id']}: carried hull {hull} != {own}")
            verdicts[tuple(entry["z_interval"])] = own, status
            hull = tuple(word_map((2, 2), t) for t in hull)
    entries = [entry for pairs in rows for entry, _ in pairs]
    exclusions = [
        {"interval": [str(lo), str(hi)], "status": status}
        for (lo, hi), status in sorted(verdicts.values())
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

    def classes(self):
        return bad_class(self.x), bad_class(self.y), bad_class(self.z)


def _triple(x, y, z):
    return SolutionTriple(
        PeriodicCF(*x).canonical(), PeriodicCF(*y).canonical(), PeriodicCF(*z).canonical()
    )


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


def check_sum(triple, relation, b=2, j=None):
    """Exact relation + ordering + digit-class check for a solution triple.

    relation is "sum_is_one" (x+y+z=1, x<=y<=z) or "x_plus_y_is_z"
    (x+y=z, x<=y).  By default components need only the eventual digit
    bound b (membership in B_b for some finite j); pass j to demand the
    sharper class B_{b,j}.
    """
    vx, vy, vz = triple.values()
    if relation == "sum_is_one":
        if vx + vy + vz != 1:
            return False
        ordered = (vy - vx).sign() >= 0 and (vz - vy).sign() >= 0
    elif relation == "x_plus_y_is_z":
        if vx + vy != vz:
            return False
        ordered = (vy - vx).sign() >= 0
    else:
        raise ValueError(f"unknown relation {relation!r}")
    if j is None:
        classes_ok = all(bad_class(w)[0] <= b for w in (triple.x, triple.y, triple.z))
    else:
        classes_ok = all(in_bad_class(w, b, j) for w in (triple.x, triple.y, triple.z))
    return ordered and classes_ok


# --------------------------------------------------------------- insertions


def _inv(v):
    return 1 / v


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
    equal-pair solutions of x+y+z=1 to new solutions.
    """
    if x + y + z != 1:
        raise ValueError("insertion requires x + y + z = 1")
    try:
        if kind == "2":
            bx = _bracket((3,), _inv(x) - 1)
            by = _bracket((3,), _inv(y) - 1)
            bz = word_map((2,), z)
            rhs = (x - y) ** 2 / ((3 - 2 * x) * (3 - 2 * y) * (3 - x - y))
        elif kind == "11211":
            bx = _bracket((3, 3), 1 + x)
            by = _bracket((3, 3), 1 + y)
            bz = _bracket((2, 1, 1, 2, 1), _inv(z) - 1)
            rhs = -5 * (x - y) ** 2 / ((10 * x + 13) * (10 * y + 13) * (5 * x + 5 * y + 13))
        else:
            raise ValueError(f"unknown insertion kind {kind!r}")
    except ZeroDivisionError as exc:
        raise ValueError("insertion transform hit a pole") from exc
    residual = 1 - bx - by - bz
    if residual != rhs:
        raise AssertionError("residual identity violated — arithmetic bug")
    return bx, by, bz, residual


def _bracket(cs, w):
    """[c1,...,cm, w] — the word cs acting on the tail 1/w."""
    return word_map(cs, _inv(w))


_IDENTITIES = {
    "A": lambda x, y: (
        1
        - _bracket((2, 1, 3), _inv(x) - 1)
        - _bracket((2, 1, 3), _inv(y) - 1)
        - _bracket((3, 1, 1), _inv(1 - x - y)),
        4 * (x - y) ** 2 / ((8 * x - 11) * (8 * y - 11) * (11 - 4 * x - 4 * y)),
    ),
    "B": lambda x, y: (
        1
        - _bracket((3, 1, 1), _inv(x))
        - _bracket((3, 1, 1), _inv(y))
        - _bracket((2, 3, 1), _inv(1 - x - y) - 1),
        -2 * (x - y) ** 2 / ((4 * x + 7) * (4 * y + 7) * (2 * x + 2 * y + 7)),
    ),
    "C": lambda x, y: (
        1
        - _bracket((3, 3, 1), _inv(x) - 2)
        - _bracket((3, 3, 1), _inv(y) - 2)
        - _bracket((2, 1, 1, 1), 1 - x - y),
        8 * (x - y) ** 2 / ((16 * x - 13) * (16 * y - 13) * (13 - 8 * x - 8 * y)),
    ),
    "lucky1": lambda x, y: (
        1
        - _bracket((3,), _inv(x) - 1)
        - _bracket((3,), _inv(y) - 1)
        - _bracket((2, 2), _inv(1 - x - y)),
        2 * (x + y - 3) * (2 * x * y - 2 * x - 2 * y + 1)
        / ((2 * x - 3) * (2 * y - 3) * (7 - 2 * x - 2 * y)),
    ),
    "lucky2": lambda x, y: (
        2 * _bracket((3,), _inv(x) - 1) * _bracket((3,), _inv(y) - 1)
        - 2 * _bracket((3,), _inv(x) - 1)
        - 2 * _bracket((3,), _inv(y) - 1)
        + 1,
        -(2 * x * y - 2 * x - 2 * y + 1) / ((2 * x - 3) * (2 * y - 3)),
    ),
}


def extra_identity(ident, x, y):
    """Evaluate both sides of one of the auxiliary identities exactly."""
    try:
        fn = _IDENTITIES[ident]
    except KeyError:
        raise ValueError(f"unknown identity {ident!r}; choose from {sorted(_IDENTITIES)}")
    try:
        return fn(x, y)
    except ZeroDivisionError as exc:
        raise ValueError("identity evaluated at a pole") from exc


# ----------------------------------------------------------------- families


_X_BLOCKS = {"2": (2,), "11211": (3, 1, 3)}
_Z_BLOCKS = {"2": (2,), "11211": (1, 1, 2, 1, 1)}


def generate_solutions(code=()):
    """Compose insertions over the code alphabet {"2", "11211"}.

    Starting from the base solution ([3,per(2)], [3,per(2)], [per(2)]),
    each symbol inserts its block just after the leading digit of the x, y
    and z words; values are carried exactly through the Möbius transforms,
    so the sum stays 1 exactly.  Digits never exceed 3, and a length-L
    all-"2" code keeps the triple inside B_{2,L+1}.
    """
    code = tuple(code)
    if len(code) > 40:
        raise ValueError("code length capped at 40: a 40-symbol code takes ~20 ms, and the "
                         "time grows about as its length squared")
    if any(sym not in _X_BLOCKS for sym in code):
        raise ValueError("code symbols must be '2' or '11211'")
    x = y = (2 - sqrt2()) / 2
    z = sqrt2() - 1
    x_mid = ()
    z_mid = ()
    for sym in code:
        x, y, z, _ = insertion(sym, x, y, z)
        x_mid = _X_BLOCKS[sym] + x_mid
        z_mid = _Z_BLOCKS[sym] + z_mid if sym == "11211" else (2,) + z_mid
    triple = _triple(
        ((3,) + x_mid, (2,)), ((3,) + x_mid, (2,)), ((2,) + z_mid, (2,))
    )
    vx, vy, vz = triple.values()
    if (vx, vy, vz) != (x, y, z) or vx + vy + vz != 1:
        raise AssertionError("insertion words and values drifted apart — bug")
    return triple


def scalene_family(ell):
    """The sporadic scalene family: exact x+y+z=1 with x, y, z all distinct."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    words = [
        ((3,) + (2,) * ell + (1,), (1, 2)),
        ((3,) + (2,) * ell + (3,), (1, 2)),
        ((2,) * (4 + 2 * ell), (1, 2)),
    ]
    cfs = [PeriodicCF(*w).canonical() for w in words]
    vals = [w.value() for w in cfs]
    if sum(vals[1:], vals[0]) != 1:
        raise AssertionError("scalene family sum failed — transcription bug")
    order = sorted(range(3), key=lambda i: vals[i])
    if vals[order[0]] == vals[order[1]] or vals[order[1]] == vals[order[2]]:
        raise AssertionError("scalene family degenerated")
    return SolutionTriple(*(cfs[i] for i in order))


# ------------------------------------------------------------------- search


def _word_hull(word):
    if not word:
        return Fraction(0), Fraction(1)
    return Cylinder(word).hull()


def _constrained_hull(word, first_digit_max, cache):
    """Exact closed value range of [word ++ tail] over tails with digits <= 2.

    The extreme tails alternate, so the endpoints are the images of
    [per(2,1)] and [per(1,2)] under the word's Mobius map — quadratic
    numbers in Q(sqrt 3), attained by genuine digit-bounded extensions.
    """
    cached = cache.get(word)
    if cached is not None:
        return cached
    s3 = sqrt3()
    t_lo, t_hi = (s3 - 1) / 2, s3 - 1
    if not word:
        lo, hi = word_map((first_digit_max,), t_hi), word_map((1,), t_lo)
    else:  # the word's map is increasing iff the word has even length
        ends = word_map(word, t_lo), word_map(word, t_hi)
        lo, hi = ends if len(word) % 2 == 0 else ends[::-1]
    cache[word] = (lo, hi)
    return lo, hi


def search_triples(relation, depth, first_digit_max=3):
    """Branch-and-bound for digit-bounded numbers satisfying the relation.

    The numbers themselves obey a1 <= first_digit_max and a_k <= 2 for all
    k >= 2, so each word is scored by the exact value range of its
    digit-bounded extensions (not the full cylinder).  A triple is pruned
    when exact interval arithmetic excludes the relation or the ordering;
    branching always splits the widest unfinished range, digits in
    increasing order.  Survivors are the word triples alive at full depth.
    """
    if depth > 16:
        raise ValueError("depth capped at 16: a depth-16 search takes ~0.05 s, and the time "
                         "grows about linearly with the depth")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if relation not in ("sum_is_one", "x_plus_y_is_z"):
        raise ValueError(f"unknown relation {relation!r}")
    survivors = []
    cache = {}

    def hull(word):
        return _constrained_hull(word, first_digit_max, cache)

    def feasible(words):
        (xl, xh), (yl, yh), (zl, zh) = (hull(w) for w in words)
        if not xl <= yh:
            return False
        if relation == "sum_is_one":
            if not yl <= zh:
                return False
            s_lo, s_hi = xl + yl + zl, xh + yh + zh
            return (1 - s_lo).sign() >= 0 and (s_hi - 1).sign() >= 0
        return xl + yl <= zh and zl <= xh + yh

    def branch(words):
        widths = [
            (hull(w)[1] - hull(w)[0], i)
            for i, w in enumerate(words)
            if len(words[i]) < depth
        ]
        if not widths:
            survivors.append(tuple(words))
            return
        _, i = max(widths, key=lambda t: (t[0], -t[1]))
        hi_digit = first_digit_max if not words[i] else 2
        for b in range(1, hi_digit + 1):
            new = list(words)
            new[i] = words[i] + (b,)
            if feasible(new):
                branch(new)

    start = ((), (), ())
    if feasible(list(start)):
        branch(list(start))
    return survivors


def word_contains(word, value):
    """Closed-hull membership of an exact value in a cylinder word."""
    lo, hi = _word_hull(word)
    return (value - lo).sign() >= 0 and (hi - value).sign() >= 0
