"""End-to-end tests of the command-line surface."""

import hashlib
import json
import re
import sys
import time
import warnings
from fractions import Fraction

import pytest

import badtri.theorems as theorems
from badtri.cf import MAX_DECIMAL_DIGITS, PeriodicCF
from badtri.cli import _build_parser, cmd_verify_main, main
from badtri.gifs import PRESETS, patch_texts
from badtri.quadfield import QuadRat
from oracles import insertion, kd_recurs_in, patch_doc, sqrt2


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def export_svg(patch, prev_patch=None):
    """The SVG that `export` writes for `patch` as the step after `prev_patch`."""
    steps = [patch] if prev_patch is None else [prev_patch, patch]
    return list(patch_texts(steps, ("svg",))["svg"])[-1]


def test_verify_main(capsys):
    code, out, _ = run(capsys, "verify", "main")
    assert code == 0
    assert out.count("PASS") == 2
    assert "[3,per(1,2)]" in out and "[per(2,1)]" in out
    assert out == (
        "PASS sum=1 exact=True roundtrip=True class_B2=True  [3,per(1,2)], [per(2,1)], [per(2,1)]\n"
        "PASS sum=1 exact=True roundtrip=True class_B2=True  [3,per(2)], [3,per(2)], [per(2)]\n"
    )


def test_verify_main2(capsys):
    code, out, _ = run(capsys, "verify", "main2")
    assert code == 0
    assert out.count("PASS") == 4
    assert out == (
        "PASS x+y=z exact=True roundtrip=True class_B2=True  "
        "[3,per(1,2)], [per(2,1)], [1,1,per(1,2)]\n"
        "PASS x+y=z exact=True roundtrip=True class_B2=True  [per(2,1)], [per(2,1)], [per(1,2)]\n"
        "PASS x+y=z exact=True roundtrip=True class_B2=True  [3,per(2)], [3,per(2)], [1,1,per(2)]\n"
        "PASS x+y=z exact=True roundtrip=True class_B2=True  [3,per(2)], [per(2)], [1,per(2)]\n"
    )


def test_verify_tables_small(capsys):
    code, out, _ = run(capsys, "verify", "tables", "--n-max", "2")
    assert code == 0
    assert "ok=True" in out and "FAIL" not in out


@pytest.mark.parametrize("argv, digest, code, lines", [
    (["--n-max", "60", "--depth", "30"],
     "76fb5f31a871d2258b57db43eb7740f974f3d0d522f27a61683fbf4901ad1828", 0, 1709),
    # too shallow a sweep: some exclusions are inconclusive
    (["--n-max", "10", "--depth", "5"],
     "44e37e5acd28c93cd5f7648797752cb13b17189c4cc11caea659d8d1240533e1", 1, 309),
    # the cap
    (["--n-max", "400", "--depth", "30"],
     "9226ab7a6bd581b2111b7eebd16e883069198694b103b616a0758a678ccbad0d", 0, 11229),
])
def test_verify_tables_output_bytes(capsys, argv, digest, code, lines):
    got, out, _ = run(capsys, "verify", "tables", *argv)
    assert (got, out.count("\n")) == (code, lines)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _spine_line(*words):
    return "  " + " | ".join(",".join(map(str, (pre + period * 16)[:16])) for pre, period in words)


@pytest.mark.parametrize("relation, out", [
    ("sum_is_one", "\n".join([
        "survivors at depth 16: 2",
        _spine_line(((3,), (1, 2)), ((), (2, 1)), ((), (2, 1))),
        _spine_line(((3,), (2,)), ((3,), (2,)), ((), (2,))),
        "stray survivors: 0; solutions covered: 2/2\n"])),
    ("x_plus_y_is_z", "\n".join([
        "survivors at depth 16: 4",
        _spine_line(((), (2, 1)), ((), (2, 1)), ((), (1, 2))),
        _spine_line(((3,), (1, 2)), ((), (2, 1)), ((1, 1, 1), (2, 1))),
        _spine_line(((3,), (2,)), ((), (2,)), ((1,), (2,))),
        _spine_line(((3,), (2,)), ((3,), (2,)), ((1, 1), (2,))),
        "stray survivors: 0; solutions covered: 4/4\n"])),
])
def test_verify_search_output_at_the_cap(capsys, monkeypatch, relation, out):
    # the search and its coverage check work on digits and integers alone
    def build(*args):
        raise AssertionError("verify search built an exact value")

    monkeypatch.setattr(QuadRat, "_new", staticmethod(build))
    monkeypatch.setattr(Fraction, "__new__", staticmethod(build))
    assert run(capsys, "verify", "search", "--depth", "16", "--relation", relation) == (0, out, "")


def test_verify_identities(capsys):
    code, out, _ = run(capsys, "verify", "identities", "--samples", "10")
    assert code == 0
    assert "PASS 10 samples" in out
    code, out, _ = run(capsys, "verify", "identities", "--samples", "300", "--seed", "1")
    assert code == 0
    assert out == "PASS 300 samples, 2100 identity instances exact\n"


def test_verify_identities_reports_a_broken_identity(capsys, monkeypatch):
    exact = theorems._IDENTITIES["B"]

    def off_by_one(a, b, c, d):  # the right-hand side plus 1
        lhs, (n, m) = exact(a, b, c, d)
        return lhs, (n + m, m)

    monkeypatch.setitem(theorems._IDENTITIES, "B", off_by_one)
    code, out, _ = run(capsys, "verify", "identities", "--samples", "300", "--seed", "1")
    assert code == 1
    assert out == "FAIL identity B at x=1/18 y=5/122\n"


def test_a_broken_insertion_residual_raises(capsys, monkeypatch):
    exact = theorems._RESIDUALS["11211"]

    def off_by_one(a, b, c, d):  # the residual's closed form plus 1
        n, m = exact(a, b, c, d)
        return n + m, m

    # insertion() and the identity table read the one closed form
    monkeypatch.setitem(theorems._RESIDUALS, "11211", off_by_one)
    with pytest.raises(AssertionError, match="residual identity violated"):
        insertion("11211", Fraction(1, 3), Fraction(1, 4), Fraction(5, 12))
    # the CLI reports it as it does a broken auxiliary identity
    code, out, err = run(capsys, "verify", "identities", "--samples", "1")
    assert (code, err) == (1, "")
    assert re.fullmatch(r"FAIL identity 11211 at x=\d+/\d+ y=\d+/\d+\n", out)


@pytest.mark.parametrize("ident", list(theorems._IDENTITIES))
def test_verify_identities_fails_on_any_broken_closed_form(capsys, monkeypatch, ident):
    exact = theorems._IDENTITIES[ident]

    def off_by_one(a, b, c, d):  # the closed form plus 1
        lhs, (n, m) = exact(a, b, c, d)
        return lhs, (n + m, m)

    monkeypatch.setitem(theorems._IDENTITIES, ident, off_by_one)
    code, out, err = run(capsys, "verify", "identities", "--samples", "300", "--seed", "1")
    assert (code, err) == (1, "")
    assert re.fullmatch(rf"FAIL identity {ident} at x=\d+/\d+ y=\d+/\d+\n", out)


def test_verify_family(capsys):
    code, out, _ = run(capsys, "verify", "family", "--l-max", "3")
    assert code == 0
    assert out.count("PASS") == 7  # 3 fixed triples + l = 0..3


def test_verify_family_pins_its_lines(capsys):
    code, out, err = run(capsys, "verify", "family", "--l-max", "120")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "PASS B22 [3,3,per(1,2)], [3,3,per(1,2)], [2,1,per(1,2)]",
        "PASS B22 [3,1,per(1,2)], [3,1,per(1,2)], [2,3,per(1,2)]",
        "PASS B22 [3,1,per(1,2)], [3,3,per(1,2)], [2,2,2,per(2,1)]",
        *(f"PASS scalene l={ell}" for ell in range(121)),
    ]


# (template, part, position) for every head, block and suffix digit of the
# scalene templates; part 1 is the block, repeated l times
_TEMPLATE_DIGITS = [
    (i, part, pos)
    for i, template in enumerate(theorems._SCALENE)
    for part in range(3)
    for pos in range(len(template[part]))
]


@pytest.mark.parametrize("i, part, pos", _TEMPLATE_DIGITS)
def test_a_wrong_scalene_template_prints_fail_lines(capsys, monkeypatch, i, part, pos):
    templates = [list(t) for t in theorems._SCALENE]
    digits = list(templates[i][part])
    digits[pos] = digits[pos] % 3 + 1  # 1 -> 2 -> 3 -> 1: the digits stay in B_2
    templates[i][part] = tuple(digits)
    monkeypatch.setattr(theorems, "_SCALENE", tuple(map(tuple, templates)))
    code, out, err = run(capsys, "verify", "family", "--l-max", "3")
    assert code == 1 and err == ""
    # a changed block digit is absent from the l = 0 words
    first_fail = 1 if part == 1 else 0
    assert out.splitlines()[3:] == [
        f"{'PASS' if ell < first_fail else 'FAIL'} scalene l={ell}" for ell in range(4)
    ]


def test_scalene_values_from_two_fields_print_fail_lines(capsys, monkeypatch):
    # z's tail [per(2)] lies in Q(sqrt 2), x's and y's [per(1,2)] in Q(sqrt 3)
    x, y, (head, block, suffix, _) = theorems._SCALENE
    monkeypatch.setattr(theorems, "_SCALENE", (x, y, (head, block, suffix, (2,))))
    code, out, err = run(capsys, "verify", "family", "--l-max", "1")
    assert code == 1 and err == ""
    assert out.splitlines()[3:] == ["FAIL scalene l=0", "FAIL scalene l=1"]


def _verify_main_on(capsys, triples):
    """cmd_verify_main on parsed `verify main` args carrying these triples;
    the parser is cached, so its defaults cannot be patched."""
    args = _build_parser().parse_args(["verify", "main"])
    args.triples = triples
    code = cmd_verify_main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_main_fails_values_from_two_fields(capsys):
    # [3,per(2)] lies in Q(sqrt 2), [per(2,1)] and [per(1,2)] in Q(sqrt 3)
    mixed = theorems.SolutionTriple(
        PeriodicCF((3,), (2,)), PeriodicCF((), (2, 1)), PeriodicCF((), (1, 2)))
    assert not theorems.check_sum(mixed, "sum_is_one")
    code, out, err = _verify_main_on(capsys, (mixed,))
    assert code == 1 and err == ""
    assert out == ("FAIL sum=1 exact=False roundtrip=True class_B2=True  "
                   "[3,per(2)], [per(2,1)], [per(1,2)]\n")


def test_verify_main_prints_the_digit_class_alone(capsys):
    # all three words are in B_2, though the sum is not 1
    word = PeriodicCF((3,), (2,))
    code, out, err = _verify_main_on(capsys, (theorems.SolutionTriple(word, word, word),))
    assert code == 1 and err == ""
    assert out == ("FAIL sum=1 exact=False roundtrip=True class_B2=True  "
                   "[3,per(2)], [3,per(2)], [3,per(2)]\n")


def test_verify_main_names_a_triple_out_of_order(capsys):
    t = theorems.MAIN_SOLUTIONS[0]
    code, out, _ = _verify_main_on(capsys, (theorems.SolutionTriple(t.z, t.y, t.x),))
    assert code == 1
    assert out.startswith("FAIL sum=1 exact=True ordered=False roundtrip=True class_B2=True ")


def test_verify_search(capsys):
    code, out, _ = run(capsys, "verify", "search", "--depth", "6")
    assert code == 0
    assert "stray survivors: 0" in out


def test_cf_eval(capsys):
    code, out, _ = run(capsys, "cf", "eval", "[3,per(1,2)]")
    assert code == 0
    assert "2-sqrt(3)" in out
    assert "0.26794919" in out


def test_cf_eval_malformed(capsys):
    for word in ("[3,,]", "[2,,3,inf]", "[per()]", "[(2,)^3,inf]"):
        code, _, err = run(capsys, "cf", "eval", word)
        assert code == 2
        assert err == f"error: {word!r} has an empty entry\n"


def test_cf_expand(capsys):
    code, out, _ = run(capsys, "cf", "expand", "5/7")
    assert code == 0
    assert "[1, 2, 2]" in out and "terminated: True" in out
    code, out, _ = run(capsys, "cf", "expand", "0.4142135623730951")
    assert code == 0
    assert out.startswith("digits: [2, 2, 2, 2, 2")


@pytest.mark.parametrize("spelled, plain", [
    ("3.14159e-1", "0.314159"),
    ("31.4159E-2", "0.314159"),
    ("314159e-6", "0.314159"),
    ("5E-1", "0.5"),
    ("4.142135623730951e-1", "0.4142135623730951"),
])
def test_cf_expand_reads_the_error_from_the_exponent(capsys, spelled, plain):
    # one unit in the last place of the decimal itself, not of its mantissa
    expected = run(capsys, "cf", "expand", plain)
    assert expected[0] == 0
    assert run(capsys, "cf", "expand", spelled) == expected


@pytest.mark.parametrize("argv, name", [
    (["0.5", "--err", "-1"], "err"),
    (["5/7", "--err=-1/3"], "err"),
    (["0.5", "--terms", "-1"], "terms"),
    (["0.5", "--terms", "0"], "terms"),
])
def test_cf_expand_names_a_bad_bound(capsys, argv, name):
    # a sign error is the argument's fault, not the input's precision
    code, out, err = run(capsys, "cf", "expand", *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {name} must be") and "precision" not in err


@pytest.mark.parametrize("argv", [
    ["1/0"], ["0/0"], ["0.5", "--err", "1/0"],
])
def test_cf_expand_rejects_zero_denominator(capsys, argv):
    code, _, err = run(capsys, "cf", "expand", *argv)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv, text", [
    (["3e-3000000"], "3e-3000000"),
    (["0.5", "--err", "1e-3000000"], "1e-3000000"),
    # one digit too many; the exponent alone is within the bound
    (["1" * (MAX_DECIMAL_DIGITS + 1) + f"e-{MAX_DECIMAL_DIGITS}"], "1111111111"),
    # exponents past the decimal module's own range, which it refuses itself
    (["1e-9999999999999999999"], "1e-9999999999999999999"),
    (["0.5", "--err", "1e9999999999999999999"], "1e9999999999999999999"),
])
def test_cf_expand_bounds_a_decimal_before_reading_it(capsys, argv, text):
    # 10**3000000 alone took seconds to build before the bound was checked
    start = time.perf_counter()
    code, out, err = run(capsys, "cf", "expand", *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith(f"error: '{text}") and f"bound of {MAX_DECIMAL_DIGITS}" in err


@pytest.mark.parametrize("argv", [["nan"], ["inf"], ["Infinity"], ["0.5", "--err", "nan"]])
def test_cf_expand_refuses_non_finite_text(capsys, argv):
    code, out, err = run(capsys, "cf", "expand", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "not a finite number" in err


def test_cf_expand_reads_back_a_long_decimal(capsys):
    # to_decimal truncates, so the text is within one unit of its last place
    text = (sqrt2() - 1).to_decimal(5000)
    code, out, err = run(capsys, "cf", "expand", text, "--terms", "6000")
    assert code == 0 and err == ""
    digits = json.loads(out.splitlines()[0].removeprefix("digits: "))
    assert len(digits) > 6000 // 2 and set(digits) == {2}


def test_cf_expand_names_a_long_integer(capsys):
    code, out, err = run(capsys, "cf", "expand", "1/" + "7" * 5000)
    assert code == 2 and out == ""
    assert "token 7777777777... has 5000 characters, past Python's limit" in err


@pytest.mark.parametrize("argv", [
    ["tables", "--n-max", "-1"],
    ["identities", "--samples", "-1"],
    ["identities", "--samples", "0"],
    ["family", "--l-max", "-1"],
    ["search", "--depth", "-3"],
    ["tables", "--n-max", "2", "--depth", "-1"],
    ["tables", "--n-max", "2", "--depth", "0"],
    ["family", "--l-max", "1001"],  # past the cap; 2000 takes ~0.7 s
])
def test_verify_refuses_empty_runs(capsys, argv):
    # each would otherwise check nothing, or run away, and report a pass
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert err.startswith("error:") and "PASS" not in out


@pytest.mark.parametrize("flag", [["--epsilon", "0.1"], ["--start", "2"]])
def test_tile_stationary_refuses_epsilon_rule_flags(capsys, flag):
    code, out, err = run(capsys, "tile", "--preset", "optimal1", "--stationary", "2", *flag)
    assert code == 2
    assert err.startswith("error:") and out == ""


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_tile_exits_1_when_the_stationary_levels_do_not_nest(tmp_path, capsys, monkeypatch,
                                                              to_file):
    argv = ["tile", "--preset", "optimal1", "--stationary", "2"]
    if to_file:
        argv += ["--out", str(tmp_path / "seq.json")]
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr("badtri.gifs.stationary_nesting_ok", lambda patches: False)
    code, out, err = run(capsys, *argv)
    assert code == 1
    if to_file:
        assert out == f"stationary sequence P_0..P_2: 39 tiles, nesting=BROKEN -> {argv[-1]}\n"
        assert err == ""
    else:
        assert len(json.loads(out)) == 3  # stdout is the JSON alone
        assert err.startswith("nesting=BROKEN:")


def test_tile_and_analyze(tmp_path, capsys):
    patch_file = tmp_path / "p.json"
    code, out, _ = run(capsys, "tile", "--preset", "optimal1",
                       "--epsilon", "0.08", "--out", str(patch_file))
    assert code == 0 and patch_file.exists()
    doc = json.loads(patch_file.read_text())
    assert len(doc["tiles"]) == len(doc["points"]) > 1 / 0.08

    code, out, _ = run(capsys, "analyze", "delone", "--in", str(patch_file))
    assert code == 0
    rep = json.loads(out)
    assert rep["r_certified"] and rep["R_certified"]

    code, out, _ = run(capsys, "analyze", "discrepancy", "--in", str(patch_file))
    assert code == 0
    assert json.loads(out)["N"] == len(doc["tiles"])


@pytest.mark.parametrize("what", ["discrepancy", "delone"])
def test_analyze_wraps_a_rotation_just_below_zero(tmp_path, capsys, what):
    # -1e-17 mod 2*pi rounds to exactly 2*pi; as an angle it is 0.  The
    # system builds neither edited file, so analyze delone certifies no R
    # for either, and exits 1
    patch_file = tmp_path / "p.json"
    run(capsys, "tile", "--preset", "optimal1", "--epsilon", "0.1", "--out", str(patch_file))
    doc = json.loads(patch_file.read_text())
    outs = []
    for rotation in (-1e-17, 0.0):
        doc["tiles"][0]["rotation"] = rotation
        patch_file.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", what, "--in", str(patch_file))
        assert code == (1 if what == "delone" else 0) and err == ""
        outs.append(out)
    assert outs[0] == outs[1]
    if what == "delone":
        assert json.loads(outs[0])["R_reason"] == "not a patch this system builds"


@pytest.mark.parametrize("preset, start, digest", [
    ("optimal1", "1", "4e8fa7f5bcdfe65a00f64bb69aed35d437abeedc3f12637fdd9c0acfbf906654"),
    ("optimal1", "2", "226f9caf6653da491665a7f430bd61a8f1db5171d0969ec2c319f96c6828213d"),
    ("optimal2", "1", "0aaca0363e31ca6508934b4095a1111034d0ae1df56a8cadb08b41eabba43827"),
    ("optimal2", "2", "b58b65dabc30d8ac184847c8166e2fbb25da3d2f825bd4dbd70ef10eb5f3630d"),
])
def test_analyze_delone_output_bytes(tmp_path, capsys, preset, start, digest):
    # the bench's four files: every verdict, radius and cut distance, byte for byte
    patch_file = tmp_path / "p.json"
    run(capsys, "tile", "--preset", preset, "--start", start, "--epsilon", "0.003",
        "--out", str(patch_file))
    code, out, _ = run(capsys, "analyze", "delone", "--in", str(patch_file))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("shift", [1e8, 1e15])
def test_analyze_delone_does_not_certify_a_far_translated_patch(tmp_path, capsys, shift):
    # every tile moved by `shift` in x: not a patch the system builds
    patch_file = tmp_path / "p.json"
    run(capsys, "tile", "--preset", "optimal1", "--epsilon", "0.003", "--out", str(patch_file))
    doc = json.loads(patch_file.read_text())
    for tile in doc["tiles"]:
        tile["translation"][0] += shift
    patch_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "analyze", "delone", "--in", str(patch_file))
    assert (code, err) == (1, "")
    assert json.loads(out)["R_reason"] == "not a patch this system builds"


def test_analyze_delone_does_not_certify_a_patch_whose_hull_qhull_refuses(tmp_path, capsys):
    # tile 4 moved to [1e150, 0], within MAX_COORDINATE, or one tile of
    # scale 1e-300: each file is a valid patch, which qhull cannot take the
    # hull of and the system does not build, so R is not certified
    patch_file = tmp_path / "p.json"
    run(capsys, "tile", "--preset", "optimal1", "--epsilon", "0.04", "--out", str(patch_file))
    doc = json.loads(patch_file.read_text())
    far = json.loads(json.dumps(doc))
    far["tiles"][4]["translation"] = [1e150, 0]
    tiny = dict(doc, tiles=[dict(doc["tiles"][0], scale=1e-300)])
    for bad in (far, tiny):
        patch_file.write_text(json.dumps(bad))
        code, out, err = run(capsys, "analyze", "delone", "--in", str(patch_file))
        assert (code, err) == (1, "")
        assert json.loads(out)["R_reason"] == "not a patch this system builds"
        # the other readers of a patch file accept it
        assert run(capsys, "analyze", "discrepancy", "--in", str(patch_file))[0] == 0


def test_tile_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "tile", "--preset", "optimal2", "--epsilon", "0.1", "--out", str(a))
    run(capsys, "tile", "--preset", "optimal2", "--epsilon", "0.1", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_tile_argument_errors(capsys):
    code, _, err = run(capsys, "tile", "--epsilon", "0.1")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "tile", "--preset", "optimal1",
                       "--angles", "1,1,1.14", "--epsilon", "0.1")
    assert code == 2
    code, _, err = run(capsys, "tile", "--angles", "1,1,1", "--epsilon", "0.1")
    assert code == 2  # angles don't sum to pi
    code, _, err = run(capsys, "tile", "--preset", "optimal1")
    assert code == 2  # epsilon missing


@pytest.mark.parametrize("text", ["a,b,c", "1,1", "1,1,1,0.14", "1,1,x"])
def test_tile_names_angles_it_cannot_read(capsys, text):
    code, out, err = run(capsys, "tile", "--angles", text, "--epsilon", "0.1")
    assert (code, out) == (2, "")
    assert err == f"error: --angles needs three comma-separated radians, got {text!r}\n"


@pytest.mark.parametrize("angles, message", [
    # t = sin(alpha)/sin(beta) squares to 0, so t*(s*t + u) is 0
    ("1e-300,2.5,0.6415926535897931", "t*(s*t + u) underflows to 0"),
    ("5e-324,2.5,0.6415926535897931", "t*(s*t + u) underflows to 0"),
    # t is about 1e100, so (1 + t*t)**2 is past the float range
    ("1.6,1e-100,1.5415926535897931", "(1 + t*t)**2 overflows"),
    # two tiny angles: the prototiles' sine product is 0
    ("2.225934649730733e-254,3.141592653589793,5.767086715119677e-296",
     "sin(alpha)*sin(beta)*sin(gamma) underflows to 0"),
    # the sine product is subnormal, so the scalene tile's size is inf
    ("4.3950305706737876e-167,3.141592653589793,1.935939163271626e-133",
     "prototile vertices are not finite"),
])
@pytest.mark.filterwarnings("error")  # as under python -W error: a numpy warning fails
def test_tile_and_analyze_refuse_angles_whose_constants_leave_the_float_range(
        tmp_path, capsys, angles, message):
    code, out, err = run(capsys, "tile", "--angles", angles, "--stationary", "0")
    assert (code, out) == (2, "")
    assert err == f"error: degenerate angles: {message}\n"
    # a patch file with these angles fails the same way when it is read
    patch_file = tmp_path / "p.json"
    run(capsys, "tile", "--preset", "optimal1", "--epsilon", "0.2", "--out", str(patch_file))
    doc = json.loads(patch_file.read_text())
    patch_file.write_text(json.dumps(dict(doc, angles=list(map(float, angles.split(","))))))
    for what in ("delone", "discrepancy"):
        code, out, err = run(capsys, "analyze", what, "--in", str(patch_file))
        assert (code, out) == (2, "")
        assert err == f"error: degenerate angles: {message}\n"


def test_tile_rejects_runaway_epsilon(capsys):
    # 1/(a_min * epsilon) is about 6e9 tiles, far above the cap
    code, _, err = run(capsys, "tile", "--preset", "optimal1", "--epsilon", "1e-9")
    assert code == 2 and "error:" in err


def test_tile_custom_angles(tmp_path, capsys):
    out_file = tmp_path / "c.json"
    code, _, _ = run(capsys, "tile", "--angles", "0.9,1.2,1.0415926535897932",
                     "--epsilon", "0.15", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert abs(sum(doc["angles"]) - 3.141592653589793) < 1e-12


def test_export_counts_and_roundtrip(tmp_path, capsys):
    patch_file = tmp_path / "p.json"
    run(capsys, "tile", "--preset", "optimal1", "--epsilon", "0.04",
        "--out", str(patch_file))
    svg, csv, js = tmp_path / "p.svg", tmp_path / "p.csv", tmp_path / "p2.json"
    code, _, _ = run(capsys, "export", "--in", str(patch_file),
                     "--svg", str(svg), "--csv", str(csv), "--json", str(js))
    assert code == 0
    doc = json.loads(patch_file.read_text())
    svg_text = svg.read_text()
    assert svg_text.count("<path") == len(doc["tiles"])
    assert svg_text.count("<circle") == len(doc["points"])
    assert "viewBox=" in svg_text and 'fill:none' in svg_text
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 1 + len(doc["points"])
    x0 = float(lines[1].split(",")[0])
    assert x0 == doc["points"][0][0]  # 17 significant digits round-trip
    assert js.read_bytes() == patch_file.read_bytes()


def test_export_refuses_before_writing(tmp_path, capsys):
    seq_file = tmp_path / "s.json"
    run(capsys, "tile", "--preset", "optimal1", "--stationary", "1", "--out", str(seq_file))
    out_json = tmp_path / "out.json"
    code, out, err = run(capsys, "export", "--in", str(seq_file), "--json", str(out_json),
                         "--csv", str(tmp_path / "pts.csv"))
    assert code == 2 and out == ""
    assert err == "error: csv export takes a single-patch file\n"
    assert not out_json.exists() and not (tmp_path / "pts.csv").exists()


def test_export_stationary_highlights(tmp_path, capsys):
    seq_file = tmp_path / "s.json"
    code, out, _ = run(capsys, "tile", "--preset", "optimal1",
                       "--stationary", "2", "--out", str(seq_file))
    assert code == 0 and "nesting=ok" in out
    docs = json.loads(seq_file.read_text())
    assert len(docs) == 3 and len(docs[0]["tiles"]) == 1
    code, _, _ = run(capsys, "export", "--in", str(seq_file),
                     "--svg", str(tmp_path / "s.svg"))
    assert code == 0
    step1 = (tmp_path / "s-1.svg").read_text()
    step2 = (tmp_path / "s-2.svg").read_text()
    # each step highlights exactly the previous patch's tiles
    assert step1.count("tile prev") == len(docs[0]["tiles"])
    assert step2.count("tile prev") == len(docs[1]["tiles"])


def test_export_svg_sequence_into_dotted_directory(tmp_path, capsys):
    # the -k suffix goes before the file's extension, not a directory's dot
    seq_file = tmp_path / "s.json"
    run(capsys, "tile", "--preset", "optimal1", "--stationary", "1", "--out", str(seq_file))
    out_dir = tmp_path / "run.1"
    out_dir.mkdir()
    code, _, err = run(capsys, "export", "--in", str(seq_file), "--svg", str(out_dir / "seq"))
    assert code == 0, err
    assert sorted(p.name for p in out_dir.iterdir()) == ["seq-0.svg", "seq-1.svg"]


def _svg_oracle(patch, prev_patch=None):
    """export_svg as one f-string per line, the reference for its text."""
    import numpy as np

    polys, pts = patch.vertices, patch.points
    allv = np.concatenate([polys.reshape(-1, 2), pts])
    x0, y0 = allv.min(axis=0)
    x1, y1 = allv.max(axis=0)
    mx, my = 0.02 * (x1 - x0), 0.02 * (y1 - y0)
    x0, y0, x1, y1 = x0 - mx, y0 - my, x1 + mx, y1 + my
    span = max(x1 - x0, y1 - y0)
    stroke = 0.003 * span
    radius = 0.008 * span
    if prev_patch is None:
        in_prev = [False] * len(patch.tiles)
    else:
        in_prev = kd_recurs_in(patch, prev_patch)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0} {y0} {x1 - x0} {y1 - y0}">',
        f"<style>.tile{{fill:none;stroke:#000;stroke-width:{stroke}}}"
        f".prev{{stroke:#b00020;stroke-width:{2 * stroke}}}"
        f".pt{{fill:#1a1a1a}}</style>",
    ]
    lines += [
        f'<path class="{"tile prev" if prev else "tile"}" d="M{a} {b} L{c} {d} L{e} {f} Z"/>'
        for ((a, b), (c, d), (e, f)), prev in zip(polys.tolist(), in_prev)
    ]
    lines += [f'<circle class="pt" cx="{x}" cy="{y}" r="{radius}"/>' for x, y in pts.tolist()]
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def test_export_svg_matches_the_f_string_writer():
    import dataclasses

    import numpy as np

    from badtri.gifs import build_gifs, stationary_sequence

    seq = stationary_sequence(build_gifs(PRESETS["optimal1"]), 3)
    for k, patch in enumerate(seq):
        prev = seq[k - 1] if k else None
        assert export_svg(patch, prev_patch=prev) == _svg_oracle(patch, prev)
    # a reflected tile at rotation 0 and tx = -0.0 puts a vertex at x = -0.0,
    # an unreflected one at tx = 0.0 one at x = 0.0
    tiles = seq[2].tiles.copy()
    tiles[["rotation", "tx", "ty"]][:2] = 0.0
    tiles["reflect"][:2] = True, False
    tiles["tx"][0] = -0.0
    mixed = dataclasses.replace(seq[2], tiles=tiles)
    x = mixed.vertices[..., 0]
    assert set(np.signbit(x[x == 0]).tolist()) == {False, True}
    for prev in (None, seq[1]):
        assert export_svg(mixed, prev_patch=prev) == _svg_oracle(mixed, prev)


@pytest.mark.parametrize("name", ["optimal1", "equilateral"])
def test_export_svg_of_a_reversed_list_matches_the_f_string_writer(name):
    from badtri.gifs import build_gifs, stationary_sequence

    # each patch then follows a larger one, and every one of its tiles is marked
    seq = stationary_sequence(build_gifs(PRESETS[name]), 4)[::-1]
    for k, patch in enumerate(seq[1:]):
        svg = export_svg(patch, prev_patch=seq[k])
        assert svg == _svg_oracle(patch, seq[k])
        assert svg.count("tile prev") == len(patch.tiles)


def test_one_text_table_serves_both_writers():
    import dataclasses

    import numpy as np

    from badtri.gifs import build_gifs, stationary_sequence

    seq = stationary_sequence(build_gifs(PRESETS["optimal1"]), 2)
    # tiles 0 and 1 put a vertex at x = -0.0 and at x = 0.0 (see above)
    tiles = seq[2].tiles.copy()
    tiles[["rotation", "tx", "ty"]][:2] = 0.0
    tiles["reflect"][:2] = True, False
    tiles["tx"][0] = -0.0
    edge = dataclasses.replace(seq[2], tiles=tiles)
    for col in (edge.tiles["tx"], edge.vertices[..., 0]):
        assert set(np.signbit(col[col == 0]).tolist()) == {False, True}
    compact = dict(separators=(",", ":"))
    # one call for one patch, and for a list with the edge patch between two
    texts = patch_texts(edge, ("json", "svg", "csv"))
    assert texts["json"] == json.dumps(patch_doc(edge), **compact)
    assert list(texts["svg"]) == [_svg_oracle(edge)]
    header, *rows = texts["csv"].splitlines()
    assert header == "x,y" and [list(map(float, r.split(","))) for r in rows] == edge.points.tolist()
    patches = [seq[1], edge, seq[0]]
    texts = patch_texts(patches, ("svg", "json"))
    assert texts["json"] == json.dumps([patch_doc(p) for p in patches], **compact)
    assert list(texts["svg"]) == [_svg_oracle(p, prev) for p, prev in zip(patches, [None, *patches])]
    with pytest.raises(ValueError, match="csv export takes a single-patch file"):
        patch_texts(patches, ("csv",))
    # vertices that would overflow to inf (tile 2), or be nan (tile 3), make
    # no patch, so neither writer meets them
    for tile, fields, value in ((2, ["scale", "tx"], 1e308), (3, ["ty"], np.nan)):
        bad = edge.tiles.copy()
        bad[fields][tile] = value
        with pytest.raises(ValueError, match=re.escape(
                f"tile {tile} overflows: its placed vertices and centroid must be finite and "
                "within +-1e+150")):
            dataclasses.replace(edge, tiles=bad)


def _stationary_file(tmp_path, capsys, preset):
    seq = tmp_path / "seq.json"
    code, _, err = run(capsys, "tile", "--preset", preset, "--stationary", "5", "--out", str(seq))
    assert code == 0, err
    return seq


@pytest.mark.parametrize("outputs, columns, count", [
    (["--svg", "s.svg", "--json", "s.json"], ("scale", "rotation", "tx", "ty", "points",
                                              "vertices"), 19603),
    (["--json", "s.json"], ("scale", "rotation", "tx", "ty", "points"), None),
    (["--svg", "s.svg"], ("points", "vertices"), None),
], ids=["svg+json", "json", "svg"])
def test_export_formats_each_distinct_float_once(tmp_path, capsys, monkeypatch, outputs,
                                                 columns, count):
    import builtins

    import numpy as np

    import badtri.gifs as gifs
    from badtri.gifs import read_patch_file

    seq = _stationary_file(tmp_path, capsys, "optimal1")
    formatted = []

    def counting_repr(value):
        if isinstance(value, float):
            formatted.append(value)
        return builtins.repr(value)

    monkeypatch.setattr(gifs, "repr", counting_repr, raising=False)
    argv = [str(tmp_path / a) if "." in a else a for a in outputs]
    code, _, err = run(capsys, "export", "--in", str(seq), *argv)
    assert code == 0, err
    monkeypatch.undo()
    patches, _ = read_patch_file(str(seq))
    written = np.concatenate([
        np.ravel(getattr(p, c) if c in ("points", "vertices") else p.tiles[c])
        for p in patches for c in columns])
    assert len(formatted) == len(np.unique(written.view(np.int64)))
    if count is not None:
        assert len(formatted) == count


@pytest.mark.parametrize("preset, digest", [
    ("optimal1", "ae94e6452d6ad344df645b7964e2e5907582acf92072a232925094eb422eeae8"),
    ("optimal2", "cb52835c94a160da77632a52e158cb470361e0bb2a7be70aedf071a6b8a1ac09"),
])
def test_export_output_bytes(tmp_path, capsys, preset, digest):
    seq = _stationary_file(tmp_path, capsys, preset)
    code, out, err = run(capsys, "export", "--in", str(seq), "--svg", str(tmp_path / "seq.svg"),
                         "--json", str(tmp_path / "seq2.json"))
    assert code == 0, err
    files = ["seq2.json"] + [f"seq-{k}.svg" for k in range(6)]
    assert out == "".join(f"{f.rsplit('.')[-1]} -> {tmp_path / f}\n" for f in files)
    # the JSON file, then the six SVG files, as one byte string
    data = b"".join((tmp_path / f).read_bytes() for f in files)
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["--preset", "equilateral", "--stationary", "6"],
     "0ed7a10775223618f4b1bb37342e746d7bc1150e460a0308a96f7857bfbf6e9d"),
    (["--angles", "0.8,1.1,1.2415926535897931", "--stationary", "4"],
     "a6f37ee343be3d39b471ba2924e310bd7b70f2dd65e12644d3e5d9921acd7b32"),
], ids=["equilateral", "angles"])
def test_tile_stationary_file_bytes(tmp_path, capsys, argv, digest):
    # systems beside the optimal presets: the patch file tile writes
    seq = tmp_path / "seq.json"
    code, out, err = run(capsys, "tile", *argv, "--out", str(seq))
    assert code == 0 and "nesting=ok" in out, err
    assert hashlib.sha256(seq.read_bytes()).hexdigest() == digest


def test_preset_names_match_gifs(capsys):
    parser = _build_parser()
    for name in PRESETS:
        assert parser.parse_args(["tile", "--preset", name]).preset == name
    with pytest.raises(SystemExit):
        parser.parse_args(["tile", "--preset", "optimal3"])
    err = capsys.readouterr().err
    assert all(name in err for name in PRESETS)


def test_export_draws_each_patch_with_its_own_system(tmp_path, capsys):
    docs = []
    for name in ("optimal1", "optimal2"):
        f = tmp_path / f"{name}.json"
        code, _, _ = run(capsys, "tile", "--preset", name, "--epsilon", "0.2",
                         "--out", str(f))
        assert code == 0
        docs.append(json.loads(f.read_text()))
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps(docs))
    code, _, _ = run(capsys, "export", "--in", str(mixed), "--svg", str(tmp_path / "m.svg"),
                     "--json", str(tmp_path / "m.json"))
    assert code == 0
    code, _, _ = run(capsys, "export", "--in", str(tmp_path / "optimal2.json"),
                     "--svg", str(tmp_path / "o2.svg"))
    assert code == 0

    def shapes(path):
        text = path.read_text()
        return re.findall(r' d="[^"]*"', text), re.findall(r"<circle [^>]*>", text)

    assert shapes(tmp_path / "m-1.svg") == shapes(tmp_path / "o2.svg")
    assert json.loads((tmp_path / "m.json").read_text())[1]["points"] == docs[1]["points"]


def test_successive_calls_share_no_option_values(tmp_path, capsys):
    import badtri.cli as cli

    assert cli._build_parser() is cli._build_parser()
    _, five, _ = run(capsys, "verify", "tables", "--n-max", "5")
    code, default, _ = run(capsys, "verify", "tables")
    assert code == 0 and " n=5 " in five and " n=6 " not in five
    assert " n=20 " in default and " n=21 " not in default

    def tile(name, *argv):
        code, out, err = run(capsys, "tile", "--preset", "optimal1", *argv,
                             "--out", str(tmp_path / name))
        assert code == 0, err
        return out, (tmp_path / name).read_text()

    two = tile("two.json", "--epsilon", "0.2", "--start", "2")[1]
    assert tile("seq.json", "--stationary", "1")[0].startswith("stationary sequence P_0..P_1")
    # --start falls back to its default, prototile 1
    one = tile("one.json", "--epsilon", "0.2")[1]
    assert one == tile("again.json", "--epsilon", "0.2", "--start", "1")[1] != two


def test_no_command_prints_help(capsys):
    code, out, _ = run(capsys)
    assert code == 2
    assert "usage:" in out


def test_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "main", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["cfdist"], ["discrepancy", "--radii", "5,10"]])
def test_analyze_offers_delone_and_discrepancy_only(tmp_path, capsys, argv):
    patch_file = tmp_path / "p.json"
    run(capsys, "tile", "--preset", "optimal1", "--epsilon", "0.2", "--out", str(patch_file))
    with pytest.raises(SystemExit) as exc:
        main(["analyze", *argv, "--in", str(patch_file)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage:")


@pytest.mark.parametrize("doc", [
    {"angles": [1.0, 1.0, 1.1415926535897931], "epsilon": 0.1},  # no tiles
    [{"angles": [1.0, 1.0, 1.1415926535897931], "epsilon": 0.1}],
    5,
    [],
    {"angles": [1.0, 2.1415926535897931], "epsilon": 0.1, "tiles": []},
    {"angles": [1.0, 1.0, 1.1415926535897931], "epsilon": None, "tiles": []},
    {"angles": [1.0, 1.0, 1.1415926535897931], "epsilon": 0.1, "tiles": {}},
    {"angles": [1.0, 1.0, 1.1415926535897931], "epsilon": 0.1, "tiles": [
        {"kind": 3, "scale": 1.0, "rotation": 0.0, "reflect": False,
         "translation": [0.0, 0.0], "depth": 0}]},
    {"angles": [1.0, 1.0, 1.1415926535897931], "epsilon": 0.1, "tiles": [
        {"kind": 1, "scale": 1.0, "rotation": 0.0, "reflect": False,
         "translation": [0.0], "depth": 0}]},
    {"angles": [1.0, 1.0, 1.1415926535897931], "epsilon": 0.1, "tiles": [
        {"kind": 1, "scale": None, "rotation": 0.0, "reflect": False,
         "translation": [0.0, 0.0], "depth": 0}]},
    {"angles": [1.0, 1.0, 1.1415926535897931], "epsilon": 0.1, "tiles": [
        {"kind": 1, "scale": 10**400, "rotation": 0.0, "reflect": False,
         "translation": [0.0, 0.0], "depth": 0}]},  # an int past the float range
    {"angles": [1.0, 1.0, 1.1415926535897931], "epsilon": 0.1, "tiles": [
        {"kind": 1, "scale": 1.0, "rotation": 0.0, "reflect": False,
         "translation": [0.0, 0.0]}]},
    {"angles": [1.0, 1.0, 1.1415926535897931], "epsilon": 0.1, "tiles": [
        {"kind": True, "scale": 1.0, "rotation": 0.0, "reflect": False,
         "translation": [0.0, 0.0], "depth": 0}]},
    {"angles": [1.0, 1.0, 1.1415926535897931], "epsilon": 0.1, "tiles": [
        {"kind": 1.0, "scale": 1.0, "rotation": 0.0, "reflect": False,
         "translation": [0.0, 0.0], "depth": 0}]},
    {"angles": [1.0, 1.0, 1.1415926535897931], "epsilon": 0.1, "tiles": [
        {"kind": 1, "scale": 1.0, "rotation": 0.0, "reflect": False,
         "translation": [0.0, 0.0], "depth": True}]},
    pytest.param(b"", id="not-json"),  # an empty file, as /dev/null reads
])
def test_analyze_rejects_malformed_patch(tmp_path, capsys, doc):
    bad = tmp_path / "f.json"
    if isinstance(doc, bytes):
        bad.write_bytes(doc)
    else:
        bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "analyze", "delone", "--in", str(bad))
    assert code == 2
    assert err.startswith(f"error: {bad} is not JSON: " if isinstance(doc, bytes) else "error:")


@pytest.mark.parametrize("argv", [
    ["analyze", "delone"],
    ["export", "--json", "{tmp}/p.json"],
])
def test_deeply_nested_patch_file_is_rejected(tmp_path, capsys, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 10**5 + "]" * 10**5)
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--in", str(deep)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["analyze", "discrepancy"],
    ["export", "--csv", "{tmp}/p.csv"],
])
def test_empty_patch_is_rejected(tmp_path, capsys, argv):
    empty = tmp_path / "f.json"
    empty.write_text(json.dumps(
        {"angles": [1.0, 1.0, 1.1415926535897931], "epsilon": 0.1, "tiles": []}
    ))
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--in", str(empty)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("what", ["discrepancy", "delone"])
@pytest.mark.parametrize("tile, field, value", [
    (0, "scale", 1e308),  # finite vertices, whose squared distances overflow
    (5, "scale", sys.float_info.max),  # vertices past the float range
    (7, "translation", [0.0, 1e200]),
])
def test_overflowing_tile_is_rejected(tmp_path, capsys, what, tile, field, value):
    # every number in the file is finite, but the tile is placed where the
    # analysis would overflow
    path = tmp_path / "p.json"
    run(capsys, "tile", "--preset", "optimal1", "--epsilon", "0.04", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["tiles"][tile][field] = value
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the test
        code, out, err = run(capsys, "analyze", what, "--in", str(path))
    assert code == 2 and out == ""
    assert err == (f"error: tile {tile} overflows: its placed vertices and centroid must be "
                   "finite and within +-1e+150\n")


@pytest.mark.parametrize("argv", [["analyze", "discrepancy"], ["analyze", "delone"],
                                  ["export", "--json", "{tmp}/out.json"]])
def test_a_bad_tile_in_a_patch_list_names_its_patch(tmp_path, capsys, argv):
    seq = tmp_path / "seq.json"
    run(capsys, "tile", "--preset", "optimal1", "--stationary", "3", "--out", str(seq))
    doc = json.loads(seq.read_text())
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--in", str(seq)]
    for k, patch, message in ((2, dict(doc[2], tiles=doc[2]["tiles"][:3] + [
            dict(doc[2]["tiles"][3], kind=7)]), "tile 3 has kind 7, not 1 or 2"),
            (1, [doc[1]], "patch document must be a JSON object")):
        seq.write_text(json.dumps(doc[:k] + [patch] + doc[k + 1:]))
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: patch {k}: {message}\n")
    # a single-patch file names the tile alone
    seq.write_text(json.dumps(dict(doc[2], tiles=[dict(doc[2]["tiles"][0], kind=7)])))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: tile 0 has kind 7, not 1 or 2\n")
    assert not (tmp_path / "out.json").exists()


def test_one_patch_list_keeps_its_shape(tmp_path, capsys):
    # a file holding a list of one patch is exported and analyzed as a list
    listed, copy, single = tmp_path / "s0.json", tmp_path / "s0b.json", tmp_path / "p.json"
    run(capsys, "tile", "--preset", "optimal1", "--stationary", "0", "--out", str(listed))
    code, _, _ = run(capsys, "export", "--in", str(listed), "--json", str(copy))
    assert code == 0
    assert copy.read_bytes() == listed.read_bytes()
    single.write_text(json.dumps(json.loads(listed.read_text())[0]))
    for what in ("delone", "discrepancy"):
        _, out, _ = run(capsys, "analyze", what, "--in", str(listed))
        _, one, _ = run(capsys, "analyze", what, "--in", str(single))
        assert json.loads(out) == [json.loads(one)]
    # --svg names a list's files by index, whatever its length
    for source, stem in ((listed, "s0"), (single, "p")):
        code, out, _ = run(capsys, "export", "--in", str(source), "--svg", str(tmp_path / stem))
        written = tmp_path / (stem + "-0.svg" if source is listed else stem)
        assert code == 0 and out == f"svg -> {written}\n" and written.is_file()
    assert not (tmp_path / "s0").exists()


@pytest.mark.parametrize("argv", [
    ["tables", "--n-max", "401"],
    ["identities", "--samples", "5001"],
    ["family", "--l-max", "1001"],
])
def test_verify_caps_name_their_cost(capsys, argv):
    # a cap names the option, or the library parameter it sets
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    flag = argv[1]
    name = f"({flag}|{flag[2:].replace('-', '_')})"
    assert re.fullmatch(rf"error: {name} capped at \d+: that run takes ~[\d.]+ s, .*\n", err)


@pytest.mark.parametrize("argv", [
    ["tile", "--preset", "optimal1", "--stationary", "7"],
    ["verify", "tables", "--depth", "61"],
    ["verify", "search", "--depth", "17"],
])
def test_library_caps_name_their_cost(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert re.fullmatch(r"error: [a-z ]+ capped at \d+: .* ~[\d.]+ m?s\b.*, and the .* grows .*\n", err)


def test_tile_stationary_refuses_a_runaway_tile_count(capsys, monkeypatch):
    # P_3 of this triangle alone holds 184,057 tiles: the bound refuses
    # before any subdivision starts
    def subdivide(*args):
        raise AssertionError("subdivision started")

    monkeypatch.setattr("badtri.gifs._subdivide", subdivide)
    code, out, err = run(capsys, "tile", "--angles", "0.2,1.4,1.5415926535897931",
                         "--stationary", "6")
    assert code == 2 and out == ""
    assert re.fullmatch(r"error: n=6 allows up to [\d.e+]+ tiles, above the cap of 1000000\n", err)


def test_tile_stationary_0_is_one_tile_for_any_closing_system(capsys):
    # P_0 is the start tile alone: a tiny a_min does not refuse it
    code, out, err = run(capsys, "tile", "--angles", "0.4534,1.1174176535897928,1.570775",
                         "--stationary", "0")
    assert (code, err) == (0, "")
    (doc,) = json.loads(out)
    assert len(doc["tiles"]) == 1


@pytest.mark.parametrize("word, message", [
    # the exact value's numerator has ~11,400 digits
    ("[(1,2)^20000,inf]", f"more than {sys.get_int_max_str_digits()} digits"),
    ("[(1,2)^50001,inf]", "past 100000 digits"),
    # a digit, period entry or repeat count too long for int() to read
    *(pytest.param(word.replace("N", "7" * 5000), "token 7777777777... has 5000 characters, "
                   f"past Python's limit of {sys.get_int_max_str_digits()} digits", id=word)
      for word in ("[N,inf]", "[per(1,N)]", "[(1)^N,inf]")),
])
def test_cf_eval_of_a_long_word_prints_nothing(capsys, word, message):
    code, out, err = run(capsys, "cf", "eval", word)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err
