"""End-to-end tests of the command-line surface."""

import json
import re
import sys
import warnings

import pytest

from badtri.cli import PRESET_NAMES, main
from badtri.gifs import PRESETS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_main(capsys):
    code, out, _ = run(capsys, "verify", "main")
    assert code == 0
    assert out.count("PASS") == 2
    assert "[3,per(1,2)]" in out and "[per(2,1)]" in out


def test_verify_main2(capsys):
    code, out, _ = run(capsys, "verify", "main2")
    assert code == 0
    assert out.count("PASS") == 4


def test_verify_tables_small(capsys):
    code, out, _ = run(capsys, "verify", "tables", "--n-max", "2")
    assert code == 0
    assert "ok=True" in out and "FAIL" not in out


def test_verify_identities(capsys):
    code, out, _ = run(capsys, "verify", "identities", "--samples", "10")
    assert code == 0
    assert "PASS 10 samples" in out


def test_verify_family(capsys):
    code, out, _ = run(capsys, "verify", "family", "--l-max", "3")
    assert code == 0
    assert out.count("PASS") == 7  # 3 fixed triples + l = 0..3


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
    code, _, err = run(capsys, "cf", "eval", "[3,,]")
    assert code == 2
    assert "error:" in err


def test_cf_expand(capsys):
    code, out, _ = run(capsys, "cf", "expand", "5/7")
    assert code == 0
    assert "[1, 2, 2]" in out and "terminated: True" in out
    code, out, _ = run(capsys, "cf", "expand", "0.4142135623730951")
    assert code == 0
    assert out.startswith("digits: [2, 2, 2, 2, 2")


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


@pytest.mark.parametrize("argv", [
    ["tables", "--n-max", "-1"],
    ["identities", "--samples", "-1"],
    ["identities", "--samples", "0"],
    ["family", "--l-max", "-1"],
    ["search", "--depth", "-3"],
    ["tables", "--n-max", "2", "--depth", "-1"],
    ["tables", "--n-max", "2", "--depth", "0"],
    ["family", "--l-max", "1001"],  # past the cap; 2000 already takes ~6 s
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

    code, out, _ = run(capsys, "analyze", "cfdist", "--in", str(patch_file))
    assert code == 0
    assert json.loads(out)["ok"]


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


def test_preset_names_match_gifs():
    assert PRESET_NAMES == tuple(sorted(PRESETS))


@pytest.mark.parametrize("what", ["cfdist", "delone"])
@pytest.mark.parametrize("radii", ["nan", "5,inf", "inf"])
def test_analyze_rejects_non_finite_radii(tmp_path, capsys, what, radii):
    patch_file = tmp_path / "p.json"
    run(capsys, "tile", "--preset", "optimal1", "--epsilon", "0.2", "--out", str(patch_file))
    code, out, err = run(capsys, "analyze", what, "--in", str(patch_file), "--radii", radii)
    assert code == 2 and out == ""
    assert err.startswith("error:")


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


def test_no_command_prints_help(capsys):
    code, out, _ = run(capsys)
    assert code == 2
    assert "usage:" in out


def test_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "main", "--bogus"])
    assert exc.value.code == 2


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
])
def test_analyze_rejects_malformed_patch(tmp_path, capsys, doc):
    bad = tmp_path / "f.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "analyze", "delone", "--in", str(bad))
    assert code == 2
    assert err.startswith("error:")


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
    ["analyze", "cfdist"],
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


@pytest.mark.parametrize("what", ["cfdist", "delone"])
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


def test_one_patch_list_keeps_its_shape(tmp_path, capsys):
    # a file holding a list of one patch is exported and analyzed as a list
    listed, copy, single = tmp_path / "s0.json", tmp_path / "s0b.json", tmp_path / "p.json"
    run(capsys, "tile", "--preset", "optimal1", "--stationary", "0", "--out", str(listed))
    code, _, _ = run(capsys, "export", "--in", str(listed), "--json", str(copy))
    assert code == 0
    assert copy.read_bytes() == listed.read_bytes()
    single.write_text(json.dumps(json.loads(listed.read_text())[0]))
    for what in ("delone", "cfdist", "discrepancy"):
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
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert re.fullmatch(r"error: --[a-z-]+ capped at \d+: that run takes ~[\d.]+ s, .*\n", err)


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
