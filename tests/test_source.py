"""Checks on the package source itself."""

import ast
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import badtri

PACKAGE = Path(badtri.__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so runtime checks must raise
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in badtri: {found}"


def test_readme_quick_start_runs():
    # the quick start is the one fenced python block; it must run as written
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_commands_parse():
    # every `badtri ...` line of the README's command-line block names a
    # command and flags the parser accepts, so a removed one cannot linger
    from badtri.cli import _build_parser

    readme = (PACKAGE.parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv]
    assert len(commands) >= 15 and all(argv[0] == "badtri" for argv in commands)
    for argv in commands:
        assert hasattr(_build_parser().parse_args(argv[1:]), "func"), argv


def _source_env():
    """The environment with the package's source directory on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("argv, code, first", [
    (["verify", "main"], 0, "PASS sum=1 exact=True"),
    (["verify", "tables", "--n-max", "-1"], 2, "error: n_max must be >= 0"),
])
def test_python_m_badtri_runs_the_cli(tmp_path, argv, code, first):
    # `python -m badtri` needs only the source on the path, no installed script
    done = subprocess.run([sys.executable, "-m", "badtri", *argv], env=_source_env(),
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == code, done.stderr
    assert (done.stdout or done.stderr).startswith(first)


@pytest.mark.parametrize("angles", ["2.17e-15,2.841592653589791,0.3",
                                    "2.17e-15,2.4415926535897907,0.7"])
def test_a_degenerate_triple_fails_closure_without_a_warning(tmp_path, angles):
    # alpha rounds away beside beta; with gamma = 0.7 f1's scale rounds to 1,
    # so the split point on the first edge sits at its end.  Under -W error
    # a warning would turn into a traceback and exit 1
    done = subprocess.run([sys.executable, "-W", "error", "-m", "badtri", "tile",
                           "--angles", angles, "--stationary", "0"], env=_source_env(),
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: GIFS closure validation failed")
    assert "Traceback" not in done.stderr and "Warning" not in done.stderr


CLI_VERIFY_MAIN = """
import runpy
sys.argv = ["badtri", "verify", "main"]
try:
    runpy.run_module("badtri", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    if exc.code:
        raise
"""


@pytest.mark.parametrize("code", ["import badtri.theorems", CLI_VERIFY_MAIN],
                         ids=["import-theorems", "cli-verify-main"])
def test_exact_layer_loads_neither_numpy_nor_scipy(code):
    probe = code + "\nprint(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))"
    env = _source_env()
    done = subprocess.run([sys.executable, "-c", "import sys\n" + probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


GEOMETRY_CLI = """
import sys
from badtri.cli import main
codes = [main(argv) for argv in {commands!r}]
print(codes, sorted({{m.split('.')[0] for m in sys.modules}} & {{'numpy', 'scipy'}}))
"""


@pytest.mark.parametrize("commands", [
    [["tile", "--preset", "optimal1", "--stationary", "2", "--out", "seq.json"],
     ["export", "--in", "seq.json", "--svg", "seq.svg", "--json", "seq2.json"]],
    [["tile", "--preset", "optimal1", "--epsilon", "0.05", "--out", "p.json"],
     ["analyze", "delone", "--in", "p.json"]],
    [["tile", "--preset", "optimal1", "--epsilon", "0.05", "--out", "p.json"],
     ["analyze", "discrepancy", "--in", "p.json"]],
], ids=["tile-stationary-export", "tile-analyze-delone", "tile-analyze-discrepancy"])
def test_no_command_loads_scipy(tmp_path, commands):
    # nested_in matches tiles, gifs measures the orientation discrepancy
    # and delone finds nearest points on grids, all with numpy alone
    done = subprocess.run([sys.executable, "-c", GEOMETRY_CLI.format(commands=commands)],
                          env=_source_env(), cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0] ['numpy']"


def test_no_package_module_imports_scipy():
    # scipy is a test dependency: the oracles' KD-tree and qhull
    imported = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.append((path.name, node.module))
    assert imported
    assert [(name, m) for name, m in imported if m.split(".")[0] == "scipy"] == []


def test_package_exports_each_modules_all():
    # every module but the CLI and `python -m badtri` declares __all__, and
    # the package exports it all
    names = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem not in ("__init__", "__main__", "cli"):
            module = importlib.import_module(f"badtri.{path.stem}")
            names.update((name, getattr(module, name)) for name in module.__all__)
    assert sorted(badtri.__all__) == sorted(names)
    assert all(getattr(badtri, name) is value for name, value in names.items())


def test_package_index_reads_the_geometry_modules():
    # the geometry names come from gifs/delone __all__; others fail, and a
    # private name is refused without importing the geometry layer
    from badtri import delone, gifs

    with pytest.raises(AttributeError):
        badtri.no_such_name
    assert {*gifs.__all__, *delone.__all__} <= set(dir(badtri))
    probe = ("import sys, badtri\nassert not hasattr(badtri, '_no_such_name')\n"
             "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))")
    env = _source_env()
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def _top_level_names(tree):
    """(name, statement) for each function, class and constant a module
    defines at top level, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("__"))


def test_the_package_holds_only_what_it_uses():
    # every top-level name is used somewhere in the package outside its own
    # definition: a reference implementation that only tests compare against
    # lives in tests/oracles.py, and a superseded name is deleted.  An import
    # or an __all__ entry alone is no use
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))]
    uses = [(node, {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                    if isinstance(n, (ast.Name, ast.Attribute))})
            for tree in trees for node in tree.body]
    unused = sorted(name for tree in trees for name, own in _top_level_names(tree)
                    if not any(name in names for node, names in uses if node is not own))
    assert not unused, f"top-level names the package never uses: {unused}"
    # and no package module imports the oracles, or anything else under tests/
    imported = [alias.name for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module for tree in trees for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module]
    tests = {path.stem for path in (PACKAGE.parents[1] / "tests").glob("*.py")}
    from_tests = [m for m in imported if m.split(".")[0] in tests | {"tests"}]
    assert not from_tests, f"package modules import from tests/: {from_tests}"


def test_patch_file_format_has_one_owner():
    # the patch-file writers' private names live in gifs alone, and the CLI
    # reaches gifs only through public names
    private = {"_text_table", "_JSON_COLUMNS", "_SVG_COLUMNS", "_join_rows"}
    named = {path.name for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if private & {getattr(node, field, None) for field in ("id", "attr", "name")}}
    assert named == {"gifs.py"}
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    from_gifs = [alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "gifs"
                 for alias in node.names]
    assert from_gifs and not [name for name in from_gifs if name.startswith("_")]


def test_theorems_reads_only_the_integer_sign_from_quadfield():
    # every theorems verdict is decided by _sum_sign over integer triples,
    # so no QuadRat arithmetic or comparison can take part in one
    source = (PACKAGE / "theorems.py").read_text()
    imports = [(node.module, [alias.name for alias in node.names])
               for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)]
    assert [names for module, names in imports if module == "quadfield"] == [["_sign"]]
    assert "QuadRat" not in source


def test_cap_messages_name_their_cost():
    # every "capped at" error names the measured cost of a run at the cap
    capped = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                text = "".join(c.value for c in ast.walk(node.exc)
                               if isinstance(c, ast.Constant) and isinstance(c.value, str))
                if "capped at" in text:
                    capped[f"{path.name}:{node.lineno}"] = text
    assert len(capped) >= 7
    costless = [where for where, text in capped.items() if not re.search(r"~[\d.]+ m?s\b", text)]
    assert not costless, f"caps that name no cost: {costless}"
