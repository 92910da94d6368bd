"""Command-line interface: verification runs, tiling exports, analysis.

numpy loads only in the tile, analyze and export handlers, so the exact
commands start fast."""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction

from .cf import expand_quadratic, expand_real, format_cf, parse_cf, PeriodicCF
from .theorems import (
    B22_SOLUTIONS,
    MAIN2_SOLUTIONS,
    MAIN_SOLUTIONS,
    PRESET_TRIPLES,
    _IDENTITIES,
    _identity,
    _sum_verdict,
    check_sum,
    scalene_sweep,
    search_triples,
    verify_tables,
)

IDENTITIES_SAMPLES_MAX = 5000  # verify identities --samples cap


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args) or 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@functools.cache  # parse_args writes each call's values to a fresh namespace
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="badtri",
        description="Badly approximable triangle triples, tilings, Delone sets.",
    )
    sub = parser.add_subparsers(dest="command")

    p_cf = sub.add_parser("cf", help="continued-fraction utilities")
    cf_sub = p_cf.add_subparsers(dest="cf_command")
    p_exp = cf_sub.add_parser("expand", help="expand a rational/decimal value")
    p_exp.add_argument("value", help="decimal or p/q text, e.g. 0.318309 or 5/7")
    p_exp.add_argument("--err", default=None,
                       help="input uncertainty; enables digit certification")
    p_exp.add_argument("--terms", type=int, default=64)
    p_exp.set_defaults(func=cmd_cf_expand)
    p_eval = cf_sub.add_parser("eval", help="evaluate CF text exactly")
    p_eval.add_argument("text", help="e.g. [3,per(1,2)] or [2,3,1]")
    p_eval.set_defaults(func=cmd_cf_eval)

    p_ver = sub.add_parser("verify", help="run exact verification suites")
    ver_sub = p_ver.add_subparsers(dest="verify_command")
    ver_sub.add_parser("main", help="the two sum-to-one triples").set_defaults(
        func=cmd_verify_main, triples=MAIN_SOLUTIONS, relation="sum_is_one", label="sum=1"
    )
    ver_sub.add_parser("main2", help="the four x+y=z triples").set_defaults(
        func=cmd_verify_main, triples=MAIN2_SOLUTIONS, relation="x_plus_y_is_z", label="x+y=z"
    )
    p_tab = ver_sub.add_parser("tables", help="case tables and exclusion sweeps")
    p_tab.add_argument("--n-max", type=int, default=20)
    p_tab.add_argument("--depth", type=int, default=30)
    p_tab.set_defaults(func=cmd_verify_tables)
    p_idn = ver_sub.add_parser("identities", help="algebraic identities on random inputs")
    p_idn.add_argument("--samples", type=int, default=100)
    p_idn.add_argument("--seed", type=int, default=42)
    p_idn.set_defaults(func=cmd_verify_identities)
    p_fam = ver_sub.add_parser("family", help="scalene family and small-class triples")
    p_fam.add_argument("--l-max", type=int, default=10)
    p_fam.set_defaults(func=cmd_verify_family)
    p_sea = ver_sub.add_parser("search", help="branch-and-bound completeness run")
    p_sea.add_argument("--depth", type=int, default=12)
    p_sea.add_argument("--relation", choices=["sum_is_one", "x_plus_y_is_z"],
                       default="sum_is_one")
    p_sea.set_defaults(func=cmd_verify_search)

    p_tile = sub.add_parser("tile", help="build a tiling patch")
    p_tile.add_argument("--preset", choices=PRESET_TRIPLES)
    p_tile.add_argument("--angles", help="comma-separated alpha,beta,gamma in radians")
    p_tile.add_argument("--epsilon", type=float)
    p_tile.add_argument("--start", type=int, choices=[1, 2], default=None,
                        help="start prototile of the epsilon rule (default 1)")
    p_tile.add_argument("--stationary", type=int, default=None, metavar="N",
                        help="emit the stationary patch sequence P_0..P_N instead")
    p_tile.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p_tile.set_defaults(func=cmd_tile)

    p_an = sub.add_parser("analyze", help="analyze a patch JSON file")
    p_an.add_argument("what", choices=["delone", "discrepancy"])
    p_an.add_argument("--in", dest="infile", required=True)
    p_an.set_defaults(func=cmd_analyze)

    p_exf = sub.add_parser("export", help="convert a patch JSON file")
    p_exf.add_argument("--in", dest="infile", required=True)
    p_exf.add_argument("--svg", default=None)
    p_exf.add_argument("--json", dest="json_out", default=None)
    p_exf.add_argument("--csv", default=None)
    p_exf.set_defaults(func=cmd_export)
    return parser


# ------------------------------------------------------------------ cf


def cmd_cf_expand(args):
    res = expand_real(args.value, err=args.err, terms=args.terms)
    print("digits:", list(res.digits))
    print("certified:", len(res.digits))
    print("terminated:", res.terminated)
    return 0


def cmd_cf_eval(args):
    cf = parse_cf(args.text)
    val = cf.value()
    try:
        decimal = val.to_decimal(30) if isinstance(cf, PeriodicCF) else f"{float(val):.17g}"
        lines = [f"canonical: {format_cf(cf)}", f"value: {val}", f"decimal: {decimal}"]
    except ValueError:  # str() of an int past Python's digit limit
        raise ValueError(
            f"the exact value has an integer of more than {sys.get_int_max_str_digits()} "
            "digits, Python's limit for converting an int to text"
        ) from None
    print("\n".join(lines))
    return 0


# ------------------------------------------------------------------ verify


def cmd_verify_main(args):
    """Exact relation, ordering, CF round-trip and B_2 class for each triple."""
    failures = 0
    for triple in args.triples:
        exact, ordered, classes = _sum_verdict(triple, args.relation)
        roundtrip = all(expand_quadratic(w.value()) == w for w in (triple.x, triple.y, triple.z))
        ok = exact and ordered and roundtrip and classes
        failures += not ok
        order = "" if ordered or not exact else " ordered=False"
        words = ", ".join(format_cf(w) for w in (triple.x, triple.y, triple.z))
        print(f"{'PASS' if ok else 'FAIL'} {args.label} exact={exact}{order} "
              f"roundtrip={roundtrip} class_B2={classes}  {words}")
    return 1 if failures else 0


def cmd_verify_tables(args):
    report = verify_tables(n_max=args.n_max, exclusion_depth=args.depth)
    for row in report["rows"]:
        lo, hi = row["z_interval"]
        pat = row["pattern"]
        print(f"{'PASS' if row['pass'] else 'FAIL'} case {row['id']} n={row['n']} "
              f"z in [{lo}, {hi}] "
              f"pattern form{pat['form']} k={pat['k']} l={pat['ell']} s={pat['s']}")
    for exc in report["exclusions"]:
        print(f"exclusion {exc['status']}: [{exc['interval'][0]}, {exc['interval'][1]}]")
    s = report["summary"]
    print(f"rows: {s['rows_passed']}/{s['rows_checked']} passed; "
          f"patterns checked: {s['patterns_checked']}; ok={report['ok']}")
    return 0 if report["ok"] else 1


def cmd_verify_identities(args):
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    if args.samples > IDENTITIES_SAMPLES_MAX:
        raise ValueError(f"--samples capped at {IDENTITIES_SAMPLES_MAX}: that run takes "
                         "~0.3 s, and the time grows linearly")
    rng = random.Random(args.seed)
    sample = 0
    while sample < args.samples:
        x = Fraction(rng.randint(1, 40), rng.randint(90, 200))
        y = Fraction(rng.randint(1, 40), rng.randint(90, 200))
        try:
            for ident in _IDENTITIES:
                if not _identity(ident, x, y)[2]:
                    print(f"FAIL identity {ident} at x={x} y={y}")
                    return 1
        except ZeroDivisionError:
            continue  # pole; draw a fresh pair
        sample += 1
    print(f"PASS {sample} samples, {sample * len(_IDENTITIES)} identity instances exact")
    return 0


def cmd_verify_family(args):
    sweep = scalene_sweep(args.l_max)  # refuses a bad l_max before any line prints
    failures = 0
    for triple in B22_SOLUTIONS:
        ok = check_sum(triple, "sum_is_one", j=2)
        failures += not ok
        words = ", ".join(format_cf(w) for w in (triple.x, triple.y, triple.z))
        print(f"{'PASS' if ok else 'FAIL'} B22 {words}")
    for ell, (_, ok) in enumerate(sweep):
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} scalene l={ell}")
    return 1 if failures else 0


def cmd_verify_search(args):
    survivors = search_triples(args.relation, depth=args.depth)
    targets = MAIN_SOLUTIONS if args.relation == "sum_is_one" else MAIN2_SOLUTIONS

    def contains(words, t):
        # an irrational has one expansion: in a word's closed cylinder iff its digits begin with it
        return all(v.digits_prefix(len(w)) == w for w, v in zip(words, (t.x, t.y, t.z)))

    stray = [words for words in survivors if not any(contains(words, t) for t in targets)]
    covered = [any(contains(words, t) for words in survivors) for t in targets]
    print(f"survivors at depth {args.depth}: {len(survivors)}")
    for words in survivors:
        print("  " + " | ".join(",".join(map(str, w)) for w in words))
    ok = not stray and all(covered)
    print(f"stray survivors: {len(stray)}; solutions covered: "
          f"{sum(covered)}/{len(covered)}")
    return 0 if ok else 1


# ------------------------------------------------------------------ tile


def _angles_from_args(args):
    from .gifs import PRESETS, Angles

    if (args.preset is None) == (args.angles is None):
        raise ValueError("give exactly one of --preset or --angles")
    if args.preset:
        return PRESETS[args.preset]
    try:  # a count other than three, or a part that is not a number
        alpha, beta, gamma = map(float, args.angles.split(","))
    except ValueError:
        raise ValueError("--angles needs three comma-separated radians, "
                         f"got {args.angles!r}") from None
    return Angles(alpha, beta, gamma)


def cmd_tile(args):
    from .gifs import (
        build_gifs,
        epsilon_rule,
        patch_to_json,
        stationary_nesting_ok,
        stationary_sequence,
    )

    gifs = build_gifs(_angles_from_args(args))
    if args.stationary is not None:
        if args.epsilon is not None or args.start is not None:
            raise ValueError("--epsilon and --start do not apply with --stationary")
        patches = stationary_sequence(gifs, args.stationary)
        text = patch_to_json(patches)
        n = sum(len(p.tiles) for p in patches)
        nested = stationary_nesting_ok(patches)
        summary = (f"stationary sequence P_0..P_{args.stationary}: {n} tiles, "
                   f"nesting={'ok' if nested else 'BROKEN'}")
    else:
        if args.epsilon is None:
            raise ValueError("--epsilon is required unless --stationary is given")
        patch = epsilon_rule(args.start or 1, args.epsilon, gifs)
        text = patch_to_json(patch)
        summary = f"patch: {len(patch.tiles)} tiles, epsilon={args.epsilon}"
        nested = True
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"{summary} -> {args.out}")
    else:
        print(text)  # stdout stays the JSON alone
        if not nested:
            print("nesting=BROKEN: a tile of some P_(k-1) does not recur in P_k", file=sys.stderr)
    return 0 if nested else 1


# ------------------------------------------------------------------ analyze


def cmd_analyze(args):
    from .gifs import read_patch_file

    patches, listed = read_patch_file(args.infile)
    if args.what == "delone":
        from .delone import analysis_report

        out = [analysis_report(patch) for patch in patches]
    else:
        from .gifs import orientation_discrepancy

        out = [{"N": n, "Dstar": dstar} for n, dstar in map(orientation_discrepancy, patches)]
    print(json.dumps(out if listed else out[0], indent=2))
    if args.what == "delone":
        return 0 if all(r["r_certified"] and r["R_certified"] for r in out) else 1
    return 0


# ------------------------------------------------------------------ export


def cmd_export(args):
    from .gifs import patch_texts, read_patch_file

    patches, listed = read_patch_file(args.infile)
    paths = {"json": args.json_out, "csv": args.csv, "svg": args.svg}
    if not any(paths.values()):
        raise ValueError("choose at least one of --svg/--json/--csv")
    # every request is checked against the file's shape before any write
    texts = patch_texts(patches if listed else patches[0], [f for f in paths if paths[f]])
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(texts["json"] + "\n")
        print(f"json -> {args.json_out}")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(texts["csv"])
        print(f"csv -> {args.csv}")
    if args.svg:
        stem, ext = os.path.splitext(args.svg)
        for k in range(len(patches)):  # one drawing alive at a time
            name = f"{stem}-{k}{ext or '.svg'}" if listed else args.svg
            with open(name, "w") as fh:
                fh.write(next(texts["svg"]))
            print(f"svg -> {name}")
    return 0
