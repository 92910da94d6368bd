"""The benchmark's workloads: badtri CLI command passes and their output checks.

A workload turns a seed into a list of variants.  A variant is one pass:
a list of CLI commands run back to back, each with a check of its
output.  A run cycles through the variants in the seed's order, so every
run measures each variant equally often.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

PRESETS = ("optimal1", "optimal2")
STATIONARY_TILES = [1, 7, 31, 133, 568, 2416]
DELONE_TILES = 778
DELONE_RADII = (5.0, 10.0, 20.0)
CF_TOL = 1e-6  # analysis_report's default tolerance


class CheckError(Exception):
    """A command's output is not what this commit must produce."""


def _expect(cond, message):
    if not cond:
        raise CheckError(message)


@dataclass
class Command:
    """One CLI call: argv with `{tmp}` standing for the run's scratch directory."""

    argv: list
    check: object  # fn(stdout, tmp) -> None, raising CheckError
    outputs: tuple = ()  # files the command writes, for cli.out_bytes

    def resolve(self, tmp):
        return [a.replace("{tmp}", tmp) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    variants: object  # fn(seed) -> list of variants (lists of Command)


# ------------------------------------------------------------------ tables


def _check_tables(out, tmp):
    last = out.strip().splitlines()[-1]
    _expect(last == "rows: 1037/1037 passed; patterns checked: 671; ok=True",
            f"tables summary: {last!r}")


def _check_identities(out, tmp):
    _expect(out.startswith("PASS 300 samples"), f"identities: {out.strip()!r}")


def tables_variants(seed):
    return [[
        Command(["verify", "tables", "--n-max", "60", "--depth", "30"], _check_tables),
        Command(["verify", "identities", "--samples", "300", "--seed", str(seed)],
                _check_identities),
    ]]


# ------------------------------------------------------------------- exact


def _check_search(survivors, covered):
    def check(out, tmp):
        lines = out.strip().splitlines()
        if survivors is not None:
            _expect(lines[0] == f"survivors at depth 16: {survivors}", f"search: {lines[0]!r}")
        _expect(lines[-1] == f"stray survivors: 0; solutions covered: {covered}/{covered}",
                f"search: {lines[-1]!r}")
    return check


def _check_all_pass(count):
    def check(out, tmp):
        lines = out.strip().splitlines()
        _expect(len(lines) == count, f"expected {count} lines, got {len(lines)}")
        bad = [ln for ln in lines if not ln.startswith("PASS ")]
        _expect(not bad, f"failing lines: {bad[:3]!r}")
    return check


def exact_variants(seed):
    cmds = [
        Command(["verify", "search", "--depth", "16", "--relation", "sum_is_one"],
                _check_search(2, 2)),
        Command(["verify", "search", "--depth", "16", "--relation", "x_plus_y_is_z"],
                _check_search(None, 4)),
        Command(["verify", "main"], _check_all_pass(2)),
        Command(["verify", "main2"], _check_all_pass(4)),
        # 3 B22 triples plus scalene l = 0..120
        Command(["verify", "family", "--l-max", "120"], _check_all_pass(3 + 121)),
    ]
    random.Random(seed).shuffle(cmds)
    return [cmds]


# ------------------------------------------------------------------ delone


def _check_tile(out, tmp):
    _expect(out.startswith(f"patch: {DELONE_TILES} tiles, epsilon=0.003 -> "),
            f"tile: {out.strip()!r}")
    with open(os.path.join(tmp, "p.json")) as fh:
        n = len(json.load(fh)["tiles"])
    _expect(n == DELONE_TILES, f"p.json holds {n} tiles")


def _check_delone(out, tmp):
    rep = json.loads(out)
    _expect(rep["r_certified"] is True, "r not certified")
    _expect(rep["R_certified"] is True, "R not certified")
    _expect(rep["discrepancy"]["N"] == DELONE_TILES, f"N = {rep['discrepancy']['N']}")
    dists = rep["cf_distances"]
    _expect(len(dists) == len(DELONE_RADII), f"{len(dists)} Chabauty-Fell distances")
    for d, r in zip(dists, DELONE_RADII):
        _expect(0 <= d <= max(CF_TOL, 1 / r), f"Chabauty-Fell distance {d} at radius {r}")


def delone_variants(seed):
    choices = [(p, s) for p in PRESETS for s in ("1", "2")]
    random.Random(seed).shuffle(choices)
    return [[
        Command(["tile", "--preset", p, "--start", s, "--epsilon", "0.003",
                 "--out", "{tmp}/p.json"], _check_tile, ("p.json",)),
        Command(["analyze", "delone", "--in", "{tmp}/p.json"], _check_delone),
    ] for p, s in choices]


# -------------------------------------------------------------- stationary


SVGS = tuple(f"seq-{k}.svg" for k in range(len(STATIONARY_TILES)))


def _check_sequence(out, tmp):
    total = sum(STATIONARY_TILES)
    _expect(out.startswith(f"stationary sequence P_0..P_5: {total} tiles, nesting=ok -> "),
            f"tile: {out.strip()!r}")
    with open(os.path.join(tmp, "seq.json")) as fh:
        counts = [len(doc["tiles"]) for doc in json.load(fh)]
    _expect(counts == STATIONARY_TILES, f"tile counts {counts}")


def _check_export(out, tmp):
    for k, name in enumerate(SVGS):
        with open(os.path.join(tmp, name)) as fh:
            prev = fh.read().count('<path class="tile prev"')
        want = STATIONARY_TILES[k - 1] if k else 0
        _expect(prev == want, f"{name}: {prev} prev tiles, want {want}")
    with open(os.path.join(tmp, "seq.json"), "rb") as a, \
            open(os.path.join(tmp, "seq2.json"), "rb") as b:
        _expect(a.read() == b.read(), "seq2.json differs from seq.json")


def stationary_variants(seed):
    presets = list(PRESETS)
    random.Random(seed).shuffle(presets)
    return [[
        Command(["tile", "--preset", p, "--stationary", "5", "--out", "{tmp}/seq.json"],
                _check_sequence, ("seq.json",)),
        Command(["export", "--in", "{tmp}/seq.json", "--svg", "{tmp}/seq.svg",
                 "--json", "{tmp}/seq2.json"], _check_export, ("seq2.json",) + SVGS),
    ] for p in presets]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tables",
            "Isolates the Fraction cylinder sweep (excludes_b2 is ~77% of verify "
            "tables): exercises cf and theorems and bypasses quadfield, gifs and delone.",
            tables_variants,
        ),
        Workload(
            "exact",
            "The QuadRat workload: quadfield dominates self time here, so a cf change "
            "that helps Fraction cylinders but slows QuadRat expansion cannot hide.",
            exact_variants,
        ),
        Workload(
            "delone",
            "Isolates the delone layer on 778-tile patches: relative-density grid and "
            "restricted Chabauty-Fell check, with epsilon pinned below the grid-pass cliff.",
            delone_variants,
        ),
        Workload(
            "stationary",
            "Exercises gifs and cli where delone does not: deep subdivision, the O(N*M) "
            "nesting and SVG prev-tile matching, and about 2 MB of files written per pass.",
            stationary_variants,
        ),
    )
}
