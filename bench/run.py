"""Run one badtri benchmark workload and print its metrics.

    python3 bench/run.py --workload delone --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from `src/` beside this
directory.  A workload is a closed loop: one caller issues badtri CLI
commands back to back, in-process through `badtri.cli.main(argv)`, with
files in a scratch directory under `bench/out/`.  Every command's output
is checked.  After one warm-up pass the run cycles through the
workload's variants in whole rounds for about `--seconds` seconds.

`--trace 0` prints `pass_s` (median seconds per pass, with quartiles) and
the end-to-end metrics: `pass_rel` (median over passes of the pass time
divided by a fixed reference loop timed beside it), `setup_s` (median over
fresh interpreters of the time from process start to the first pass being
ready), `peak_rss_mb` and, on its own line, `fail_ratio`.  `--trace 1` alternates untraced and traced passes of the
same variant and prints the per-layer metrics from the traced ones
(see `spans.py`).  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A record of the run goes
to `bench/out/<workload>-trace<k>.json`, and the traced run's last pass of
spans to `bench/out/<workload>.spans.npz`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy
import scipy

from spans import LAYERS, QUADRAT_OPS, Tracer
from workloads import WORKLOADS, CheckError

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 5


def prepare(workload, seed):
    """What every pass needs: the program imported, the inputs, a scratch dir."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import badtri.cli

    variants = WORKLOADS[workload].variants(seed)
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    return badtri.cli, variants, tmp


def measure_setup(workload, seed, samples):
    """Seconds from starting a fresh interpreter to its first pass being ready."""
    times = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    for _ in range(samples):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe failed (exit {rc}, said {line!r})")
        times.append(elapsed)
    return times


class Reference:
    """A fixed loop, independent of badtri, timed next to every pass.

    The machine's speed drifts by tens of percent over minutes when other
    tenants load it; dividing a pass by the reference loops timed just
    before and after it cancels most of that drift.  The loop mixes exact
    Fraction arithmetic with a numpy pass, like the workloads do.
    """

    def __init__(self):
        self.array = numpy.linspace(0.0, 1.0, 1 << 16)  # small: keeps peak RSS the program's

    def __call__(self):
        t0 = time.perf_counter()
        acc, seen = Fraction(0), {}
        for i in range(1, 3000):
            f = Fraction(i, i + 7)
            acc += f * f - Fraction(1, i)
            seen[(i, i % 7)] = acc < 1
        for _ in range(60):
            float(numpy.sqrt(self.array * self.array + 1.0).sum())
        return time.perf_counter() - t0


class Runner:
    """Runs passes of one workload and keeps the failure tally."""

    def __init__(self, cli, tmp):
        self.cli = cli
        self.tmp = tmp
        self.attempted = 0
        self.failures = []

    def command(self, cmd):
        """Run one CLI command; return (seconds, bytes written)."""
        argv = cmd.resolve(self.tmp)
        shown = " ".join(cmd.argv)
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except (Exception, SystemExit):
            elapsed = time.perf_counter() - t0
            self.failures.append(f"{shown}: raised\n{traceback.format_exc()}")
            return elapsed, 0
        elapsed = time.perf_counter() - t0
        try:
            if rc != 0:
                raise CheckError(f"exit code {rc}; stderr: {err.getvalue().strip()!r}")
            cmd.check(out.getvalue(), self.tmp)
        except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
            self.failures.append(f"{shown}: {exc}")
        size = sum(os.path.getsize(os.path.join(self.tmp, name))
                   for name in cmd.outputs
                   if os.path.exists(os.path.join(self.tmp, name)))
        return elapsed, size

    def run_pass(self, variant):
        """Seconds spent in the variant's commands, and bytes they wrote."""
        gc.collect()
        total, written = 0.0, 0
        for cmd in variant:
            seconds, size = self.command(cmd)
            total += seconds
            written += size
        return total, written


def rounds(variants, seconds, body):
    """Call body(variant) over whole rounds of variants for about `seconds`.

    Stops once less than half a round's time remains, so that every
    variant is measured equally often and at least one round runs.
    """
    t0 = time.perf_counter()
    done = 0
    while True:
        for variant in variants:
            body(variant)
        done += 1
        elapsed = time.perf_counter() - t0
        if seconds - elapsed < elapsed / done / 2:
            return


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail(values):
    """The highest of p99/p90 with at least ten samples beyond it, or None."""
    for p in (99, 90):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


# ------------------------------------------------------------ per-layer metrics


def _per_layer(summary, pass_s, out_bytes):
    calls, incl = summary["calls"], summary["inclusive_s"]
    counters, lay = summary["counters"], summary["layer_self_s"]

    def n(name):
        return calls.get(name, 0)

    def s(*names):
        return sum(incl.get(name, 0.0) for name in names)

    excl_cyl = summary["within"][("cf.Cylinder.__init__", "theorems.excludes_b2")]
    m = {f"{layer}.self_s": lay[layer] for layer in LAYERS}
    m.update({
        "quadfield.ops": sum(n(f"quadfield.QuadRat.{op}") for op in QUADRAT_OPS),
        "cf.cylinders": n("cf.Cylinder.__init__"),
        "cf.convergents.calls": n("cf.convergents"),
        "cf.expand_quadratic.s": s("cf.expand_quadratic"),
        "cf.value.s": s("cf.FiniteCF.value", "cf.PeriodicCF.value"),
        "theorems.excludes_b2.s": s("theorems.excludes_b2"),
        "theorems.excludes_b2.calls": n("theorems.excludes_b2"),
        "theorems.excludes_b2.us_per_cylinder":
            s("theorems.excludes_b2") / excl_cyl * 1e6 if excl_cyl else 0.0,
        "theorems.verify_case_row.s": s("theorems.verify_case_row"),
        "theorems.insertion.s": s("theorems.insertion"),
        "theorems.extra_identity.s": s("theorems.extra_identity"),
        "theorems.search_triples.s": s("theorems.search_triples"),
        "theorems.search.survivors": counters.get("theorems.search.survivors", 0),
        "theorems.scalene_family.s": s("theorems.scalene_family"),
        "gifs.tiles": counters.get("gifs.tiles", 0),
        "gifs.subdivide.calls": n("gifs.subdivide"),
        "gifs.stationary_sequence.s": s("gifs.stationary_sequence"),
        "gifs.stationary_nesting_ok.s": s("gifs.stationary_nesting_ok"),
        "gifs.epsilon_rule.s": s("gifs.epsilon_rule"),
        "gifs.point_set.s": s("gifs.point_set"),
        "gifs.patch_doc.s": s("gifs.patch_doc"),
        "gifs.patch_from_doc.s": s("gifs.patch_from_doc"),
        "gifs.build_gifs.s": s("gifs.build_gifs"),
        "delone.check_relatively_dense.s": s("delone.check_relatively_dense"),
        "delone.dense_passes": counters.get("delone.dense_passes", 0),
        "delone.region_contains.calls": n("delone.TriangleUnionRegion.contains"),
        "delone.region_contains.s": s("delone.TriangleUnionRegion.contains"),
        "delone.restricted_convergence_check.s": s("delone.restricted_convergence_check"),
        "delone.chabauty_fell_distance.calls": n("delone.chabauty_fell_distance"),
        "delone.check_uniform_discrete.s": s("delone.check_uniform_discrete"),
        "delone.pointset.s": s("delone.PointSet.__init__"),
        "delone.orientation_discrepancy.s": s("delone.orientation_discrepancy"),
        "cli.main.calls": n("cli.main"),
        "cli.export_svg.s": s("cli.export_svg"),
        "cli.out_bytes": out_bytes,
        "trace.pass_s": pass_s,
        "trace.self_coverage": sum(lay.values()) / pass_s,
        "trace.spans": summary["spans"],
    })
    return m


# ------------------------------------------------------------------- the run


def environment(seed):
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "BADTRI_THREADS": os.environ.get("BADTRI_THREADS"),
    }


def run_workload(workload, seed, seconds, trace, setup_samples=SETUP_SAMPLES):
    """Measure one workload; return the run record (metrics included)."""
    cli, variants, tmp = prepare(workload, seed)
    try:
        runner = Runner(cli, tmp)
        runner.run_pass(variants[0])  # warm-up
        if trace:
            record = _traced(runner, variants, seconds, workload)
        else:
            record = _untraced(runner, variants, seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not trace:
        setup = measure_setup(workload, seed, setup_samples)
        record["setup_s_samples"] = setup
        record["metrics"]["setup_s"] = statistics.median(setup)
        # ru_maxrss is in KiB on Linux
        record["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    record.update({
        "workload": workload,
        "why": WORKLOADS[workload].why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "inputs": [[cmd.argv for cmd in variant] for variant in variants],
        "env": environment(seed),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "fail_ratio": len(runner.failures) / runner.attempted,
        "failures": runner.failures[:5],
    })
    return record


def _untraced(runner, variants, seconds):
    reference = Reference()
    times, refs = [], [reference()]

    def timed(variant):
        times.append(runner.run_pass(variant)[0])
        refs.append(reference())

    rounds(variants, seconds, timed)
    rel = [t / ((a + b) / 2) for t, a, b in zip(times, refs, refs[1:])]
    return {
        "pass_s_samples": times,
        "ref_s_samples": refs,
        "pass_rel_samples": rel,
        "metrics": {"pass_rel": statistics.median(rel)},
    }


def _traced(runner, variants, seconds, workload):
    tracer = Tracer()
    plain, traced, per_pass = [], [], []

    def pair(variant):
        plain.append(runner.run_pass(variant)[0])
        tracer.reset()
        try:
            tracer.install()
            elapsed, written = runner.run_pass(variant)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        summary = tracer.summary(within=[("cf.Cylinder.__init__", "theorems.excludes_b2")])
        per_pass.append((summary, _per_layer(summary, elapsed, written)))

    rounds(variants, seconds, pair)
    tracer.save(OUT / f"{workload}.spans.npz")
    metrics = {}
    for name in per_pass[0][1]:
        values = [m[name] for _, m in per_pass]
        exact = all(isinstance(v, int) for v in values)
        metrics[name] = (statistics.median_low if exact else statistics.median)(values)
    metrics["trace.untraced_pass_s"] = statistics.median(plain)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - metrics["trace.untraced_pass_s"]
    layer_self = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
    total = sum(layer_self.values())
    return {
        "pass_s_samples": traced,
        "untraced_pass_s_samples": plain,
        "metrics": metrics,
        "layer_share": {k[:-len(".self_s")]: v / total for k, v in layer_self.items()},
        "top_self_s": sorted(per_pass[-1][0]["self_s"].items(), key=lambda kv: -kv[1])[:15],
    }


def report(record):
    """Human-readable lines; the caller prints the JSON line after them."""
    m = record["metrics"]
    env = record["env"]
    times = record["pass_s_samples"]
    q1, q3 = quartiles(times)
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}",
        f"why: {record['why']}",
        f"env: commit={env['commit']} src_sha256={env['src_sha256'][:12]} "
        f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
        f"nproc={env['nproc']}",
    ]
    for k, variant in enumerate(record["inputs"]):
        lines.append(f"pass variant {k}: " + " ; ".join(" ".join(a) for a in variant))
    label = "traced pass_s" if record["trace"] else "pass_s"
    line = (f"{label}: median {statistics.median(times):.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  "
            f"n={len(times)}")
    tl = tail(times)
    line += f"  p{tl[0]} {tl[1]:.4f}" if tl else "  (too few passes for a tail percentile)"
    lines.append(line)
    if record["trace"]:
        share = ", ".join(f"{k} {v:.1%}" for k, v in record["layer_share"].items())
        lines.append(f"layer share of traced self time: {share}")
        lines += [f"{name} = {value}" for name, value in m.items()]
    else:
        q1, q3 = quartiles(record["pass_rel_samples"])
        lines.append(f"pass_rel: median {m['pass_rel']:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
                     f"(pass_s over the reference loop; reference median "
                     f"{statistics.median(record['ref_s_samples']):.4f} s)")
        lines.append(f"setup_s: {m['setup_s']:.4f} s (median of "
                     f"{len(record['setup_s_samples'])} fresh interpreters)")
        lines.append(f"peak_rss_mb: {m['peak_rss_mb']:.1f} MB")
    lines.append(f"fail_ratio: {record['fail_ratio']} "
                 f"({record['failed']}/{record['attempted']} commands)")
    lines += [f"FAILED {msg}" for msg in record["failures"]]
    return lines


def result_line(record, units):
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in units},
    })


def metric_units(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up, print 'ready' and exit")
    args = parser.parse_args(argv)
    if not (SRC / "badtri" / "cli.py").is_file():
        print(f"error: the badtri sources are missing under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _, _, tmp = prepare(args.workload, args.seed)
        shutil.rmtree(tmp, ignore_errors=True)
        print("ready", flush=True)
        return 0
    units = metric_units(args.trace)
    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=2, default=str)
    for line in report(record):
        print(line)
    print(result_line(record, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
