"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs each workload for one short pass of its first variant, untraced and
traced, and checks that every metric BENCHMARK.json names is reported
with its unit, that no command failed, and that the traced run left every
badtri module namespace and class dictionary as it found it.  Exits 1 on
the first problem.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run
from spans import badtri_modules
from workloads import WORKLOADS


def namespaces():
    """Every badtri module dict and class dict, copied."""
    snap = {}
    for mod in badtri_modules():
        snap[mod.__name__] = dict(vars(mod))
        for obj in vars(mod).values():
            if isinstance(obj, type) and obj.__module__.startswith("badtri"):
                snap[f"{obj.__module__}.{obj.__qualname__}"] = dict(vars(obj))
    return snap


def changed(before, after):
    """Names whose binding differs between two snapshots."""
    out = []
    for owner in before.keys() | after.keys():
        a, b = before.get(owner, {}), after.get(owner, {})
        out += [f"{owner}.{k}" for k in a.keys() | b.keys() if a.get(k) is not b.get(k)]
    return sorted(out)


def main():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if not (run.SRC / "badtri" / "cli.py").is_file():
        print(f"error: the badtri sources are missing under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    problems = []
    for name, workload in list(WORKLOADS.items()):
        WORKLOADS[name] = dataclasses.replace(
            workload, variants=lambda seed, w=workload: w.variants(seed)[:1])
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            before = namespaces()
            record = run.run_workload(name, seed=1, seconds=0, trace=trace, setup_samples=1)
            after = namespaces()
            line = json.loads(run.result_line(record, run.metric_units(trace)))
            for metric in spec[kind]:
                got = line["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{name} trace={trace}: metric {metric['name']} is {got}")
            if record["fail_ratio"] != 0 or not line["correct"]:
                problems.append(f"{name} trace={trace}: fail_ratio {record['fail_ratio']}: "
                                f"{record['failures']}")
            moved = changed(before, after)
            if moved:
                problems.append(f"{name} trace={trace}: namespaces changed: {moved[:5]}")
            print(f"{name} trace={trace}: {len(line['metrics'])} metrics, "
                  f"fail_ratio {record['fail_ratio']}, namespaces "
                  f"{'changed' if moved else 'unchanged'}", flush=True)
        WORKLOADS[name] = workload
    for p in problems:
        print("FAIL", p)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
