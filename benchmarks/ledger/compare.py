"""Compare two ledgers written by ``run.py --out``::

    python3 benchmarks/ledger/compare.py A.json B.json

A is the parent, B the change.  One row per (end-to-end metric,
workload), judged on the medians of each side's repetitions with the
bound ``BENCHMARK.json`` fixes for the metric:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``improved``   — B's median is better by more than the run-to-run spread;
* ``unchanged``  — neither;
* ``unresolved`` — the spread (interquartile range over the median, the
  wider of the two sides) exceeds the bound, so the medians cannot be told
  apart — unless every B sample reads better (``improved``) or every one
  reads worse, by more than the bound (``regressed``).

Then every exact metric (call counts, memo hit rates, simulated results,
source lines) that differs.  Exit status 1 if any row is regressed or
unresolved, or a simulated result (:data:`GUARDS`) moved: a change meant
to speed the simulator up must leave those bit-identical.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Simulated results: any difference means the two commits behave differently.
GUARDS = ("sim.p50_latency_s", "sim.p99_latency_s", "sim.commit_rate", "sim.failed_share")


def spread(samples: list[float]) -> float:
    """Interquartile range as a share of the median (0 for a single sample)."""
    if len(samples) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(samples, n=4)
    return (high - low) / statistics.median(samples)


def judge(parent: list[float], change: list[float], better: str, bound: float):
    """(status, worsening as a share of the parent's median, spread)."""
    sign = -1.0 if better == "higher" else 1.0
    base = statistics.median(parent)
    worse_by = sign * (statistics.median(change) - base) / base
    noise = max(spread(parent), spread(change))
    if better == "higher":
        all_better = min(change) > max(parent)
        all_worse = max(change) < min(parent)
    else:
        all_better = max(change) < min(parent)
        all_worse = min(change) > max(parent)
    if all_better:
        status = "improved"
    elif worse_by > bound and (all_worse or noise <= bound):
        status = "regressed"
    elif noise > bound:
        status = "unresolved"
    elif -worse_by > noise:
        status = "improved"
    else:
        status = "unchanged"
    return status, worse_by, noise


def compare(parent: dict, change: dict, benchmark: dict) -> tuple[list[tuple], list[tuple]]:
    """(end-to-end rows, exact-metric diffs) for the workloads both ledgers hold."""
    exact = {
        entry["name"]
        for entry in benchmark["per_layer"]
        if entry["unit"] in ("count", "sim_s")
        or entry["name"].endswith((".hit_rate", ".commit_rate", ".failed_share"))
    }
    rows, diffs = [], []
    for workload, before in parent["workloads"].items():
        after = change["workloads"].get(workload)
        if after is None:
            continue
        for entry in benchmark["end_to_end"]:
            name = entry["name"]
            if name not in before.get("end_to_end", {}) or name not in after.get("end_to_end", {}):
                continue
            a = before["end_to_end"][name]
            b = after["end_to_end"][name]
            status, worse_by, noise = judge(
                a["samples"], b["samples"], entry["better"], entry["bound"]
            )
            rows.append(
                (name, workload, a["median"], b["median"], a["unit"], worse_by, noise,
                 entry["bound"], status)
            )
        for name in sorted(exact):
            a = before.get("per_layer", {}).get(name)
            b = after.get("per_layer", {}).get(name)
            if a is not None and b is not None and a["value"] != b["value"]:
                diffs.append((name, workload, a["value"], b["value"]))
    return rows, diffs


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    ledgers = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            ledgers.append(json.load(handle))
    parent, change = ledgers
    if parent.get("seed") != change.get("seed"):
        print(
            f"warning: ledgers were made from different seeds ({parent.get('seed')} vs "
            f"{change.get('seed')}); exact metrics are not comparable",
            file=sys.stderr,
        )
    rows, diffs = compare(parent, change, benchmark)
    print(f"{'metric':14s} {'workload':18s} {'median A':>12s} {'median B':>12s} unit  "
          f"{'worse by':>9s} {'spread':>7s} {'bound':>6s}  verdict")
    for name, workload, a, b, unit, worse_by, noise, bound, status in rows:
        print(f"{name:14s} {workload:18s} {a:12.5g} {b:12.5g} {unit:5s} "
              f"{worse_by:+9.1%} {noise:7.1%} {bound:6.0%}  {status}")
    print(f"\nexact metrics that differ: {len(diffs)}")
    for name, workload, a, b in diffs:
        print(f"  {name:36s} {workload:18s} {a!r} -> {b!r}")
    bad = [row for row in rows if row[-1] in ("regressed", "unresolved")]
    moved = [diff for diff in diffs if diff[0] in GUARDS]
    if moved:
        print(f"\n{len(moved)} simulated result(s) moved: the two commits do not "
              f"simulate the same thing")
    print(f"\n{len(rows)} rows: " + ", ".join(
        f"{sum(row[-1] == status for row in rows)} {status}"
        for status in ("improved", "unchanged", "regressed", "unresolved")
    ))
    return 1 if bad or moved else 0


if __name__ == "__main__":
    sys.exit(main())
