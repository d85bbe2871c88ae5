"""The repo's one benchmark: host-time cost of the simulator, end to end and per layer.

Two ways to run it (README.md has the glossary and the baseline):

* the contract form the driver uses, one workload and one mode per run::

      python3 benchmarks/ledger/run.py --workload engine_mixed --seed 0 \\
          --seconds 20 --trace 0

  ``--trace 0`` repeats the workload in fresh worker processes for
  ``--seconds`` and prints the end-to-end metrics; ``--trace 1`` makes
  one plain and one profiled repetition, runs the microbenchmarks, and
  prints the per-layer metrics.  The last stdout line is one JSON object
  (``correct``, ``attempted``, ``failed``, ``metrics``).

* the ledger form, every workload in both modes::

      python3 benchmarks/ledger/run.py [--out ledger.json]

  which is what ``compare.py`` takes two of.

This process is the load generator: it turns ``--seed`` into specs
(``workloads.generate``) and hands each repetition's spec to
``worker.py``; the program never sees the seed.  Exit status is 0 only
if every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
SRC_DIR = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
    sys.exit(f"benchmarks/ledger: no program to measure ({SRC_DIR}/repro is missing)")
for _path in (SRC_DIR, LEDGER_DIR):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import micro  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3

#: End-to-end metrics: name -> unit.  BENCHMARK.json adds direction and bound.
END_TO_END = {"swaps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Which repetition stands for the run.  On a shared host interference only
#: ever slows a repetition down (measured: consecutive identical repetitions
#: differ by up to 15 %, always on the slow side), so for the two timings the
#: fastest repetition is the least contaminated reading of what the code
#: costs; the median, min, max and every sample are kept beside it.
REPORTED = {"swaps_per_s": max, "setup_s": min, "peak_rss_mb": statistics.median}

#: Spans the worker records around public calls; each yields ``span.<name>.self_s``.
SPANS = (
    "import",
    "traffic",
    "build_environment",
    "wiring",
    "submit",
    "engine_run",
    "result",
    "to_json",
    "service_init",
    "serve",
    "checkpoint",
    "drain",
    "restore",
    "expand",
    "store_open",
    "run_sweep",
    "store_readback",
)

#: Exact under a seed: two commits compare with ``==`` (compare.py does).
COUNTS = {
    **dict.fromkeys(tracing.COUNTED_CALLS, "count"),
    "sim.max_pending": "count",
    "obs.trace_events": "count",
    "crypto.ecdsa_memo.hit_rate": "ratio",
    "crypto.multisig_memo.hit_rate": "ratio",
    "core.evidence_memo.hit_rate": "ratio",
    "sim.p50_latency_s": "sim_s",
    "sim.p99_latency_s": "sim_s",
    "sim.commit_rate": "ratio",
    "sim.failed_share": "ratio",
}

#: Per-layer metrics: name -> unit (the order BENCHMARK.json lists them in).
PER_LAYER = {
    **{f"span.{name}.self_s": "s" for name in SPANS},
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    **{f"{layer}.share": "ratio" for layer in tracing.LAYERS},
    "trace.overhead_ratio": "ratio",
    **COUNTS,
    "sweeps.parallel_efficiency": "ratio",
    "sweeps.points_per_s": "1/s",
    **dict.fromkeys(micro.NAMES, "1/s"),
    **{f"{layer}.src_loc": "count" for layer in tracing.LAYERS},
}


class CheckFailed(Exception):
    """A correctness check did not hold; the message names it."""


def make_job(workload: str, seed: int, sizes, workdir: str) -> dict:
    """An untraced repetition's job; ``{**job, "traced": True}`` is the profiled one."""
    return {**workloads.generate(workload, seed, sizes), "workdir": workdir, "traced": False}


def spawn(job: dict) -> dict:
    """One repetition in a fresh interpreter; returns the worker's report."""
    done = subprocess.run(
        [sys.executable, os.path.join(LEDGER_DIR, "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        timeout=170,
    )
    if done.returncode != 0:
        raise CheckFailed(
            f"worker.exit_status: {job['workload']} worker exited "
            f"{done.returncode}\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


def check(reports: list[dict]) -> None:
    """The correctness gate: raise :class:`CheckFailed` naming the first breach."""
    workload = reports[0]["workload"]
    digests = {report["digest"] for report in reports}
    if len(digests) != 1:
        raise CheckFailed(
            f"result.digest_equal_across_reps: {workload} produced "
            f"{len(digests)} different result artifacts: {sorted(digests)}"
        )
    for report in reports:
        for name, held in report.get("checks", {}).items():
            if not held:
                raise CheckFailed(f"{name}: failed on {workload}")
        if report["failed"]:
            raise CheckFailed(
                f"swaps.failed: {report['failed']} of {report['attempted']} swaps "
                f"failed on {workload}: " + "; ".join(report["failures"])
            )


def summary(name: str, samples: list[float]) -> dict:
    return {
        "value": REPORTED[name](samples),
        "unit": END_TO_END[name],
        "median": statistics.median(samples),
        "n": len(samples),
        "min": min(samples),
        "max": max(samples),
        "samples": samples,
    }


def repeat(job: dict, seconds: float, min_reps: int) -> list[dict]:
    """Untraced repetitions of ``job`` for ``seconds``, at least ``min_reps``."""
    reports: list[dict] = []
    start = time.perf_counter()
    while True:
        reports.append(spawn(job))
        elapsed = time.perf_counter() - start
        if len(reports) >= min_reps and elapsed + elapsed / len(reports) > seconds:
            return reports


def end_to_end(reports: list[dict]) -> dict:
    """The ``--trace 0`` result, from the untraced repetitions (see REPORTED)."""
    check(reports)
    samples = {
        "swaps_per_s": [r["terminal"] / r["run_s"] for r in reports],
        "setup_s": [r["import_s"] + r["setup_s"] for r in reports],
        "peak_rss_mb": [r["rss_kb"] / 1024 for r in reports],
    }
    return {
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {name: summary(name, samples[name]) for name in END_TO_END},
    }


def per_layer(plain: dict, profiled: dict) -> dict:
    """The ``--trace 1`` result: spans from an untraced repetition (the
    profiler would stretch them), layers and counts from a profiled one."""
    check([plain, profiled])

    values: dict[str, float] = dict.fromkeys(PER_LAYER, 0)
    for name, own in tracing.self_times(plain["spans"]).items():
        if name in SPANS:
            values[f"span.{name}.self_s"] = own
    profile_total = sum(profiled["layers"].values())
    for layer, own in profiled["layers"].items():
        values[f"{layer}.self_s"] = own
        values[f"{layer}.share"] = own / profile_total
    values["trace.overhead_ratio"] = profiled["run_s"] / plain["run_s"]
    values.update(profiled["counts"])
    values.update(profiled["sim"])
    if "points" in plain:
        values["sweeps.parallel_efficiency"] = plain["parallel_efficiency"]
        values["sweeps.points_per_s"] = plain["points"] / plain["run_s"]
    for layer, lines in tracing.source_lines(os.path.join(SRC_DIR, "repro")).items():
        values[f"{layer}.src_loc"] = lines
    return {
        "attempted": plain["attempted"] + profiled["attempted"],
        "failed": plain["failed"] + profiled["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit, "n": 1}
            for name, unit in PER_LAYER.items()
        },
    }


def print_metrics(title: str, metrics: dict) -> None:
    print(f"\n== {title} ==")
    for name, entry in metrics.items():
        spread = (
            f"  (n={entry['n']}, median {entry['median']:.6g}, "
            f"min {entry['min']:.6g}, max {entry['max']:.6g})"
            if "min" in entry
            else f"  (n={entry['n']})"
        )
        print(f"{name:42s} {entry['value']:>14.6g} {entry['unit']}{spread}")


def contract_line(result: dict) -> str:
    """The driver's result object: the last line of stdout."""
    return json.dumps(
        {
            "correct": True,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in result["metrics"].items()
            },
        }
    )


def host() -> dict:
    return {
        "machine": platform.machine(),
        "system": platform.platform(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        run_seconds = json.load(handle)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(run_seconds))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument(
        "--only", choices=("micro",), help="run just the microbenchmarks, 1 s loops"
    )
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (test_ledger.py)")
    parser.add_argument("--out", help="write the ledger JSON here (ledger form only)")
    args = parser.parse_args(argv)
    if (args.workload is None) != (args.trace is None):
        parser.error("--workload and --trace go together (omit both for the full ledger)")
    return args


def micro_seconds(args: argparse.Namespace, spent: float | None = None) -> float:
    """Loop length for the microbenchmarks: 1 s, except inside a ``--trace 1``
    run, where it is what the run's budget leaves after the two repetitions
    (``spent``), spread over 3 loops of each and kept within [0.02, 0.25] s."""
    if args.smoke:
        return 0.005
    if spent is None:
        return 1.0
    share = (args.seconds - spent) / (3 * len(micro.NAMES))
    return min(0.25, max(0.02, share))


def with_micro(traced: dict, rates: dict[str, float]) -> dict:
    for name, rate in rates.items():
        traced["metrics"][name].update(value=rate, n=3)
    return traced


def run_micro(args: argparse.Namespace, workdir: str) -> None:
    rates = micro.run_all(micro_seconds(args), workdir)
    print_metrics(
        "microbenchmarks",
        {name: {"value": rate, "unit": "1/s", "n": 3} for name, rate in rates.items()},
    )


def run_contract(args: argparse.Namespace, sizes, min_reps: int, workdir: str) -> None:
    """One workload in one mode; the result object goes on the last line."""
    started = time.perf_counter()
    job = make_job(args.workload, args.seed, sizes, workdir)
    if args.trace == 0:
        result = end_to_end(repeat(job, args.seconds, min_reps))
    else:
        # Repetitions first: they, not the micro loops, need the quiet machine.
        result = per_layer(spawn(job), spawn({**job, "traced": True}))
        spent = time.perf_counter() - started
        with_micro(result, micro.run_all(micro_seconds(args, spent), workdir))
    print_metrics(f"{args.workload} (seed {args.seed}, trace {args.trace})", result["metrics"])
    print(f"\nwall {time.perf_counter() - started:.1f} s; every correctness check passed")
    print(contract_line(result))


def run_ledger(args: argparse.Namespace, sizes, min_reps: int, workdir: str) -> None:
    """Every workload, untraced then traced; the microbenchmarks once."""
    rates = micro.run_all(micro_seconds(args), workdir)
    entries = {}
    for workload in workloads.WORKLOADS:
        job = make_job(workload, args.seed, sizes, workdir)
        reports = repeat(job, args.seconds, min_reps)
        timed = end_to_end(reports)
        traced = with_micro(per_layer(reports[0], spawn({**job, "traced": True})), rates)
        print_metrics(f"{workload}: end to end (untraced)", timed["metrics"])
        print_metrics(f"{workload}: per layer (traced)", traced["metrics"])
        entries[workload] = {
            "attempted": timed["attempted"],
            "failed": timed["failed"],
            "end_to_end": timed["metrics"],
            "per_layer": traced["metrics"],
        }
    print("\nevery correctness check passed")
    if args.out:
        ledger = {"host": host(), "seed": args.seed, "workloads": entries}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(ledger, handle, indent=1)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    min_reps = 1 if args.smoke else MIN_REPS
    scratch = os.path.join(LEDGER_DIR, ".tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        if args.only == "micro":
            run_micro(args, workdir)
        elif args.workload is None:
            run_ledger(args, sizes, min_reps, workdir)
        else:
            run_contract(args, sizes, min_reps, workdir)
        return 0
    except CheckFailed as failure:
        print(f"CORRECTNESS CHECK FAILED — {failure}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
