"""Parent/change pairs through the ledger: one A/B round, kept as data.

For each workload and seed this runs the ledger's contract form::

    python3 benchmarks/ledger/run.py --workload W --seed K --seconds S --trace 0

once on each side, in a fresh process per run, back to back: odd seeds
run the parent first, even seeds the change.  ``run.py`` and
``worker.py`` put their own tree's ``src/`` first on ``sys.path``, so a
side is chosen by where the ledger sits, not by ``PYTHONPATH``: each
side runs from a temporary root holding copies of this checkout's
``BENCHMARK.json`` and ``benchmarks/ledger/`` next to a link to that
side's ``src/``.  Both sides therefore run the same ledger.

::

    python3 benchmarks/pairs.py --parent-src DIR --change-src DIR \\
        --workload W [W ...] [--seeds 1-10] [--held-out 41-45] \\
        [--seconds S] [--out BENCH_<pr>.json] [--label TEXT] [--note TEXT]
    python3 benchmarks/pairs.py --markdown BENCH_<pr>.json

A run reads two statistics per end-to-end metric: the result line's
``value`` (what the benchmark judges; for the two timings the best
repetition of the window) and the window's ``median`` that ``run.py``
prints beside it.  Per workload, seed set, metric and statistic the
table gives each side's median [quartiles] over the runs
(``statistics.quantiles(n=4)``, as ``compare.py`` takes them), the
ratio of the medians, the range of the per-pair ratios, the change's
wins out of the pairs (ties and pairs with a failed run count for
neither side), an exact two-sided sign-test p, the parent's IQR as a
share of its median, and one verdict:

* ``clears``       — at least 9 of 10 pairs won and the medians further
  apart, in the metric's better direction, than the parent's IQR;
* ``past bound``   — the change's median is worse than the parent's by
  more than the metric's ``BENCHMARK.json`` bound, or the change failed
  more runs than the parent;
* ``unresolved``   — neither, and one side's IQR over its median exceeds
  the bound (or a side has no result);
* ``within bound`` — the rest.

A run that exits non-zero or prints no result line counts as failed for
its side.  ``--out`` appends the round, every raw run included, to the
file's ``pairs`` list (creating the file); ``--markdown`` reprints every
round's table from that file alone.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATS = ("value", "median")

#: ``run.py``'s printed metric line: name, value, unit, then the window.
WINDOW = re.compile(r"^(\S+)\s+\S+ \S+  \(n=(\d+), median (\S+), min \S+, max \S+\)$")

#: The claim rule's share of the pairs the change must win (9 of 10).
CLAIM_WINS = 0.9


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def seed_list(text: str) -> list[int]:
    """``"1-10"``, ``"3"`` or ``"1,4,9"`` (ranges inclusive) as a list."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def seed_text(seeds: list[int]) -> str:
    if seeds == list(range(seeds[0], seeds[-1] + 1)):
        return f"{seeds[0]}–{seeds[-1]}" if len(seeds) > 1 else str(seeds[0])
    return ",".join(map(str, seeds))


def make_root(src: str, into: str | None = None) -> str:
    """A temporary root whose ledger measures ``src``: copies of this
    checkout's ``BENCHMARK.json`` and ``benchmarks/ledger/``, and ``src``
    linked at ``ROOT/src``."""
    root = tempfile.mkdtemp(prefix="pairs-", dir=into)
    shutil.copy2(os.path.join(ROOT, "BENCHMARK.json"), root)
    shutil.copytree(
        os.path.join(ROOT, "benchmarks", "ledger"),
        os.path.join(root, "benchmarks", "ledger"),
        ignore=shutil.ignore_patterns(".tmp", "__pycache__"),
    )
    os.symlink(os.path.abspath(src), os.path.join(root, "src"))
    return root


def parse(stdout: str) -> dict | None:
    """A run's ``value`` and window ``median`` per metric, or None when the
    last line is not a result object."""
    lines = stdout.rstrip().splitlines()
    try:
        result = json.loads(lines[-1])
        values = {name: entry["value"] for name, entry in result["metrics"].items()}
    except (IndexError, ValueError, TypeError, KeyError, AttributeError):
        return None
    medians = {}
    for line in lines:
        match = WINDOW.match(line)
        if match and match.group(1) in values:
            medians[match.group(1)] = float(match.group(3))
    return {"value": values, "median": medians}


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One ledger run from ``root``: its statistics, or ``failed``."""
    command = [
        sys.executable, os.path.join(root, "benchmarks", "ledger", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
        "--trace", "0",
    ]
    started = time.perf_counter()
    try:
        done = subprocess.run(
            command, cwd=root, capture_output=True, text=True, timeout=600 + 10 * seconds
        )
    except subprocess.TimeoutExpired:
        return {"exit": None, "failed": True, "error": "timed out",
                "wall_s": round(time.perf_counter() - started, 3)}
    record = {"exit": done.returncode, "wall_s": round(time.perf_counter() - started, 3)}
    parsed = parse(done.stdout) if done.returncode == 0 else None
    if parsed is None:
        tail = done.stderr.strip().splitlines()
        return {**record, "failed": True, "error": tail[-1] if tail else "no result line"}
    return {**record, "failed": False, **parsed}


def run_round(args: argparse.Namespace, benchmark: dict) -> dict:
    """Every pair of the round, each side from its own temporary root."""
    scratch = tempfile.mkdtemp(prefix="pairs-")
    try:
        roots = {"parent": make_root(args.parent_src, scratch),
                 "change": make_root(args.change_src, scratch)}
        runs = []
        seeds = [(seed, False) for seed in args.seeds]
        seeds += [(seed, True) for seed in args.held_out]
        for workload in args.workload:
            for seed, held_out in seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    run = run_once(roots[side], workload, seed, args.seconds)
                    runs.append({"workload": workload, "seed": seed, "held_out": held_out,
                                 "side": side, "first": side == order[0], **run})
                    print(f"{workload} seed {seed} {side}: "
                          + ("FAILED " + run["error"] if run["failed"] else
                             " ".join(f"{k}={v:.4g}" for k, v in run["value"].items())),
                          file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return new_round(args, benchmark, runs)


def new_round(args: argparse.Namespace, benchmark: dict, runs: list[dict]) -> dict:
    """The round as stored: its runs, and the bounds it is judged by."""
    return {
        "label": args.label or f"{args.parent_name} → {args.change_name}",
        "note": args.note,
        "parent": args.parent_name,
        "change": args.change_name,
        "seconds": args.seconds,
        "seeds": args.seeds,
        "held_out": args.held_out,
        "end_to_end": benchmark["end_to_end"],
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "nproc": os.cpu_count()},
        "runs": runs,
    }


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``compare.py`` takes them; one sample is all three."""
    if len(samples) < 2:
        return (samples[0],) * 3
    low, _mid, high = statistics.quantiles(samples, n=4)
    return low, statistics.median(samples), high


def sign_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p for ``wins`` against ``losses``."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(max(wins, losses), n + 1))
    return min(1.0, 2 * tail / 2**n)


def judge(pairs: list[tuple[float | None, float | None]], better: str, bound: float,
          failed: tuple[int, int]) -> dict:
    """One row: ``pairs`` are (parent, change) per seed, None for a failed run;
    ``failed`` counts each side's failed runs."""
    sign = 1.0 if better == "higher" else -1.0
    parent = [a for a, _ in pairs if a is not None]
    change = [b for _, b in pairs if b is not None]
    both = [(a, b) for a, b in pairs if a is not None and b is not None]
    wins = sum(sign * (b - a) > 0 for a, b in both)
    losses = sum(sign * (b - a) < 0 for a, b in both)
    row = {"n": len(pairs), "wins": wins, "losses": losses, "p": sign_p(wins, losses),
           "failed": list(failed), "parent": None, "change": None, "ratio": None,
           "pair_ratios": None, "parent_iqr": None}
    if parent:
        row["parent"] = quartiles(parent)
        q1, mid, q3 = row["parent"]
        row["parent_iqr"] = (q3 - q1) / mid
    if change:
        row["change"] = quartiles(change)
    if parent and change:
        row["ratio"] = row["change"][1] / row["parent"][1]
    if both:
        ratios = [b / a for a, b in both]
        row["pair_ratios"] = (min(ratios), max(ratios))
    if failed[1] > failed[0]:
        row["verdict"] = "past bound"
    elif not parent or not change:
        row["verdict"] = "unresolved"
    else:
        (p1, pm, p3), (c1, cm, c3) = row["parent"], row["change"]
        gain = sign * (cm - pm)
        if wins >= CLAIM_WINS * len(pairs) and gain > p3 - p1:
            row["verdict"] = "clears"
        elif -gain / pm > bound:
            row["verdict"] = "past bound"
        elif max((p3 - p1) / pm, (c3 - c1) / cm) > bound:
            row["verdict"] = "unresolved"
        else:
            row["verdict"] = "within bound"
    return row


def _read(run: dict | None, stat: str, metric: str) -> float | None:
    return None if run is None or run["failed"] else run[stat].get(metric)


def rows(round_: dict) -> list[dict]:
    """Every row of a round: workload × seed set × metric × statistic."""
    out = []
    seed_sets = [(False, round_["seeds"]), (True, round_["held_out"])]
    for workload in dict.fromkeys(run["workload"] for run in round_["runs"]):
        for held_out, seeds in seed_sets:
            runs = {(run["seed"], run["side"]): run for run in round_["runs"]
                    if run["workload"] == workload and run["held_out"] == held_out}
            if not runs:
                continue
            failed = tuple(sum(run["failed"] for (_, side), run in runs.items() if side == s)
                           for s in ("parent", "change"))
            for metric in round_["end_to_end"]:
                name = metric["name"]
                for stat in STATS:
                    pairs = [(_read(runs.get((seed, "parent")), stat, name),
                              _read(runs.get((seed, "change")), stat, name)) for seed in seeds]
                    out.append({"workload": workload, "seeds": seed_text(seeds),
                                "metric": name, "better": metric["better"], "stat": stat,
                                **judge(pairs, metric["better"], metric["bound"], failed)})
    return out


def _spread(quarts) -> str:
    if quarts is None:
        return "–"
    q1, mid, q3 = quarts
    return f"{mid:.4g} [{q1:.4g}, {q3:.4g}]"


def markdown(round_: dict) -> str:
    arrows = {"higher": "↑", "lower": "↓"}
    lines = [f"#### {round_['label']}", ""]
    if round_.get("note"):
        lines += [round_["note"], ""]
    held = f", held out {seed_text(round_['held_out'])}" if round_["held_out"] else ""
    lines += [
        f"Parent `{round_['parent']}`, change `{round_['change']}`; seeds "
        f"{seed_text(round_['seeds'])}{held}; `--seconds {round_['seconds']:g}`; "
        f"{len(round_['runs'])} runs.",
        "",
        "| workload (seeds) | metric | stat | parent median [q1, q3] | change median [q1, q3] "
        "| ratio | pair ratios | wins | sign p | parent IQR | failed | verdict |",
        "| --- | --- | --- | --- | --- | ---: | --- | ---: | ---: | ---: | ---: | --- |",
    ]
    for row in rows(round_):
        ratio = "–" if row["ratio"] is None else f"{row['ratio']:.3f}×"
        span = ("–" if row["pair_ratios"] is None
                else f"{row['pair_ratios'][0]:.3f}–{row['pair_ratios'][1]:.3f}×")
        iqr = "–" if row["parent_iqr"] is None else f"{row['parent_iqr']:.1%}"
        lines.append(
            f"| `{row['workload']}` ({row['seeds']}) | `{row['metric']}` {arrows[row['better']]} "
            f"| {row['stat']} | {_spread(row['parent'])} | {_spread(row['change'])} | {ratio} "
            f"| {span} | {row['wins']}/{row['n']} | {row['p']:.3f} | {iqr} "
            f"| {row['failed'][0]}/{row['failed'][1]} | {row['verdict']} |"
        )
    return "\n".join(lines) + "\n"


def parse_args(argv: list[str] | None, benchmark: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--markdown", metavar="FILE",
                        help="reprint every round's table from a BENCH_<pr>.json")
    parser.add_argument("--parent-src", metavar="DIR")
    parser.add_argument("--change-src", metavar="DIR")
    parser.add_argument("--parent-name", help="the parent in the table (default: its DIR)")
    parser.add_argument("--change-name", help="the change in the table (default: its DIR)")
    parser.add_argument("--workload", nargs="+",
                        choices=[entry["name"] for entry in benchmark["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--held-out", type=seed_list, default=[])
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    parser.add_argument("--out", metavar="FILE", help="append the round to this file's pairs")
    parser.add_argument("--label", help="the round's heading")
    parser.add_argument("--note", help="one paragraph printed under the heading")
    args = parser.parse_args(argv)
    if args.markdown is None:
        if not (args.parent_src and args.change_src and args.workload):
            parser.error("--parent-src, --change-src and --workload are required")
        for src in (args.parent_src, args.change_src):
            if not os.path.isdir(os.path.join(src, "repro")):
                parser.error(f"{src} holds no repro package")
        if args.seconds < 0:
            parser.error("--seconds must be >= 0")
        args.parent_name = args.parent_name or args.parent_src
        args.change_name = args.change_name or args.change_src
    return args


def main(argv: list[str] | None = None) -> int:
    benchmark = load_benchmark()
    args = parse_args(argv, benchmark)
    if args.markdown is not None:
        try:
            with open(args.markdown, encoding="utf-8") as handle:
                rounds = json.load(handle).get("pairs")
        except (OSError, ValueError) as error:
            print(f"pairs.py: {args.markdown}: {error}", file=sys.stderr)
            return 2
        if not rounds:
            print(f"pairs.py: {args.markdown} has no pairs section", file=sys.stderr)
            return 2
        print("\n".join(markdown(round_) for round_ in rounds), end="")
        return 0
    round_ = run_round(args, benchmark)
    if args.out:
        record = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as handle:
                record = json.load(handle)
        record.setdefault("pairs", []).append(round_)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, ensure_ascii=False)
            handle.write("\n")
    print(markdown(round_), end="")
    return 1 if any(run["failed"] for run in round_["runs"]) else 0


if __name__ == "__main__":
    sys.exit(main())
