"""``benchmarks/pairs.py``, the parent/change pair tool, on synthetic runs.

The tool runs the ledger in subprocesses; these tests feed its
statistics, its verdicts, its temporary root and its ``--markdown``
printer runs made up here, so nothing is spawned and nothing is timed.
"""

import argparse
import importlib.util
import json
import os
import statistics

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")


def load(name, *path):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, *path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = load("pairs", "benchmarks", "pairs.py")
compare = load("ledger_compare", "benchmarks", "ledger", "compare.py")
BENCHMARK = pairs.load_benchmark()
RULES = {entry["name"]: entry for entry in BENCHMARK["end_to_end"]}


def round_of(parent, change, metric="swaps_per_s", failed=()):
    """A round of one workload: ``parent[i]`` / ``change[i]`` is seed i+1's
    ``metric`` (the other metrics read 1.0); seeds in ``failed`` (seed,
    side) exited non-zero."""
    args = argparse.Namespace(label=None, note=None, parent_name="p", change_name="c",
                              seconds=20.0, seeds=list(range(1, len(parent) + 1)),
                              held_out=[])
    runs = []
    for seed, values in enumerate(zip(parent, change), start=1):
        for side, value in zip(("parent", "change"), values):
            run = {"workload": "engine_mixed", "seed": seed, "held_out": False,
                   "side": side, "first": side == "parent", "exit": 0, "failed": False}
            if (seed, side) in failed:
                run.update(exit=1, failed=True, error="CORRECTNESS CHECK FAILED")
            else:
                stats = {**dict.fromkeys(RULES, 1.0), metric: value}
                run.update(value=stats, median=stats)
            runs.append(run)
    return pairs.new_round(args, BENCHMARK, runs)


def row(round_, metric="swaps_per_s", stat="value"):
    (found,) = [r for r in pairs.rows(round_) if r["metric"] == metric and r["stat"] == stat]
    return found


class TestStatistics:
    @pytest.mark.parametrize("samples", [
        [3.0, 1.0, 2.0],
        [180.3, 149.9, 132.2, 160.0, 171.5, 155.5],
        [0.25, 0.31, 0.28, 0.29, 0.27, 0.26, 0.35, 0.30, 0.24, 0.33],
    ])
    def test_quartiles_are_compare_pys(self, samples):
        q1, mid, q3 = pairs.quartiles(samples)
        assert [q1, q3] == statistics.quantiles(samples, n=4)[::2]
        assert mid == statistics.median(samples)
        assert (q3 - q1) / mid == compare.spread(samples)

    def test_one_sample_is_its_own_quartiles(self):
        assert pairs.quartiles([4.0]) == (4.0, 4.0, 4.0)

    def test_ties_count_for_neither_side(self):
        found = row(round_of([100.0, 100.0, 100.0, 100.0], [101.0, 100.0, 100.0, 99.0]))
        assert (found["wins"], found["losses"], found["n"]) == (1, 1, 4)
        assert found["p"] == 1.0

    def test_sign_test_p_is_exact(self):
        assert pairs.sign_p(9, 1) == 22 / 1024
        assert pairs.sign_p(1, 9) == 22 / 1024
        assert pairs.sign_p(10, 0) == 2 / 1024
        assert pairs.sign_p(5, 5) == 1.0
        assert pairs.sign_p(0, 0) == 1.0

    def test_wins_follow_the_metrics_direction(self):
        # setup_s: lower is better, so every change run winning reads 10/10.
        parent = [0.30 + i / 1000 for i in range(10)]
        found = row(round_of(parent, [p - 0.05 for p in parent], metric="setup_s"), "setup_s")
        assert (found["wins"], found["p"]) == (10, 2 / 1024)
        assert found["verdict"] == "clears"


class TestClaimRule:
    PARENT = [100.0 + i for i in range(1, 11)]  # quartiles 102.75 / 108.25: IQR 5.5

    def test_medians_one_parent_iqr_apart_do_not_clear(self):
        found = row(round_of(self.PARENT, [p + 5.5 for p in self.PARENT]))
        q1, mid, q3 = found["parent"]
        assert found["change"][1] - mid == q3 - q1 == 5.5
        assert found["wins"] == 10
        assert found["verdict"] == "within bound"

    def test_medians_past_the_parent_iqr_clear_at_nine_of_ten(self):
        change = [p + 5.75 for p in self.PARENT]
        assert row(round_of(self.PARENT, change))["verdict"] == "clears"
        change[0] = self.PARENT[0] - 1
        found = row(round_of(self.PARENT, change))
        assert (found["wins"], found["p"], found["verdict"]) == (9, 22 / 1024, "clears")
        change[1] = self.PARENT[1] - 1
        assert row(round_of(self.PARENT, change))["verdict"] == "within bound"

    def test_bounds_and_directions_come_from_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            declared = json.load(handle)["end_to_end"]
        assert round_of([1.0], [1.0])["end_to_end"] == declared
        # 15 % worse: inside swaps_per_s's 25 % bound, past peak_rss_mb's 10 %.
        parent = [100.0 + i / 10 for i in range(10)]
        worse_rate = round_of(parent, [p * 0.85 for p in parent])
        worse_rss = round_of(parent, [p * 1.15 for p in parent], metric="peak_rss_mb")
        assert row(worse_rate)["verdict"] == "within bound"
        assert row(worse_rss, "peak_rss_mb")["verdict"] == "past bound"
        assert row(round_of(parent, [p * 0.7 for p in parent]))["verdict"] == "past bound"

    def test_a_wide_spread_is_unresolved(self):
        parent = [60.0, 80.0, 100.0, 120.0, 140.0, 60.0, 80.0, 100.0, 120.0, 140.0]
        assert row(round_of(parent, parent))["verdict"] == "unresolved"


class TestFailedRuns:
    def test_a_failed_run_counts_for_its_side(self):
        parent = [100.0 + i for i in range(10)]
        change = [p * 2 for p in parent]
        found = row(round_of(parent, change, failed={(3, "change")}))
        assert found["failed"] == [0, 1]
        assert (found["wins"], found["n"]) == (9, 10)
        assert found["verdict"] == "past bound"
        found = row(round_of(parent, change, failed={(3, "parent")}))
        assert found["failed"] == [1, 0]
        assert found["verdict"] == "clears"

    def test_no_result_line_is_a_failed_run(self):
        assert pairs.parse("") is None
        assert pairs.parse("Traceback (most recent call last):\n  ...\nKeyError: 'x'\n") is None
        assert pairs.parse('{"correct": true}\n') is None

    def test_the_result_line_and_the_window_median_are_read(self):
        stdout = (
            "\n== engine_mixed (seed 1, trace 0) ==\n"
            f"{'swaps_per_s':42s} {141.2:>14.6g} 1/s  (n=23, median 123.4, min 101, max 141.2)\n"
            f"{'setup_s':42s} {0.3439:>14.6g} s  (n=23, median 0.36, min 0.3439, max 0.41)\n"
            "\nwall 20.4 s; every correctness check passed\n"
            '{"correct": true, "attempted": 1380, "failed": 0, "metrics": '
            '{"swaps_per_s": {"value": 141.2, "unit": "1/s"}, '
            '"setup_s": {"value": 0.3439, "unit": "s"}}}\n'
        )
        assert pairs.parse(stdout) == {
            "value": {"swaps_per_s": 141.2, "setup_s": 0.3439},
            "median": {"swaps_per_s": 123.4, "setup_s": 0.36},
        }


class TestRoot:
    def test_the_sides_src_is_root_src(self, tmp_path):
        src = tmp_path / "tree" / "src"
        (src / "repro").mkdir(parents=True)
        root = pairs.make_root(str(src), str(tmp_path))
        assert os.path.realpath(os.path.join(root, "src")) == os.path.realpath(src)
        assert os.path.isfile(os.path.join(root, "BENCHMARK.json"))
        ledger = os.path.join(root, "benchmarks", "ledger")
        assert os.path.isfile(os.path.join(ledger, "run.py"))
        assert not os.path.islink(ledger)
        assert not os.path.exists(os.path.join(ledger, ".tmp"))

    def test_seed_ranges(self):
        assert pairs.seed_list("1-10") == list(range(1, 11))
        assert pairs.seed_list("1-1") == [1]
        assert pairs.seed_list("41-45,7") == [41, 42, 43, 44, 45, 7]
        assert pairs.seed_text([11, 12, 13]) == "11–13"
        assert pairs.seed_text([2, 5]) == "2,5"


def test_markdown_of_the_committed_fixture_is_the_golden_table(capsys):
    assert pairs.main(["--markdown", os.path.join(DATA, "pairs-fixture.json")]) == 0
    with open(os.path.join(DATA, "pairs-fixture.md"), encoding="utf-8") as handle:
        assert capsys.readouterr().out == handle.read()


def test_every_committed_pair_table_is_in_the_docs(capsys):
    with open(os.path.join(ROOT, "docs", "performance.md"), encoding="utf-8") as handle:
        docs = handle.read()
    for name in sorted(os.listdir(ROOT)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        with open(os.path.join(ROOT, name), encoding="utf-8") as handle:
            if "pairs" not in json.load(handle):
                continue
        assert pairs.main(["--markdown", os.path.join(ROOT, name)]) == 0
        assert capsys.readouterr().out in docs, f"{name}'s tables are not in the docs"
