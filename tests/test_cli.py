"""Tests for the command-line interface."""

import argparse
import json
import os
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_swap_defaults(self):
        """The removed ``swap`` command's defaults live in the preset."""
        from repro.experiment import preset_spec

        spec = preset_spec(build_parser().parse_args(["run", "--preset", "swap"]).preset)
        assert spec.protocol == "ac3wn"
        assert spec.traffic.participants_per_swap == 2

    def test_bad_protocol_rejected(self, capsys):
        assert main(["run", "--preset", "swap", "--set", "protocol=magic"]) == 2
        assert "unknown protocol 'magic'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["swap"],
            ["engine"],
            ["congestion"],
            ["crash-sweep"],
            ["sweep", "--preset", "table1", "--resume", "dir"],
        ],
    )
    def test_removed_commands_and_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err or "unrecognized arguments" in err

    def test_run_set_is_repeatable(self):
        args = build_parser().parse_args(
            ["run", "--preset", "swap", "--set", "seed=1", "--set", "traffic.rate=2"]
        )
        assert args.set == ["seed=1", "traffic.rate=2"]


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Bitcoin" in out and "7 tps" in out
        assert "bottleneck: bitcoin" in out

    def test_table1_example_is_the_analysis_example(self, capsys, monkeypatch):
        """The printed example is ``paper_example()``, not a second copy of
        its chains: a different answer there shows up here."""
        from repro import cli
        from repro.analysis.throughput import ThroughputResult

        monkeypatch.setattr(
            cli, "paper_example",
            lambda: ThroughputResult(("ethereum",), "litecoin", 56.0, "litecoin"),
        )
        assert main(["table1"]) == 0
        assert capsys.readouterr().out.endswith(
            "\nETH+LTC witnessed by Bitcoin: 56.0 tps (bottleneck: litecoin)\n"
        )

    def test_figure10(self, capsys):
        assert main(["figure10", "--max-diameter", "4"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "2.0x" in out  # diameter 4

    def test_witness_depth(self, capsys):
        assert main(["witness-depth", "--value-at-risk", "1000000"]) == 0
        out = capsys.readouterr().out
        assert "bitcoin: d =     21" in out
        # The depth rule needs a finite value >= 0; anything else used to
        # be a traceback out of math.floor.
        assert main(["witness-depth", "--value-at-risk", "nan"]) == 2
        assert capsys.readouterr().err == (
            "repro witness-depth: --value-at-risk: value at risk must be a "
            "finite number >= 0, got nan\n"
        )

    def test_swap_ac3wn(self, capsys):
        assert main(["run", "--preset", "swap", "--set", "seed=5"]) == 0
        out = capsys.readouterr().out
        assert "ac3wn |     1 | 100.0%" in out
        assert "0 atomicity violations" in out

    def test_swap_nolan(self, capsys):
        assert (
            main(["run", "--preset", "swap", "--set", "protocol=nolan", "--set", "seed=6"])
            == 0
        )
        assert "nolan |     1 | 100.0%" in capsys.readouterr().out

    def test_swap_ring_herlihy(self, capsys):
        """A diameter-3 ring: one chain and one participant per hop."""
        assert (
            main(
                ["run", "--preset", "swap", "--set", "protocol=herlihy",
                 "--set", "seed=7",
                 "--set", 'chains.ids=["chain-0","chain-1","chain-2"]',
                 "--set", "traffic.participants_per_swap=3"]
            )
            == 0
        )
        assert "herlihy |     1 | 100.0%" in capsys.readouterr().out


class TestRun:
    def test_list_presets(self, capsys):
        assert main(["run", "--list-presets"]) == 0
        out = capsys.readouterr().out
        for name in ("engine-smoke", "congestion", "table1", "figure10", "swap"):
            assert name in out

    def test_run_requires_a_source(self, capsys):
        assert main(["run"]) == 2
        assert "pass --preset or --spec" in capsys.readouterr().err

    def test_preset_and_spec_are_exclusive(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text("{}")
        assert main(["run", "--preset", "swap", "--spec", str(path)]) == 2
        assert "not both" in capsys.readouterr().err

    def test_unknown_preset(self, capsys):
        assert main(["run", "--preset", "warp"]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_bad_set_value(self, capsys):
        assert main(["run", "--preset", "swap", "--set", "traffic.swaps=1"]) == 2
        assert "unknown field" in capsys.readouterr().err

    def test_run_preset_with_overrides_and_json(self, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        assert (
            main(
                [
                    "run",
                    "--preset",
                    "swap",
                    "--set",
                    "seed=3",
                    "--json",
                    str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "experiment 'swap' (seed 3)" in out
        assert "0 atomicity violations" in out
        data = json.loads(out_path.read_text())
        assert data["spec"]["seed"] == 3
        assert data["metrics"]["total"] == 1
        assert data["metrics"]["atomicity_violations"] == 0

    def test_run_spec_file(self, tmp_path, capsys):
        from repro.experiment import preset_spec

        path = tmp_path / "spec.json"
        path.write_text(preset_spec("swap").to_json())
        assert main(["run", "--spec", str(path)]) == 0
        assert "commit rate 100.0%" in capsys.readouterr().out

    def test_run_spec_file_with_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"swaps": 3}')
        assert main(["run", "--spec", str(path)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_run_missing_spec_file(self, capsys):
        assert main(["run", "--spec", "/nonexistent/spec.json"]) == 2
        assert "repro run:" in capsys.readouterr().err


class TestListPresetsJson:
    def test_run_list_presets_json(self, capsys):
        assert main(["run", "--list-presets", "--json"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry["description"] for entry in catalog}
        assert "congestion" in by_name
        assert by_name["engine-smoke"]  # descriptions are non-empty

    def test_sweep_list_presets(self, capsys):
        assert main(["sweep", "--list-presets"]) == 0
        out = capsys.readouterr().out
        for name in ("figure10", "table1", "crash-matrix", "congestion-rates"):
            assert name in out

    def test_sweep_list_presets_json(self, capsys):
        assert main(["sweep", "--list-presets", "--json"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in catalog} >= {
            "figure10",
            "table1",
            "crash-matrix",
            "congestion-rates",
        }
        assert all(entry["description"] for entry in catalog)


class TestSweep:
    def test_sweep_requires_a_source(self, capsys):
        assert main(["sweep"]) == 2
        assert "pass --preset or --spec" in capsys.readouterr().err

    def test_unknown_sweep_preset(self, capsys):
        assert main(["sweep", "--preset", "warp"]) == 2
        assert "unknown sweep" in capsys.readouterr().err

    def test_bad_sweep_override_path(self, capsys):
        assert (
            main(["sweep", "--preset", "table1", "--set", "base.traffic.swaps=1"])
            == 2
        )
        assert "unknown field" in capsys.readouterr().err

    def test_sweep_spec_file_with_exports(self, tmp_path, capsys):
        """A small campaign from a spec file: summary table + CSV + JSON."""
        from repro.sweeps import SweepAxis, SweepSpec
        from repro.experiment import preset_spec

        spec = SweepSpec(
            name="cli-tiny",
            base=preset_spec("swap"),
            axes=(
                SweepAxis(
                    name="protocol", path="protocol", values=("ac3wn", "herlihy")
                ),
            ),
        )
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(spec.to_json())
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        assert (
            main(
                [
                    "sweep",
                    "--spec",
                    str(spec_path),
                    "--workers",
                    "2",
                    "--csv",
                    str(csv_path),
                    "--json",
                    str(json_path),
                    "--no-progress",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sweep 'cli-tiny': 2 points" in out
        assert "0 atomicity violations" in out
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("index,name,status,protocol,seed,")
        assert header.endswith(",skip_reason")
        data = json.loads(json_path.read_text())
        assert len(data["points"]) == 2
        assert data["sweep"]["name"] == "cli-tiny"

    def test_sweep_preset_with_override_trims_the_run(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--preset",
                    "congestion-rates",
                    "--set",
                    "base.traffic.num_swaps=4",
                    "--set",
                    'axes=[{"name": "rate", "path": "traffic.rate", "values": [8.0]}]',
                    "--no-progress",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "1 points (4 swaps)" in out

    def test_sweep_json_to_stdout_is_parseable(self, capsys):
        """--json - streams only the artifact to stdout; the narration
        and summary table move to stderr."""
        assert (
            main(
                [
                    "sweep",
                    "--preset",
                    "table1",
                    "--set",
                    "base.traffic.num_swaps=2",
                    "--set",
                    'axes=[{"name": "protocol", "path": "protocol", "values": ["ac3wn"]}]',
                    "--json",
                    "-",
                    "--no-progress",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        data = json.loads(captured.out)  # stdout is pure JSON
        assert len(data["points"]) == 1
        assert "1 points" in captured.err  # the table went to stderr

    def test_run_json_to_stdout_is_parseable(self, capsys):
        assert main(["run", "--preset", "swap", "--json", "-"]) == 0
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert data["metrics"]["total"] == 1
        assert "experiment 'swap'" in captured.err

    def test_sweep_unwritable_output_is_a_clean_error(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--preset",
                    "congestion-rates",
                    "--set",
                    "base.traffic.num_swaps=4",
                    "--set",
                    'axes=[{"name": "rate", "path": "traffic.rate", "values": [8.0]}]',
                    "--csv",
                    "/nonexistent/dir/out.csv",
                    "--no-progress",
                ]
            )
            == 2
        )
        assert "cannot write" in capsys.readouterr().err


class TestAliases:
    """What the removed alias subcommands did, spelled as presets: every
    flag they took is a ``--set`` on ``run`` or ``sweep``."""

    def test_engine_alias_maps_flags_onto_the_spec(self, capsys):
        assert (
            main(
                ["run", "--preset", "engine-smoke",
                 "--set", "traffic.num_swaps=4", "--set", "traffic.rate=5",
                 "--set", 'chains.ids=["chain-0","chain-1"]',
                 "--set", "protocol=mixed", "--set", "seed=1"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "4 swaps over" in out
        assert "0 atomicity violations" in out

    def test_engine_alias_rejects_bad_counts(self, capsys):
        run = ["run", "--preset", "engine-smoke", "--set"]
        assert main(run + ["traffic.num_swaps=0"]) == 2
        assert main(run + ["traffic.participants_per_swap=1"]) == 2

    def test_engine_alias_rejects_mixed_multiparty(self, capsys):
        assert (
            main(["run", "--preset", "engine-smoke",
                  "--set", "traffic.participants_per_swap=3"])
            == 2
        )
        assert "two-party" in capsys.readouterr().err

    def test_congestion_alias_rejects_bad_budget(self, capsys):
        assert (
            main(["run", "--preset", "congestion",
                  "--set", "fee_market.block_weight_budget=0"])
            == 2
        )
        assert "block_weight_budget" in capsys.readouterr().err
        for override, needle in (
            ("fee_market.block_weight_budget=1", "block_weight_budget must be at least 4"),
            ("fee_market.fifo=true", "field 'fifo' was retired: the FIFO mempool fork was removed"),
        ):
            assert main(["run", "--preset", "congestion", "--set", override]) == 2
            err = capsys.readouterr().err
            assert needle in err and "Traceback" not in err
            assert err.count("\n") == 1 and err.startswith("repro run:")

    def test_unwritable_json_path_is_a_clean_error(self, capsys):
        assert (
            main(["run", "--preset", "swap", "--json", "/nonexistent/dir/out.json"])
            == 2
        )
        assert "cannot write" in capsys.readouterr().err

    def test_congestion_alias(self, capsys):
        assert (
            main(["run", "--preset", "congestion", "--set", "traffic.num_swaps=10",
                  "--set", "traffic.rate=10", "--set", "seed=2"])
            == 0
        )
        out = capsys.readouterr().out
        assert "class" in out  # fee-class breakdown table
        assert "miner fees" in out

    def test_crash_sweep_reproduces_the_paper_story(self, tmp_path, capsys):
        """Section 1's table is ``sweep --preset crash-matrix``: it exits
        1 because the HTLC cells violate atomicity, AC3WN's never do."""
        json_path = tmp_path / "crash.json"
        assert (
            main(["sweep", "--preset", "crash-matrix", "--no-progress",
                  "--json", str(json_path)])
            == 1
        )
        assert "2 atomicity violations" in capsys.readouterr().out
        violating = {
            (point["coords"]["onset"], point["coords"]["protocol"])
            for point in json.loads(json_path.read_text())["points"]
            if point["result"]["metrics"]["atomicity_violations"]
        }
        assert violating == {("2.0", "nolan"), ("3.0", "nolan")}

    def test_crash_sweep_rejects_bad_onset(self, capsys):
        onset = {"traffic.crash.participant": "b", "traffic.crash.delay": -1.0}
        axes = [{"name": "onset", "values": [onset], "labels": ["-1"]}]
        assert (
            main(["sweep", "--preset", "crash-matrix", "--no-progress",
                  "--set", f"axes={json.dumps(axes)}"])
            == 2
        )
        assert "repro sweep:" in capsys.readouterr().err


class TestHostileSpecs:
    """Specs the hand-written validation let through — to a traceback
    mid-run, or silently — each now a field declaration or a named
    cross-field rule: exit 2, one ``repro run:`` line naming the path."""

    @pytest.mark.parametrize(
        "override, where",
        [
            # -- died mid-run with a traceback --------------------------------
            ("chains.funding=1", "chains.funding must be at least 115"),
            ('fee_shocks=[{"whale":"swap0000.a"}]', "fee_shocks[0].whale 'swap0000.a'"),
            ("adversary.reorg.attacker=swap0002.a", "adversary.reorg.attacker"),
            # -- accepted silently --------------------------------------------
            ("chains.funding_chunks=0", "chains.funding_chunks must be at least 1"),
            ("traffic.crash.down_for=-1", "traffic.crash.down_for must be non-negative"),
            ("traffic.rate=-5", "traffic.rate must be positive"),
            ("chains.witness=", "chains.witness must not be empty"),
            ('chains.ids=["a",""]', "chains.ids[1] must not be empty"),
            # -- rejected, but without saying which of four budgets ------------
            ('traffic.low_budget={"bump_factor":0.5}',
             "traffic.low_budget.bump_factor must be at least 1.0"),
            # -- a typo offers the nearest key before the list ------------------
            ("traffic.num_swap=3", "unknown field 'num_swap'; did you mean 'num_swaps'?"),
            # -- an eclipse its protocol never triggers (silently disarmed) ----
            (("protocol=herlihy", "adversary.eclipse.phase=decision-wait"),
             "adversary.eclipse.phase 'decision-wait' is never entered by protocol "
             "'herlihy' (phases: publish, settle)"),
        ],
    )
    def test_one_line_naming_the_path(self, capsys, override, where):
        argv = ["run", "--preset", "congestion", "--set", "traffic.num_swaps=4"]
        overrides = override if isinstance(override, tuple) else (override,)
        for pair in overrides:
            argv += ["--set", pair]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro run: ")
        assert captured.err.count("\n") == 1
        assert where in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_any_library_error_is_exit_2_not_a_traceback(self, capsys, monkeypatch):
        """``run`` used to catch ``(SpecError, OSError)`` only; the one
        handler in ``main`` takes every ``ReproError``."""
        from repro import cli
        from repro.errors import InsufficientFundsError

        def broke(spec):
            raise InsufficientFundsError("alice has 1 spendable, needs 10")

        monkeypatch.setattr(cli, "run_experiment", broke)
        assert main(["run", "--preset", "swap"]) == 2
        assert capsys.readouterr().err == "repro run: alice has 1 spendable, needs 10\n"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A campaign database (its sweep spec beside it), a trace, a
    request log and a run result for the readers to export from."""
    root = tmp_path_factory.mktemp("inputs")
    db = TestStoreCli()._run_store_sweep(root)
    trace, log = str(root / "trace.jsonl"), str(root / "requests.jsonl")
    result = str(root / "result.json")
    assert main(["run", "--preset", "swap", "--trace", trace, "--json", result]) == 0
    serve = ["serve", "--preset", "serve-steady", "--set", "capacity=8", "--duration", "3"]
    assert main(serve + ["--request-log", log]) == 0
    return db, trace, log, result


class TestOneWriter:
    """Every artifact the CLI writes goes through ``_emit``: ``-`` is
    stdout, a path is replaced atomically, a failure is exit 2 saying
    ``cannot write PATH``."""

    def exports(self, inputs, target):
        db, trace, log, _ = inputs
        return [
            ["run", "--preset", "swap", "--set", "traffic.num_swaps=1", "--json", target],
            ["replay", log, "--json", target],
            ["trace", trace, "--series", target],
            ["query", "commit_rate >= 0", "--db", db, "-o", target],
            ["compare", db, db, "--csv", target],
            ["compare", db, db, "--json", target],
            ["store", "artifact", "--db", db, "--point", "0", "-o", target],
            ["sweep", "--spec", str(Path(db).parent / "sweep.json"), "--no-progress",
             "--csv", target],
            ["sweep", "--spec", str(Path(db).parent / "sweep.json"), "--no-progress",
             "--json", target],
        ]

    def test_a_path_is_replaced_atomically(self, inputs, tmp_path, monkeypatch, capsys):
        opened = []
        real_open = open

        def spying_open(file, mode="r", *args, **kwargs):
            if "w" in mode:
                opened.append(Path(file).name)
            return real_open(file, mode, *args, **kwargs)

        argvs = self.exports(inputs, str(tmp_path / "out"))
        monkeypatch.setattr("builtins.open", spying_open)
        for argv in argvs:
            assert main(argv) == 0
        monkeypatch.undo()
        assert opened == ["out.tmp"] * len(argvs)
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_an_unwritable_path_is_exit_2(self, inputs, capsys):
        for argv in self.exports(inputs, "/nonexistent/dir/out"):
            capsys.readouterr()
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"repro {argv[0]}: cannot write /nonexistent/dir/out: ")
            assert err.count("\n") == 1

    def test_trace_swap_and_series_are_exclusive(self, inputs, tmp_path, capsys):
        """``--swap`` used to win silently: exit 0, and the CSV never written."""
        trace = inputs[1]
        target = tmp_path / "series.csv"
        capsys.readouterr()
        assert main(["trace", trace, "--swap", "0", "--series", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "repro trace: pass either --swap or --series, not both\n"
        assert captured.out == "" and not target.exists()

    def test_stdout_gets_the_file_bytes_and_the_tables_move_to_stderr(
        self, inputs, tmp_path, capsys
    ):
        for argv in self.exports(inputs, str(tmp_path / "out")):
            assert main(argv) == 0
            capsys.readouterr()
            assert main(argv[:-1] + ["-"]) == 0
            assert capsys.readouterr().out == (tmp_path / "out").read_text()


def _commands(parser=None, prefix=()):
    """``(command words, subparser)`` of every leaf subcommand."""
    parser = parser or build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, prefix + (name,))
            return
    yield prefix, parser


#: Options that name a file, by metavar or (for positionals) by dest.
PATH_METAVARS = {"PATH", "FILE", "DB", "CKPT"}
PATH_DESTS = {"spec", "log", "file", "db_a", "db_b"}
#: Options that are neither a number nor a file.
NEITHER = {"preset", "set", "campaign", "a", "b", "expr", "format", "path"}
#: Hostile values: zero, negative, not finite, and a path under a
#: directory that does not exist.
HOSTILE = ("0", "-1", "nan", "inf", "missing/dir/x")


def _kind(action) -> str:
    if action.type in (int, float):
        return "number"
    if action.choices is None and (
        action.metavar in PATH_METAVARS or action.dest in PATH_DESTS
    ):
        return "path"
    if action.nargs == 0 or action.choices is not None or action.dest in NEITHER:
        return "neither"
    return "unclassified"


def _front_door_cases():
    for words, sub in _commands():
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction) or _kind(action) == "neither":
                continue
            flag = action.option_strings[0] if action.option_strings else action.dest
            for value in HOSTILE:
                yield pytest.param(words, action, value, id=f"{' '.join(words)} {flag}={value}")


class TestFrontDoor:
    """Every number and every file the CLI takes, given a hostile value
    on a cheap command line, in process: the command runs or is refused,
    never more.  Exit 0, 1 or 2 and no traceback; exit 2 prints exactly
    one ``repro <cmd>:`` line and leaves the working directory as it was
    (a refused command writes nothing and creates no database); and no
    number is ``nan`` or ``inf``.  The cases are generated from the
    parser, so a new option is checked the day it lands."""

    def base(self, inputs, words, action, value):
        """The cheap command line for ``words`` with ``action`` set to ``value``."""
        db, trace, log, result = inputs
        sweep = str(Path(db).parent / "sweep.json")
        base = {
            ("run",): ["run", "--preset", "swap"],
            ("serve",): ["serve", "--preset", "serve-steady", "--max-swaps", "2"],
            ("replay",): ["replay", "{log}"],
            ("trace",): ["trace", "{file}"],
            ("alerts",): ["alerts", "{file}"],
            ("sweep",): ["sweep", "--spec", sweep, "--no-progress"],
            ("figure10",): ["figure10"],
            ("witness-depth",): ["witness-depth"],
            ("query",): ["query", "commit_rate >= 0", "--db", db],
            ("compare",): ["compare", "{db_a}", "{db_b}"],
            ("store", "ingest"): ["store", "ingest", result, "{paths}", "--db", "new.db"],
            ("store", "list"): ["store", "list", "--db", db],
            ("store", "artifact"): ["store", "artifact", "--db", db, "--point", "0"],
        }[words]
        if action.option_strings[:1] in (["--spec"], ["--restore"]) and "--preset" in base:
            at = base.index("--preset")  # the value under test is the source
            base = base[:at] + base[at + 2 :]
        if action.option_strings[:1] == ["--checkpoint-every"]:
            base = base + ["--checkpoint", "ck.json"]
        slots = {"log": log, "file": trace, "db_a": db, "db_b": db, "paths": result}
        slots[action.dest] = value
        argv = [slots.get(arg[1:-1], arg) if arg[:1] == "{" else arg for arg in base]
        return argv if not action.option_strings else argv + [action.option_strings[0], value]

    def test_every_option_is_classified(self):
        unclassified = [
            f"{' '.join(words)} {action.dest}"
            for words, sub in _commands()
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction) and _kind(action) == "unclassified"
        ]
        assert not unclassified, f"a number, a path, or add it to NEITHER: {unclassified}"

    @pytest.mark.parametrize("words, action, value", _front_door_cases())
    def test_a_hostile_value_runs_or_is_refused_in_one_line(
        self, inputs, words, action, value, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        argv = self.base(inputs, words, action, value)
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse refused the value
            status = exc.code
        out, err = capsys.readouterr()
        assert status in (0, 1, 2), argv
        assert "Traceback" not in out + err
        if _kind(action) == "number" and value in ("nan", "inf"):
            assert status == 2, f"{argv} accepted a number that is not finite"
        if status == 2:
            said = [line for line in err.splitlines() if line.startswith(f"repro {words[0]}")]
            assert len(said) == 1, err
            assert list(tmp_path.iterdir()) == [], f"{argv} was refused but wrote files"


class TestDescribe:
    def test_whole_tree_subtree_and_single_field(self, capsys):
        assert main(["describe", "run"]) == 0
        tree = capsys.readouterr().out
        assert tree.startswith("ExperimentSpec\n    name: str = \"experiment\"")
        assert main(["describe", "run", "traffic.crash"]) == 0
        subtree = capsys.readouterr().out.splitlines()
        assert subtree[0] == "traffic.crash: CrashSpec"
        assert all(f"    {line}" in tree for line in subtree[1:])
        assert main(["describe", "sweep", "base.traffic.rate"]) == 0
        assert capsys.readouterr().out == (
            "base.traffic.rate: float = 10.0  # positive; mean open-loop arrivals per second\n"
        )
        assert main(["describe", "serve", "sources.rate"]) == 0
        assert capsys.readouterr().out.startswith("sources.rate: float = 4.0  # positive")

    @pytest.mark.parametrize(
        "argv, said",
        [
            (["run", "traffic.crsh"], "unknown field 'crsh'; did you mean 'crash'?"),
            (["serve", "capacity.x"], "'capacity' has no nested fields"),
        ],
    )
    def test_unknown_path_is_exit_2(self, capsys, argv, said):
        assert main(["describe"] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro describe: ") and said in err and err.count("\n") == 1


class TestSweepResume:
    def _tiny_spec(self, tmp_path):
        from repro.experiment import preset_spec
        from repro.sweeps import SweepAxis, SweepSpec

        spec = SweepSpec(
            name="cli-resume",
            base=preset_spec("swap"),
            axes=(
                SweepAxis(
                    name="protocol", path="protocol", values=("ac3wn", "herlihy")
                ),
            ),
        )
        path = tmp_path / "sweep.json"
        path.write_text(spec.to_json())
        return path

    def test_resume_skips_stored_points(self, tmp_path, capsys):
        """A half-archived campaign re-executes only what is missing."""
        from repro.store import CampaignStore

        spec_path = self._tiny_spec(tmp_path)
        db = str(tmp_path / "camp.db")
        fresh_json = tmp_path / "fresh.json"
        resumed_json = tmp_path / "resumed.json"
        args = ["sweep", "--spec", str(spec_path), "--no-progress", "--store", db]
        assert main(args + ["--json", str(fresh_json)]) == 0
        assert "resumed 0 point(s)" in capsys.readouterr().out
        with CampaignStore(db) as store:
            (campaign,) = store.campaigns()
            assert [p["index"] for p in store.points(campaign.campaign_id)] == [0, 1]
            store.conn.execute("DELETE FROM points WHERE point_index = 1")
        assert main(args + ["--json", str(resumed_json)]) == 0
        assert "resumed 1 point(s)" in capsys.readouterr().out
        assert fresh_json.read_bytes() == resumed_json.read_bytes()


class TestAdversaryCli:
    def test_security_presets_listed(self, capsys):
        assert main(["run", "--list-presets"]) == 0
        assert "security" in capsys.readouterr().out
        assert main(["sweep", "--list-presets"]) == 0
        out = capsys.readouterr().out
        assert "security-matrix" in out and "security-smoke" in out

    def test_attacked_run_exits_zero_despite_violations(self, tmp_path, capsys):
        """Violations under an armed adversary are the measurement, not
        a failure: the honest-run exit gate must not fire."""
        json_path = tmp_path / "security.json"
        assert (
            main(
                [
                    "run",
                    "--preset",
                    "security",
                    "--set",
                    "protocol=nolan",
                    "--set",
                    "chains.confirmation_depth=1",
                    "--set",
                    "traffic.num_swaps=6",
                    "--json",
                    str(json_path),
                ]
            )
            == 0
        )
        data = json.loads(json_path.read_text())
        assert data["reports"]["adversary"]["reorg"]["attacks_launched"] >= 1
        assert "chain_reorgs" in data


class TestStoreCli:
    """The campaign-datastore surfaces: sweep --store, query, compare,
    and the store ingest/list/artifact actions."""

    def _tiny_spec(self, tmp_path):
        from repro.experiment import preset_spec
        from repro.sweeps import SweepAxis, SweepSpec

        spec = SweepSpec(
            name="cli-store",
            base=preset_spec("swap"),
            axes=(
                SweepAxis(
                    name="protocol", path="protocol", values=("ac3wn", "herlihy")
                ),
            ),
        )
        path = tmp_path / "sweep.json"
        path.write_text(spec.to_json())
        return path

    def _run_store_sweep(self, tmp_path, db=None):
        spec_path = self._tiny_spec(tmp_path)
        db = db or str(tmp_path / "camp.db")
        assert (
            main(
                ["sweep", "--spec", str(spec_path), "--no-progress",
                 "--store", db]
            )
            == 0
        )
        return db

    def test_sweep_store_roundtrip_and_resume(self, tmp_path, capsys):
        spec_path = self._tiny_spec(tmp_path)
        db = str(tmp_path / "camp.db")
        fresh_json = tmp_path / "fresh.json"
        resumed_json = tmp_path / "resumed.json"
        args = ["sweep", "--spec", str(spec_path), "--no-progress",
                "--store", db]
        assert main(args + ["--json", str(fresh_json)]) == 0
        assert "resumed 0 point(s)" in capsys.readouterr().out
        assert main(args + ["--json", str(resumed_json)]) == 0
        assert "resumed 2 point(s)" in capsys.readouterr().out
        assert fresh_json.read_bytes() == resumed_json.read_bytes()

    def test_query_formats_and_empty_match(self, tmp_path, capsys):
        db = self._run_store_sweep(tmp_path)
        capsys.readouterr()
        assert main(["query", "commit_rate >= 0", "--db", db]) == 0
        captured = capsys.readouterr()
        assert "cli-store" in captured.out
        assert "2 matching point(s)" in captured.err
        assert (
            main(["query", "protocol = 'herlihy'", "--db", db,
                  "--format", "csv"])
            == 0
        )
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("campaign,campaign_id,index,")
        assert main(["query", "commit_rate >= 0", "--db", db,
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["index"] for row in rows] == [0, 1]
        # Matching nothing is still success.
        assert main(["query", "commit_rate > 2", "--db", db]) == 0
        assert "0 matching point(s)" in capsys.readouterr().err

    def test_query_errors_exit_2(self, tmp_path, capsys):
        db = self._run_store_sweep(tmp_path)
        capsys.readouterr()
        assert main(["query", "commit_rate <", "--db", db]) == 2
        assert "repro query:" in capsys.readouterr().err
        # A directory is not a database: clean error, not a traceback.
        assert main(["query", "x > 1", "--db", str(tmp_path)]) == 2
        assert "repro query:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "commit_rate >= 0", "--db", "MISSING"],
            ["store", "list", "--db", "MISSING"],
            ["store", "artifact", "--db", "MISSING", "--point", "0"],
            ["compare", "MISSING", "MISSING"],
            ["compare", "EMPTY", "MISSING"],
        ],
    )
    def test_a_reader_refuses_a_missing_database_and_creates_none(
        self, tmp_path, capsys, argv
    ):
        """Opening a path creates a database there: a mistyped ``--db``
        used to leave a fresh empty file and report zero matches."""
        from repro.store import CampaignStore

        missing, empty = str(tmp_path / "missing.db"), str(tmp_path / "empty.db")
        CampaignStore(empty).close()
        argv = [{"MISSING": missing, "EMPTY": empty}.get(arg, arg) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"repro {argv[0]}: no campaign database at {missing!r}\n"
        assert captured.out == ""
        assert not os.path.exists(missing)

    def test_compare_self_is_clean(self, tmp_path, capsys):
        db = self._run_store_sweep(tmp_path)
        capsys.readouterr()
        csv_path = tmp_path / "diff.csv"
        assert main(["compare", db, db, "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out
        header = csv_path.read_text().splitlines()[0]
        assert header == "coords,metric,a,b,delta,rel_change,direction,regression"

    def test_compare_flags_regressions_with_exit_1(self, tmp_path, capsys):
        from repro.store import CampaignStore

        db = str(tmp_path / "camp.db")
        with CampaignStore(db) as store:
            for name, rate in (("a", 0.9), ("b", 0.4)):
                cid = store.create_campaign(name)
                store.append_point(
                    cid, 0, coords={"protocol": "ac3wn"},
                    row={"index": 0, "total": 10, "commit_rate": rate},
                )
        assert main(["compare", db, "--a", "a", "--b", "b"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "commit_rate" in out
        # The latest-vs-previous default: campaigns share a name.
        with CampaignStore(db) as store:
            for rate in (0.9, 0.4):
                cid = store.create_campaign("bench", kind="sweep")
                store.append_point(
                    cid, 0, coords={"protocol": "ac3wn"},
                    row={"index": 0, "total": 10, "commit_rate": rate},
                )
        assert main(["compare", db, "--b", "bench"]) == 1
        # A threshold no change can exceed would turn the gate off.
        for threshold in ("nan", "inf"):
            capsys.readouterr()
            assert main(["compare", db, "--b", "bench", "--threshold", threshold]) == 2
            assert capsys.readouterr().err == (
                f"repro compare: threshold must be a finite number >= 0, got {threshold}\n"
            )

    def test_store_list_and_artifact(self, tmp_path, capsys):
        db = self._run_store_sweep(tmp_path)
        capsys.readouterr()
        assert main(["store", "list", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "cli-store" in out and "2 point(s)" in out
        assert main(["store", "list", "--db", db, "--json"]) == 0
        infos = json.loads(capsys.readouterr().out)
        assert infos[0]["points"] == 2
        # Recovered artifact bytes equal the stored blob exactly.
        from repro.store import CampaignStore

        out_path = tmp_path / "p0.json"
        assert main(["store", "artifact", "--db", db, "--point", "0",
                     "-o", str(out_path)]) == 0
        artifact = json.loads(out_path.read_text())
        assert artifact["spec"]["protocol"] == "ac3wn"
        with CampaignStore(db) as store:
            cid = store.campaigns()[0].campaign_id
            assert out_path.read_text() == store.get_artifact(cid, 0)
        assert main(["store", "artifact", "--db", db, "--point", "9"]) == 2
