"""The phase tables: each protocol's phases are declared once, as data.

A driver's ``PHASES`` rows (name, step, deadline, successors) are run by
the one interpreter, ``ProtocolDriver._advance``.  These tests pin that
the tables are the only spelling of the phases (docs, the eclipse choice
set, the announced phase events) and that the interpreter holds every
transition to its row — including hand mutants of the tables, each of
which the scenario oracle below must notice.
"""

import dataclasses
import difflib
import re
from pathlib import Path

import pytest

from repro.adversary.spec import driver_phases
from repro.core.ac3tw import AC3TWConfig, AC3TWDriver, TrustedWitness
from repro.core.ac3wn import AC3WNConfig, AC3WNDriver
from repro.core.driver import END, SETTLE, ProtocolDriver
from repro.core.herlihy import HerlihyDriver
from repro.core.nolan import NolanDriver
from repro.errors import ProtocolError, ReproError
from repro.experiment import apply_overrides, preset_spec, run_experiment
from repro.workloads.graphs import two_party_swap
from repro.workloads.scenarios import build_scenario

ROOT = Path(__file__).parent.parent
DRIVERS = (NolanDriver, HerlihyDriver, AC3TWDriver, AC3WNDriver)
BLOCK = re.compile(r"^```text phase tables\n(.*?)^```$", re.M | re.S)


def rendered_tables() -> str:
    return "\n".join(cls.describe_phases() for cls in DRIVERS) + "\n"


class TestTablesAreTheSpelling:
    def test_docs_block_is_the_rendered_tables(self):
        page = (ROOT / "docs" / "protocols.md").read_text(encoding="utf-8")
        (committed,) = BLOCK.findall(page)
        diff = "".join(
            difflib.unified_diff(
                committed.splitlines(True),
                rendered_tables().splitlines(True),
                "docs/protocols.md (committed)",
                "ProtocolDriver.describe_phases()",
            )
        )
        assert not diff, f"docs/protocols.md is stale; paste the rendered tables:\n{diff}"

    def test_the_eclipse_choice_set_is_the_union_of_the_tables(self):
        union = tuple(dict.fromkeys(p for cls in DRIVERS for p in cls.phase_names()))
        assert driver_phases() == union
        assert set(union) == {"publish", "scw-wait", "deploy", "decision-wait", "settle"}

    def test_every_successor_is_a_row_and_every_row_a_method(self):
        for cls in DRIVERS:
            names = cls.phase_names()
            assert len(set(names)) == len(names), cls
            for row in cls.PHASES:
                assert set(row.progress + row.expiry) <= set(names) | {END}, row
                assert callable(getattr(cls, row.step)), row
            # Every protocol settles in a row named like the shared one,
            # which is what settle-keyed adversaries key on.
            assert SETTLE.name in names

    def test_no_phase_literal_outside_the_tables(self):
        literal = re.compile(
            r"self\._phase\s*=\s*[\"']|_phase\s*==\s*[\"']|_set_phase\(\s*[\"']"
        )
        for path in sorted((ROOT / "src" / "repro" / "core").glob("*.py")):
            found = literal.findall(path.read_text(encoding="utf-8"))
            assert not found, f"{path.name}: {found}"

    def test_every_announced_phase_is_a_declared_row(self, monkeypatch):
        heard = []
        start = ProtocolDriver.start

        def listening_start(driver):
            driver.on_phase.append(lambda phase: heard.append((type(driver), phase)))
            return start(driver)

        monkeypatch.setattr(ProtocolDriver, "start", listening_start)
        run_experiment(apply_overrides(preset_spec("engine-smoke"), {"protocol": "mixed"}))
        assert {cls for cls, _ in heard} == set(DRIVERS)
        for cls, phase in heard:
            assert phase in cls.phase_names(), (cls.protocol_name, phase)


# ---------------------------------------------------------------------------
# The interpreter and the scenario oracle
# ---------------------------------------------------------------------------

#: Distinct timeouts (Δ = 2 s, so AC3WN's witness_timeout = 4Δ = 8 s),
#: so that moving one row's deadline onto another row shows.
TIMEOUTS = {"deploy_timeout": 5.0, "settle_timeout": 20.0}
#: The seconds each witness-protocol row must arm on entry.
EXPECTED_TIMEOUT = {
    AC3WNDriver: {"scw-wait": 8.0, "deploy": 5.0, "decision-wait": 8.0, "settle": 20.0},
    AC3TWDriver: {"deploy": 5.0, "settle": 20.0},
}


def base_of(driver_cls):
    return next(base for base in EXPECTED_TIMEOUT if issubclass(driver_cls, base))


def phase_run(driver_cls, decliners=(), crash_at_settle=False):
    """One two-party swap of an AC3WN or AC3TW driver class, bounded to
    200 sim-seconds: the rows entered as ``{phase: (entered_at, deadline
    - entered_at)}`` and the finished driver (or the library error the
    run raised)."""
    graph = two_party_swap(chain_a="a", chain_b="b", timestamp=61)
    env = build_scenario(graph=graph, seed=61)
    env.warm_up(2)
    decliners = frozenset(decliners)
    if base_of(driver_cls) is AC3WNDriver:
        config = AC3WNConfig("witness", decliners=decliners, **TIMEOUTS)
        driver = driver_cls(env, graph, config)
    else:
        config = AC3TWConfig(decliners=decliners, **TIMEOUTS)
        driver = driver_cls(env, graph, TrustedWitness(env.chains), config)
    entered = {}

    def on_phase(phase):
        now = env.simulator.now
        entered[phase] = (now, driver._deadline - now)
        if crash_at_settle and phase == SETTLE.name:
            env.participant("bob").crash()

    driver.on_phase.append(on_phase)
    try:
        driver.start()
        env.simulator.run_until_true(lambda: driver.finished, timeout=200.0)
    except ReproError as exc:
        return entered, exc
    return entered, driver


def violations(driver_cls) -> list[str]:
    """What the witness protocols' rows must do, checked on two swaps;
    [] = all held."""
    expected = EXPECTED_TIMEOUT[base_of(driver_cls)]
    found = []
    # Bob declines: deploy expires exactly deploy_timeout after entry and
    # the swap aborts through every row.
    entered, driver = phase_run(driver_cls, decliners=("bob",))
    if isinstance(driver, Exception):
        return [f"abort run raised {driver}"]
    if list(entered) != list(expected):
        found.append(f"abort run entered {list(entered)}")
    for phase, (_, timeout) in entered.items():
        if timeout != expected.get(phase):
            found.append(f"{phase} armed {timeout} s")
    after_deploy = list(expected)[list(expected).index("deploy") + 1]
    if not driver.finished or driver.outcome.decision != "abort":
        found.append(f"abort run ended {driver.outcome.decision!r}")
    elif entered[after_deploy][0] != entered["deploy"][0] + 5.0:
        found.append("deploy did not expire on time")
    # Bob crashes for good as settle begins: settle expires on time.
    entered, driver = phase_run(driver_cls, crash_at_settle=True)
    if isinstance(driver, Exception):
        return found + [f"commit run raised {driver}"]
    if driver.outcome.decision != "commit" or not driver.finished:
        found.append(f"commit run ended {driver.outcome.decision!r}")
    elif driver.outcome.finished_at != entered[SETTLE.name][0] + 20.0:
        found.append("settle did not expire on time")
    return found


def mutant(base, **edits):
    """A subclass of ``base`` whose table has the named rows' fields
    replaced, with the attributes in ``members`` set on it."""
    members = edits.pop("members", {})
    rows = tuple(dataclasses.replace(row, **edits.get(row.name, {})) for row in base.PHASES)
    return type(f"Mutant{base.__name__}", (base,), {"PHASES": rows, **members})


def skip_decision(self, expired):
    successor = AC3WNDriver._deploy(self, expired)
    return SETTLE.name if successor == "decision-wait" else successor


SKIP_EDIT = {"progress": (SETTLE.name,), "expiry": (SETTLE.name,)}
MUTANTS = {
    "ac3wn deploy deadline dropped": mutant(
        AC3WNDriver, deploy={"deadline": "_never"}, members={"_never": 1e9}
    ),
    "ac3wn scw-wait deadline dropped": mutant(
        AC3WNDriver, **{"scw-wait": {"deadline": "_never"}}, members={"_never": 1e9}
    ),
    "ac3wn deploy/settle deadlines swapped": mutant(
        AC3WNDriver,
        deploy={"deadline": "_settle_timeout"},
        settle={"deadline": "_deploy_timeout"},
    ),
    "ac3wn decision-wait skipped": mutant(
        AC3WNDriver, deploy=SKIP_EDIT, members={"_deploy": skip_decision}
    ),
    "ac3tw deploy deadline dropped": mutant(
        AC3TWDriver, deploy={"deadline": "_never"}, members={"_never": 1e9}
    ),
    "ac3tw deploy/settle deadlines swapped": mutant(
        AC3TWDriver,
        deploy={"deadline": "_settle_timeout"},
        settle={"deadline": "_deploy_timeout"},
    ),
}


class TestInterpreter:
    @pytest.mark.parametrize("driver_cls", [AC3WNDriver, AC3TWDriver])
    def test_the_tables_hold_on_both_scenarios(self, driver_cls):
        assert violations(driver_cls) == []

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_each_table_mutant_is_noticed(self, name):
        assert violations(MUTANTS[name]), f"mutant survived: {name}"

    def test_an_undeclared_successor_is_a_protocol_error(self):
        # The step still returns "decision-wait"; the row no longer says so.
        entered, error = phase_run(mutant(AC3WNDriver, deploy=SKIP_EDIT), decliners=("bob",))
        assert isinstance(error, ProtocolError)
        assert "phase 'deploy' cannot move to 'decision-wait' at its deadline" in str(error)
        assert list(entered) == ["scw-wait", "deploy"]
