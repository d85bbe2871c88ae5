"""Crash-failure experiments (the paper's Section 1 motivation, E7).

The HTLC baselines violate all-or-nothing atomicity when a participant
crashes past a timelock; AC3WN never does.  These tests pin both facts.
"""

import functools

import pytest

from repro.core.ac3wn import AC3WNConfig, AC3WNDriver, run_ac3wn
from repro.core.herlihy import run_herlihy
from repro.core.nolan import run_nolan
from repro.sim.failures import FailureSchedule
from repro.workloads.graphs import directed_cycle, two_party_swap
from repro.workloads.scenarios import build_scenario


def fresh_env(timestamp, seed, graph_factory=two_party_swap, **kwargs):
    graph = graph_factory(chain_a="a", chain_b="b", timestamp=timestamp, **kwargs) \
        if graph_factory is two_party_swap else graph_factory(timestamp=timestamp)
    env = build_scenario(graph=graph, seed=seed)
    env.warm_up(2)
    return env, graph


class TestNolanUnderCrash:
    def test_recipient_crash_past_timelock_loses_assets(self):
        """The paper's exact scenario: Bob crashes after Alice redeems;
        SC1's timelock expires; Alice refunds SC1 — Bob ends up worse."""
        env, graph = fresh_env(timestamp=1, seed=41)
        # Under the eager (on-block-hook) cadence both contracts confirm
        # by t≈4.5 and Alice's reveal lands at t≈6; Bob crashes inside
        # that window and recovers only after every timelock expired.
        env.apply_failures(FailureSchedule().crash("bob", start=5.5, end=500.0))
        outcome = run_nolan(env, graph)
        assert outcome.decision == "mixed"
        assert not outcome.is_atomic
        states = outcome.final_states()
        # Bob's incoming asset was redeemed by Alice…
        assert states["bob->alice@b"] == "RD"
        # …while the asset destined to Bob went back to Alice.
        assert states["alice->bob@a"] == "RF"

    def test_crash_before_any_deploy_is_safe(self):
        """A crash before step 1 simply prevents the swap: no asset moves."""
        graph = two_party_swap(chain_a="a", chain_b="b", timestamp=2)
        env = build_scenario(graph=graph, seed=42)
        # Crash *before* the warm-up so Alice is down from the very start.
        env.apply_failures(FailureSchedule().crash("alice", start=0.0, end=None))
        env.warm_up(2)
        outcome = run_nolan(env, graph)
        assert outcome.is_atomic
        assert all(
            record.final_state in ("unpublished", "RF")
            for record in outcome.contracts.values()
        )

    def test_short_crash_within_margin_is_survivable(self):
        """A brief outage that ends before the timelocks is harmless."""
        env, graph = fresh_env(timestamp=3, seed=43)
        env.apply_failures(FailureSchedule().crash("bob", start=8.0, end=10.0))
        outcome = run_nolan(env, graph)
        assert outcome.decision == "commit"
        assert outcome.is_atomic


class TestAC3WNUnderCrash:
    def test_same_crash_preserves_atomicity(self):
        """AC3WN under the identical failure: Bob redeems after recovery."""
        env, graph = fresh_env(timestamp=4, seed=44)
        env.apply_failures(FailureSchedule().crash("bob", start=8.0, end=60.0))
        outcome = run_ac3wn(
            env, graph, witness_chain_id="witness", settle_timeout=100.0
        )
        assert outcome.decision == "commit"
        assert outcome.is_atomic
        assert all(r.final_state == "RD" for r in outcome.contracts.values())

    def test_permanent_crash_never_violates_atomicity(self):
        """Even if Bob never recovers, no contract is ever refunded once
        RDauth exists: the decided side is the only one that can settle."""
        env, graph = fresh_env(timestamp=5, seed=45)
        env.apply_failures(FailureSchedule().crash("bob", start=8.0, end=None))
        outcome = run_ac3wn(env, graph, witness_chain_id="witness")
        assert outcome.is_atomic
        states = outcome.final_states()
        # Bob's own redemption is pending (he is down), but nothing
        # conflicts with the commit decision.
        assert states["bob->alice@b"] == "RD"  # Alice is alive and redeems
        assert states["alice->bob@a"] in ("P", "RD")
        assert "RF" not in states.values()

    def test_crash_before_deploy_aborts_atomically(self):
        """If Bob crashes before publishing, the swap aborts and Alice's
        published contract refunds — all-or-nothing holds."""
        graph = two_party_swap(chain_a="a", chain_b="b", timestamp=6)
        env = build_scenario(graph=graph, seed=46)
        env.apply_failures(FailureSchedule().crash("bob", start=0.0, end=None))
        env.warm_up(2)
        outcome = run_ac3wn(env, graph, witness_chain_id="witness")
        assert outcome.decision == "abort"
        assert outcome.is_atomic
        states = outcome.final_states()
        assert states["alice->bob@a"] == "RF"
        assert states["bob->alice@b"] == "unpublished"

    def test_registrar_crash_with_fallback(self):
        """If the registrar is down at start, any alive participant
        registers SCw instead (first alive in name order)."""
        graph = two_party_swap(chain_a="a", chain_b="b", timestamp=7)
        env = build_scenario(graph=graph, seed=47)
        env.apply_failures(FailureSchedule().crash("alice", start=0.0, end=None))
        env.warm_up(2)
        outcome = run_ac3wn(env, graph, witness_chain_id="witness")
        # Bob registered; Alice (crashed) never deployed: abort, atomic.
        assert outcome.decision == "abort"
        assert outcome.is_atomic

    def test_multiparty_crash_mid_deployment(self):
        graph = directed_cycle(3, chain_ids=["c0", "c1", "c2"], timestamp=8)
        env = build_scenario(graph=graph, seed=48)
        env.warm_up(2)
        env.apply_failures(FailureSchedule().crash("p01", start=4.5, end=None))
        outcome = run_ac3wn(env, graph, witness_chain_id="witness")
        assert outcome.is_atomic
        # Whatever was decided, there is no RD/RF mix.
        assert outcome.decision in ("commit", "abort")


def own_steps(outcome, victim):
    """When the victim's own messages landed: the deploys it is the
    source of and the redeems it is the recipient of."""
    steps = {}
    for key, record in outcome.contracts.items():
        if record.edge.source == victim:
            steps[f"deploy {key}"] = record.deployed_at
        if record.edge.recipient == victim:
            steps[f"redeem {key}"] = record.settled_at
    return steps


class TestIsolationWindows:
    """An unreachable party is a crashed party for that window — the one
    fault model (docs/protocols.md, "Fault model"); there is no message
    layer to partition.  Each case first proves the fault took effect
    (the victim is crashed inside the window, and a step of its own
    lands later than in the same seed's fault-free run) and only then
    asserts safety; the Herlihy leg shows the harness can see a
    violation."""

    OUTAGE = 5.0

    def isolated(self, run, victim, start, length):
        """``run`` on the fresh seed-49 world with ``victim`` down for
        ``[start, start + length)``; fails unless it really was."""
        env, graph = fresh_env(timestamp=9, seed=49)
        env.apply_failures(
            FailureSchedule().crash(victim, start=start, end=start + length)
        )
        seen = []
        env.simulator.schedule_at(
            start + length / 2, lambda: seen.append(env.participant(victim).crashed)
        )
        outcome = run(env, graph)
        assert seen == [True], f"{victim} was not down inside its outage window"
        return outcome

    @pytest.fixture(scope="class")
    def fault_free(self):
        """The same seed with no fault, and when it entered each phase."""
        env, graph = fresh_env(timestamp=9, seed=49)
        driver = AC3WNDriver(env, graph, AC3WNConfig(witness_chain_id="witness"))
        entered = {}
        driver.on_phase.append(lambda phase: entered.setdefault(phase, env.simulator.now))
        return driver.run(), entered

    @pytest.mark.parametrize("victim", ["alice", "bob"])
    @pytest.mark.parametrize("phase", ["scw-wait", "deploy", "decision-wait", "settle"])
    def test_ac3wn_outage_delays_the_victim_and_nothing_else(self, fault_free, phase, victim):
        baseline, entered = fault_free
        assert baseline.decision == "commit" and baseline.all_settled
        outcome = self.isolated(
            functools.partial(run_ac3wn, witness_chain_id="witness"),
            victim, entered[phase], self.OUTAGE,
        )
        before, after = own_steps(baseline, victim), own_steps(outcome, victim)
        delayed = {step for step in before if after[step] > before[step]}
        # The victim deploys in "deploy" and redeems in "settle"; it has
        # nothing to send in "scw-wait" or "decision-wait", so an outage
        # that starts there is first felt by its next step.
        expected = "deploy" if phase in ("scw-wait", "deploy") else "redeem"
        assert any(step.startswith(expected) for step in delayed), (before, after)
        # Safety, and liveness after recovery: same decision, for everyone.
        assert outcome.is_atomic and outcome.all_settled
        assert outcome.decision == "commit"
        assert outcome.finished_at >= entered[phase] + self.OUTAGE

    def test_the_same_harness_sees_the_herlihy_violation(self, fault_free):
        """Section 1's schedule: Bob is unreachable from just after the
        contracts confirm until past the timelocks.  Herlihy ends mixed;
        AC3WN under the identical window settles for both parties."""
        start, length = 5.5, 14.5
        herlihy = self.isolated(run_herlihy, "bob", start, length)
        assert not herlihy.is_atomic and herlihy.decision == "mixed"
        assert herlihy.final_states() == {"alice->bob@a": "RF", "bob->alice@b": "RD"}
        # A decision never expires; only the driver's patience (4Δ by
        # default) has to outlast the window.
        ac3wn = self.isolated(
            functools.partial(run_ac3wn, witness_chain_id="witness", settle_timeout=60.0),
            "bob", start, length,
        )
        assert ac3wn.is_atomic and ac3wn.all_settled and ac3wn.decision == "commit"
        assert own_steps(ac3wn, "bob")["redeem alice->bob@a"] >= start + length
