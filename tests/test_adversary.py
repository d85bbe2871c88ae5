"""The adversary subsystem: Byzantine actors, reorg attacks, and the
empirical Section 6.3 security matrix.

Covers the AdversarySpec serde/validation surface, each actor's
mechanics (budgeted reorg attacker, censoring miner, Byzantine
participant, phase-keyed eclipse), the Blockchain reorg-listener hook,
attack attribution into SwapOutcome/EngineMetrics, determinism of
attacked runs, and the violation-rate surface extractors.
"""

import dataclasses

import pytest

from repro.adversary import (
    AdversarySpec,
    ByzantineSpec,
    CensorSpec,
    EclipseSpec,
    ReorgAttackSpec,
    decision_chain,
)
from repro.analysis.security import required_depth
from repro.chain.miner import AttackMiner
from repro.core.ac3wn import AC3WNDriver
from repro.engine import SwapEngine
from repro.errors import SpecError
from repro.experiment import runner
from repro.experiment import (
    ExperimentSpec,
    apply_overrides,
    preset_spec,
    run_experiment,
)
from repro.experiment.spec import ChainOverride, ChainsSpec, TrafficSpec
from repro.sweeps import SweepAxis, SweepSpec, run_sweep, sweep_names, sweep_spec
from repro.sweeps.scorecard import scorecard
from repro.workloads.scenarios import build_scenario
from tests.conftest import MINER


def reorg_spec(**kwargs) -> ReorgAttackSpec:
    defaults = dict(
        enabled=True,
        hashpower=2.0,
        value_at_risk=175_000.0,
        hourly_cost=300_000.0,
        blocks_per_hour=6.0,
    )
    defaults.update(kwargs)
    return ReorgAttackSpec(**defaults)


def attacked_spec(protocol="nolan", depth=1, seed=7, swaps=12, **reorg_kwargs):
    return ExperimentSpec(
        name="attack-test",
        seed=seed,
        protocol=protocol,
        chains=ChainsSpec(ids=("chain-0", "chain-1"), confirmation_depth=depth),
        traffic=TrafficSpec(generator="poisson", num_swaps=swaps, rate=4.0),
        adversary=AdversarySpec(reorg=reorg_spec(**reorg_kwargs)),
    )


# ---------------------------------------------------------------------------
# Spec: serde, validation, overrides
# ---------------------------------------------------------------------------


class TestAdversarySpec:
    def test_disabled_by_default(self):
        spec = ExperimentSpec()
        assert not spec.adversary.any_enabled
        spec.validate()

    def test_round_trip_identity(self):
        spec = attacked_spec()
        again = ExperimentSpec.from_json(spec.to_json())
        assert again == spec
        assert again.adversary.reorg.hashpower == 2.0

    def test_unknown_adversary_key_rejected(self):
        data = ExperimentSpec().to_dict()
        data["adversary"]["reorg"]["rented_rigs"] = 9
        with pytest.raises(SpecError, match="adversary.reorg"):
            ExperimentSpec.from_dict(data)

    def test_dotted_path_overrides_reach_actor_parameters(self):
        spec = apply_overrides(
            ExperimentSpec(),
            {
                "adversary.reorg.enabled": "true",
                "adversary.reorg.hashpower": "4.5",
                "adversary.byzantine.enabled": "true",
                "adversary.byzantine.behavior": "decline",
            },
        )
        assert spec.adversary.reorg.enabled
        assert spec.adversary.reorg.hashpower == 4.5
        assert spec.adversary.byzantine.behavior == "decline"

    def test_validation_catches_bad_actors(self):
        bad = [
            {"adversary.reorg.enabled": True, "adversary.reorg.hashpower": -1.0},
            {"adversary.reorg.enabled": True, "adversary.reorg.hourly_cost": 0.0},
            {"adversary.reorg.enabled": True, "adversary.reorg.trigger_depth": 0},
            {"adversary.reorg.enabled": True, "adversary.reorg.chain_id": "nope"},
            {"adversary.byzantine.enabled": True, "adversary.byzantine.behavior": "bribe"},
            {"adversary.byzantine.enabled": True, "adversary.byzantine.share": 1.5},
            {"adversary.eclipse.enabled": True, "adversary.eclipse.duration": 0.0},
            {"adversary.eclipse.enabled": True, "adversary.eclipse.phase": "decision_wait"},
            {"adversary.censor.enabled": True},  # no criterion
        ]
        for overrides in bad:
            spec = apply_overrides(ExperimentSpec(), overrides)
            with pytest.raises(SpecError):
                spec.validate()

    def test_cost_model_budget_is_one_short_of_required_depth(self):
        reorg = reorg_spec()
        assert reorg.required_depth() == required_depth(
            175_000.0, 300_000.0, 6.0
        )
        assert reorg.budget_blocks() == reorg.required_depth() - 1
        assert reorg.block_cost_usd() == pytest.approx(50_000.0)

    def test_decision_chain_resolution(self):
        assert decision_chain("ac3wn", ("c0", "c1"), "witness") == "witness"
        assert decision_chain("mixed", ("c0", "c1"), "witness") == "witness"
        assert decision_chain("nolan", ("c0", "c1"), "witness") == "c0"


# ---------------------------------------------------------------------------
# Blockchain reorg listeners (satellite)
# ---------------------------------------------------------------------------


class TestReorgListener:
    def test_extension_is_not_a_reorg(self, chain):
        events = []
        chain.add_reorg_listener(lambda a, b: events.append((a, b)))
        for i in range(3):
            chain.add_block(chain.make_block([], chain.head.header.miner, float(i + 1)))
        assert events == []
        assert chain.reorgs == 0

    def test_released_private_branch_fires_with_depths(self, chain):
        events = []
        chain.add_reorg_listener(lambda a, b: events.append((a, b)))
        fork_point = chain.head_hash
        # Two public blocks on top of the fork point...
        chain.add_block(chain.make_block([], chain.head.header.miner, 1.0))
        chain.add_block(chain.make_block([], chain.head.header.miner, 2.0))
        # ...out-worked by a three-block private branch.
        attacker = AttackMiner(chain)
        attacker.fork_from(fork_point)
        for i in range(3):
            attacker.extend([], timestamp=3.0 + i)
        assert attacker.release() is True
        assert events == [(2, 3)]
        assert chain.reorgs == 1

    def test_listeners_fire_in_order_on_the_repointed_chain(self, chain):
        """Every listener sees the adopted branch already answering height
        queries, and listeners run in subscription order."""
        seen = []

        def listener(tag):
            def fire(abandoned, adopted):
                seen.append((tag, abandoned, adopted, chain.height, chain.head_hash))

            return fire

        chain.add_reorg_listener(listener("first"))
        chain.add_reorg_listener(listener("second"))
        fork_point = chain.head_hash
        public = chain.make_block([], chain.head.header.miner, 1.0)
        chain.add_block(public)
        attacker = AttackMiner(chain)
        attacker.fork_from(fork_point)
        attacker.extend([], timestamp=2.0)
        attacker.extend([], timestamp=3.0)
        assert attacker.release() is True
        head = chain.head_hash
        assert [entry[0] for entry in seen] == ["first", "second"]
        assert all(entry[1:] == (1, 2, chain.height, head) for entry in seen)
        assert not chain.is_in_main_chain(public.block_id())


# ---------------------------------------------------------------------------
# The reorg attacker
# ---------------------------------------------------------------------------


class TestReorgAttacker:
    def test_shallow_depth_nolan_violations(self):
        """The acceptance attack: at d=1 the attacker rewrites a settled
        HTLC redemption and claims the refund arm — a measured
        atomicity violation Section 1 only narrates."""
        result = run_experiment(attacked_spec(protocol="nolan", depth=1))
        metrics = result.metrics
        assert metrics.atomicity_violations >= 1
        assert metrics.reorgs_won >= 1
        assert metrics.attacked >= 1
        report = result.engine_result.adversary["reorg"]
        assert report["reorgs_won"] >= 1
        assert any(a["exploit_refunds"] > 0 for a in report["attacks"])
        # The reorg hook counted the head switches on the target chain.
        assert result.engine_result.chain_reorgs["chain-0"] == report["reorgs_won"]
        # The victim's outcome carries the attack attribution + audit.
        victims = [o for o in result.outcomes if o.reorgs_won]
        assert victims and all("reorg" in o.attacked_by for o in victims)
        assert any(not o.is_atomic for o in victims)
        assert any("reorg rewrote" in note for o in victims for note in o.notes)

    def test_safe_depth_forgoes_the_attack(self):
        """At d >= required_depth the cost model prices every attack out:
        nothing is launched, nothing mined, zero violations."""
        spec = attacked_spec(protocol="nolan", depth=4, swaps=8)
        assert spec.adversary.reorg.required_depth() == 4
        result = run_experiment(spec)
        assert result.metrics.atomicity_violations == 0
        assert result.metrics.attacks_launched == 0
        report = result.engine_result.adversary["reorg"]
        assert report["attacks_launched"] == 0
        assert report["cost_spent"] == 0.0
        assert result.engine_result.chain_reorgs == {
            "chain-0": 0,
            "chain-1": 0,
            "witness": 0,
        }

    @staticmethod
    def counted_reorgs(monkeypatch, spec):
        """The engine's ``chain_reorgs`` and each chain's own ``reorgs``
        delta since the world was built (the engine is built right after)."""
        before = {}
        build = runner.build_environment

        def recorded(*args):
            env = build(*args)
            before.update((chain_id, chain.reorgs) for chain_id, chain in env.chains.items())
            return env

        monkeypatch.setattr(runner, "build_environment", recorded)
        result = run_experiment(spec)
        delta = {
            chain_id: chain.reorgs - before[chain_id]
            for chain_id, chain in result.env.chains.items()
        }
        return result.engine_result.chain_reorgs, delta

    def test_engine_reorg_count_is_the_chains_own(self, monkeypatch):
        attacked = apply_overrides(
            preset_spec("security"), {"protocol": "nolan", "chains.confirmation_depth": 1}
        )
        counted, delta = self.counted_reorgs(monkeypatch, attacked)
        assert counted == delta and sum(counted.values()) >= 1
        quiet = apply_overrides(preset_spec("engine-smoke"), {"traffic.num_swaps": 8})
        counted, delta = self.counted_reorgs(monkeypatch, quiet)
        assert counted == delta == dict.fromkeys(delta, 0)

    def test_engine_counts_only_reorgs_after_it_is_built(self):
        env = build_scenario(participants=["a", "b"], chain_ids=["chain-a"])
        chain = env.chains["witness"]

        def reorg():
            base, now = chain.head_hash, chain.head.header.timestamp
            chain.add_block(chain.make_block([], MINER.address, now + 1, parent_hash=base))
            fork = chain.make_block([], MINER.address, now + 1.5, parent_hash=base)
            chain.add_block(fork)
            chain.add_block(chain.make_block([], MINER.address, now + 2, parent_hash=fork.block_id()))

        reorg()
        engine = SwapEngine(env)
        assert chain.reorgs == 1 and engine.chain_reorgs == {"chain-a": 0, "witness": 0}
        reorg()
        assert engine.chain_reorgs == {"chain-a": 0, "witness": 1}

    def test_witness_protocols_survive_the_same_attack(self):
        """AC3WN loses liveness, never atomicity: won witness forks and
        exploit refunds still produce zero violations (Lemma 5.3)."""
        result = run_experiment(
            attacked_spec(protocol="ac3wn", depth=1, hashpower=6.0)
        )
        assert result.metrics.atomicity_violations == 0
        assert result.engine_result.adversary["reorg"]["reorgs_won"] >= 1

    def test_attack_cost_never_exceeds_value_at_risk(self):
        result = run_experiment(attacked_spec(protocol="nolan", depth=2))
        report = result.engine_result.adversary["reorg"]
        for attack in report["attacks"]:
            assert attack["cost"] <= 175_000.0
            assert attack["blocks"] <= 3  # the budget

    def test_attacked_run_is_deterministic(self):
        spec = attacked_spec(protocol="nolan", depth=1, hashpower=6.0)
        first = run_experiment(spec)
        second = run_experiment(spec)
        assert first.trace() == second.trace()
        assert (
            first.engine_result.adversary == second.engine_result.adversary
        )
        assert first.to_json() == second.to_json()

    def test_mixed_protocol_run_under_active_attacker(self):
        """The 100+-swap satellite: one shared world, all four
        protocols, one attacker on an asset chain.  The HTLC family
        bleeds violations; the witness protocols — whose witness chain
        keeps d >= required_depth — stay atomic."""
        spec = ExperimentSpec(
            name="mixed-attack",
            seed=11,
            protocol="mixed",
            chains=ChainsSpec(
                ids=("chain-0", "chain-1"),
                confirmation_depth=1,
                overrides={"witness": ChainOverride(confirmation_depth=4)},
            ),
            traffic=TrafficSpec(generator="poisson", num_swaps=104, rate=8.0),
            adversary=AdversarySpec(
                reorg=reorg_spec(chain_id="chain-0", hashpower=6.0)
            ),
        )
        assert spec.adversary.reorg.required_depth() == 4
        result = run_experiment(spec)
        by_protocol = result.by_protocol
        htlc_violations = (
            by_protocol["nolan"].atomicity_violations
            + by_protocol["herlihy"].atomicity_violations
        )
        assert htlc_violations >= 1
        assert by_protocol["ac3wn"].atomicity_violations == 0
        assert by_protocol["ac3tw"].atomicity_violations == 0
        assert result.engine_result.adversary["reorg"]["reorgs_won"] >= 1
        # Attribution reached outcomes of more than one protocol.
        attacked_protocols = {
            o.protocol for o in result.outcomes if "reorg" in o.attacked_by
        }
        assert len(attacked_protocols) >= 2


# ---------------------------------------------------------------------------
# Censoring miner
# ---------------------------------------------------------------------------


class TestCensoringMiner:
    def test_decision_censorship_starves_the_swap(self):
        spec = ExperimentSpec(
            name="censor-test",
            seed=3,
            protocol="ac3wn",
            chains=ChainsSpec(ids=("chain-0", "chain-1")),
            traffic=TrafficSpec(generator="poisson", num_swaps=2, rate=2.0),
            adversary=AdversarySpec(
                censor=CensorSpec(
                    enabled=True, functions=("authorize_redeem", "authorize_refund")
                )
            ),
        )
        result = run_experiment(spec)
        # No decision can ever land: every swap times out undecided.
        assert all(o.decision == "undecided" for o in result.outcomes)
        assert result.metrics.atomicity_violations == 0
        report = result.engine_result.adversary["censor"]
        assert report["chain_id"] == "witness"
        assert report["messages_censored"] >= 2

    def test_per_swap_censorship_only_hits_the_target(self):
        spec = ExperimentSpec(
            name="censor-swap",
            seed=3,
            protocol="nolan",
            chains=ChainsSpec(ids=("chain-0", "chain-1")),
            traffic=TrafficSpec(generator="poisson", num_swaps=4, rate=4.0),
            adversary=AdversarySpec(
                censor=CensorSpec(
                    enabled=True, chain_id="chain-0", participants=("swap0000.",)
                )
            ),
        )
        result = run_experiment(spec)
        target = result.outcomes[0]
        assert "censor" in target.attacked_by
        assert target.decision != "commit"
        others = result.outcomes[1:]
        assert all(o.decision == "commit" for o in others)
        assert all("censor" not in o.attacked_by for o in others)


# ---------------------------------------------------------------------------
# Byzantine participant + eclipse
# ---------------------------------------------------------------------------


class TestByzantineParticipant:
    def base_spec(self, behavior, protocol="ac3wn", share=1.0):
        return ExperimentSpec(
            name="byz-test",
            seed=5,
            protocol=protocol,
            chains=ChainsSpec(ids=("chain-0", "chain-1")),
            traffic=TrafficSpec(generator="poisson", num_swaps=3, rate=3.0),
            adversary=AdversarySpec(
                byzantine=ByzantineSpec(
                    enabled=True, role="b", behavior=behavior, share=share
                )
            ),
        )

    def test_decline_forces_abort(self):
        result = run_experiment(self.base_spec("decline"))
        assert all(o.decision == "abort" for o in result.outcomes)
        assert result.metrics.atomicity_violations == 0
        assert all("byzantine" in o.attacked_by for o in result.outcomes)
        assert result.engine_result.adversary["byzantine"]["swaps_corrupted"] == 3

    def test_withheld_signature_fails_registration_validity(self):
        """An incomplete ms(D) is rejected by the witness contract's
        registration check: the AC2T never starts (and never commits)."""
        result = run_experiment(self.base_spec("withhold-signature"))
        assert all(o.decision in ("undecided", "abort") for o in result.outcomes)
        assert result.metrics.committed == 0
        assert result.metrics.atomicity_violations == 0

    def test_withhold_settle_refuses_the_settle_step(self):
        result = run_experiment(self.base_spec("withhold-settle"))
        assert result.metrics.atomicity_violations == 0
        refusals = [
            o
            for o in result.outcomes
            if any("refuses its settle step" in note for note in o.notes)
        ]
        assert refusals
        # The corrupted recipient never redeemed its incoming contract.
        for outcome in refusals:
            assert any(
                record.final_state == "P"
                for record in outcome.contracts.values()
            )

    def test_share_zero_corrupts_nobody(self):
        result = run_experiment(self.base_spec("decline", share=0.0))
        assert all(o.decision == "commit" for o in result.outcomes)
        assert result.engine_result.adversary["byzantine"]["swaps_corrupted"] == 0


class TestEclipseActor:
    def test_settle_phase_eclipse_delays_but_never_breaks(self):
        spec = ExperimentSpec(
            name="eclipse-test",
            seed=5,
            protocol="ac3wn",
            chains=ChainsSpec(ids=("chain-0", "chain-1")),
            traffic=TrafficSpec(generator="poisson", num_swaps=3, rate=3.0),
            adversary=AdversarySpec(
                eclipse=EclipseSpec(
                    enabled=True, role="a", phase="settle", duration=2.0
                )
            ),
        )
        result = run_experiment(spec)
        assert result.metrics.atomicity_violations == 0
        report = result.engine_result.adversary["eclipse"]
        assert report["swaps_eclipsed"] == 3
        eclipsed = [
            o
            for o in result.outcomes
            if any("eclipse" in note for note in o.notes)
        ]
        assert len(eclipsed) == 3
        # The recovered participant settled late: still all-or-nothing.
        assert all(o.decision == "commit" for o in result.outcomes)

    @pytest.mark.parametrize("phase", AC3WNDriver.phase_names())
    def test_every_ac3wn_row_eclipses_every_swap(self, phase):
        """An eclipse keyed to any row of AC3WN's table fires once per
        swap — scw-wait too, which no phase event announced before."""
        spec = apply_overrides(
            preset_spec("engine-smoke"),
            {
                "protocol": "ac3wn",
                "traffic.num_swaps": 8,
                "adversary.eclipse.enabled": True,
                "adversary.eclipse.phase": phase,
            },
        )
        result = run_experiment(spec)
        assert result.engine_result.adversary["eclipse"]["swaps_eclipsed"] == 8
        assert result.metrics.atomicity_violations == 0


# ---------------------------------------------------------------------------
# The security matrix: sweep preset, surface extractor, analytic report
# ---------------------------------------------------------------------------


class TestSecurityMatrix:
    def test_presets_registered(self):
        assert "security-matrix" in sweep_names()
        assert "security-smoke" in sweep_names()
        matrix = sweep_spec("security-matrix")
        assert [axis.name for axis in matrix.axes] == [
            "depth",
            "hashpower",
            "protocol",
        ]
        assert matrix.num_points() == 4 * 2 * 4
        matrix.validate()
        assert sweep_spec("security-smoke").num_points() == 2 * 2 * 2

    def test_cells_and_claim_rows_on_a_mini_matrix(self):
        """A 2-point depth slice of ``security-smoke`` (Nolan at one
        hashpower): the unsafe cell bleeds, the model-safe cell is
        silent, and the scorecard's Section 6.3 rows say so — the
        acceptance shape in miniature."""
        smoke = sweep_spec("security-smoke")
        depth, hashpower, protocol = smoke.axes
        spec = dataclasses.replace(
            smoke,
            axes=(
                depth,
                dataclasses.replace(hashpower, values=(2.0,)),
                dataclasses.replace(protocol, values=("nolan",)),
            ),
        )
        result = run_sweep(spec, workers=1)
        reorg = spec.base.adversary.reorg
        assert required_depth(reorg.value_at_risk, reorg.hourly_cost, reorg.blocks_per_hour) == 4
        unsafe, safe = result.rows()
        assert [unsafe["depth"], safe["depth"]] == [1, 4]
        assert unsafe["atomicity_violations"] >= 1
        assert safe["atomicity_violations"] == 0 and safe["attacks_launched"] == 0
        # The depth rule holds, Nolan bleeds below it, and with no
        # witness-protocol cell Lemma 5.3 is not measured.
        assert [row.verdict for row in scorecard(result)] == ["holds", "holds", "not measured"]
