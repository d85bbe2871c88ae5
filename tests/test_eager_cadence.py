"""Pins for the event-driven driver cadence (the only one since PR 13).

Drivers advance purely from on-block hooks, participant-recovery hooks,
and mempool-eviction hooks, plus one explicit timeout event per phase
deadline.  These tests pin that bargain:

* the simulator does a bounded, small amount of work per swap (the
  ROADMAP's scale-past-10³ hot spot);
* the engine-smoke preset's metrics are bit-for-bit what the poll-tick
  cadence produced — removing the ticks removed only no-op wake-ups;
* under a congested fee market, eviction hooks plus the deterministic
  per-swap submission jitter reproduce the fee-market baseline;
* artifacts persisted before PR 13 (which carry ``"eager": true``)
  still load.
"""

import pytest

from repro.chain.chain import Blockchain
from repro.chain.mempool import Mempool
from repro.chain.params import fast_chain
from repro.crypto.keys import KeyPair
from repro.economy import FeePolicy
from repro.experiment import (
    ChainsSpec,
    ExperimentSpec,
    TrafficSpec,
    apply_overrides,
    preset_spec,
    run_experiment,
)


def small_spec(**overrides) -> ExperimentSpec:
    spec = ExperimentSpec(
        name="small",
        seed=11,
        protocol="ac3wn",
        chains=ChainsSpec(ids=("x", "y")),
        traffic=TrafficSpec(num_swaps=6, rate=6.0),
    )
    return apply_overrides(spec, overrides) if overrides else spec


class TestEagerEventBudget:
    def test_event_count_per_swap_drops(self):
        """Hooks + one timeout per phase: 23 simulator events for six
        swaps (the poll cadence needed 188 for the same decisions)."""
        result = run_experiment(small_spec())
        assert result.metrics.committed == 6
        assert result.engine_result.events_processed / 6 <= 4

    def test_pre_removal_spec_echo_still_loads(self):
        """Artifacts written before PR 13 spell out ``"eager": true``
        (``false`` is rejected: test_experiment's test_lazy_vs_eager_spec_ab)."""
        engine = {"eager": True, "warm_up_blocks": 2, "max_events": 50_000_000, "jitter": None}
        echo = {**small_spec().to_dict(), "engine": engine}
        assert ExperimentSpec.from_dict(echo).validate() == small_spec()
        assert small_spec().to_dict()["engine"] == engine  # and is still written

    def test_engine_smoke_metrics_unchanged_and_cheap(self):
        """The satellite pin: the engine-smoke preset produces exactly
        the metrics the poll-tick eager cadence did (recorded before the
        ticks were removed), with an order of magnitude fewer simulator
        events (741 then, < 150 now)."""
        result = run_experiment(preset_spec("engine-smoke"))
        m = result.metrics
        assert m.committed == 50
        assert m.atomicity_violations == 0
        assert m.max_in_flight == 44
        assert m.p50_latency == pytest.approx(4.470520649131581, rel=1e-12)
        assert m.p99_latency == pytest.approx(5.993416152014772, rel=1e-12)
        assert m.mean_latency == pytest.approx(4.3006977693861685, rel=1e-12)
        assert m.swaps_per_second == pytest.approx(5.009284637354546, rel=1e-12)
        assert result.engine_result.events_processed < 150

    def test_eager_cadence_deterministic(self):
        first = run_experiment(small_spec())
        second = run_experiment(small_spec())
        assert first.to_json() == second.to_json()


class TestRecoveryHooks:
    def test_recovery_listener_fires_and_unsubscribes(self):
        from repro.sim.node import Node
        from repro.sim.simulator import Simulator

        node = Node(Simulator(), "n")
        fired = []
        node.add_recovery_listener(lambda: fired.append(True))
        node.crash()
        node.recover()
        assert fired == [True]
        node.remove_recovery_listener(node._recovery_listeners[0])
        node.recover()
        assert fired == [True]

    def test_crashed_participant_settles_after_recovery(self):
        """A swap whose participant recovers mid-run still terminates
        with the crash surfaced — the recovery hook (not a poll tick)
        wakes the driver."""
        result = run_experiment(
            small_spec(
                **{
                    "traffic.num_swaps": 2,
                    "traffic.crash.participant": "b",
                    "traffic.crash.delay": 2.0,
                    "traffic.crash.down_for": 6.0,
                }
            )
        )
        assert result.metrics.total == 2
        assert result.metrics.injected_crashes == 2
        assert result.metrics.atomicity_violations == 0


class TestEvictionHooks:
    def test_priority_mempool_notifies_on_eviction(self):
        alice = KeyPair.from_seed("alice")
        chain = Blockchain(
            fast_chain("c", block_interval=1.0), [(alice.address, 50)] * 8
        )
        pool = Mempool(
            chain,
            FeePolicy(capacity_weight=2, block_weight_budget=2),
        )
        evicted = []
        pool.add_eviction_listener(evicted.append)

        from repro.chain.messages import TransferMessage
        from repro.chain.transaction import (
            Transaction,
            TxInput,
            TxOutput,
            sign_transaction,
        )

        state = chain.state_at()
        outpoints = state.utxos.outpoints_of(alice.address)

        def transfer(outpoint, fee, nonce):
            tx = sign_transaction(
                Transaction(
                    inputs=(TxInput(outpoint),),
                    outputs=(TxOutput(alice.address, 50 - fee),),
                    nonce=nonce,
                ),
                alice,
            )
            return TransferMessage(tx)

        cheap = transfer(outpoints[0], fee=2, nonce=0)
        cheap_id = pool.submit(cheap)
        rich = transfer(outpoints[1], fee=40, nonce=1)
        pool.submit(rich)
        second = transfer(outpoints[2], fee=45, nonce=2)
        pool.submit(second)
        assert cheap_id in evicted
        assert pool.evicted >= 1

        pool.remove_eviction_listener(evicted.append)


class TestCongestionRecovered:
    def test_congestion_preset_runs_eager_and_keeps_the_baseline(self):
        """The de-herding satellite: the stock oversubscribed fee market
        no longer pins eager=False, and the high-budget class commits at
        the >= 96% rate the poll cadence baselined."""
        spec = preset_spec("congestion")
        assert spec.engine.eager is True
        result = run_experiment(spec)
        low_cap = 60
        lows = [o for o in result.outcomes if o.fee_cap is not None and o.fee_cap <= low_cap]
        highs = [o for o in result.outcomes if o.fee_cap is not None and o.fee_cap > low_cap]
        high_commit = sum(1 for o in highs if o.decision == "commit") / len(highs)
        low_commit = sum(1 for o in lows if o.decision == "commit") / len(lows)
        assert high_commit >= 0.96
        assert low_commit < 0.2  # congestion still prices the poor out
        assert result.metrics.atomicity_violations == 0
