"""Tests for the SwapEngine: concurrency, isolation, determinism, metrics.

The engine is the execution layer behind the paper's evaluation: many
concurrent AC2Ts over shared chains.  These tests pin its core
guarantees — per-swap isolation, zero atomicity violations for the
witness-based protocols under load, seed-reproducible traces and
aggregate metrics, and equivalence of the single-swap ``run_*`` wrappers
with an engine of N=1.
"""

import pytest

from repro.core.ac3wn import run_ac3wn
from repro.engine import PROTOCOLS, SwapEngine
from repro.engine.metrics import MetricsAccumulator, percentile
from repro.errors import ProtocolError
from repro.workloads.graphs import two_party_swap
from repro.workloads.scenarios import (
    build_multi_scenario,
    build_scenario,
    poisson_arrivals,
    swap_traffic,
    swap_traffic_graphs,
)


def run_engine(protocol, num_swaps=12, rate=6.0, seed=17):
    traffic = swap_traffic(
        num_swaps, rate=rate, seed=seed, chain_ids=["x", "y"]
    )
    env = build_multi_scenario([graph for _, graph in traffic], seed=seed)
    env.warm_up(2)
    engine = SwapEngine(env, default_protocol=protocol)
    engine.submit_many(traffic, offset=env.simulator.now)
    result = engine.run()
    return engine, result, env


class TestTrafficGeneration:
    def test_poisson_arrivals_monotone_and_deterministic(self):
        from repro.sim.rng import RngStream

        first = poisson_arrivals(20, 4.0, RngStream(5, "arrivals"))
        second = poisson_arrivals(20, 4.0, RngStream(5, "arrivals"))
        assert first == second
        assert all(b > a for a, b in zip(first, second[1:]))

    def test_traffic_graphs_are_namespaced_per_swap(self):
        graphs = swap_traffic_graphs(5, ["x", "y"])
        names = [name for g in graphs for name in g.participant_names()]
        assert len(names) == len(set(names)) == 10

    def test_traffic_graphs_unique_digests(self):
        graphs = swap_traffic_graphs(6, ["x"])
        assert len({g.digest() for g in graphs}) == 6

    def test_duplicate_participants_across_graphs_rejected(self):
        graph = two_party_swap(chain_a="x", chain_b="y", timestamp=1)
        with pytest.raises(ProtocolError):
            build_multi_scenario([graph, graph])

    def test_funding_scoped_to_involved_chains(self):
        traffic = swap_traffic(2, rate=5.0, seed=9, chain_ids=["x", "y"])
        env = build_multi_scenario([g for _, g in traffic], seed=9)
        some_participant = sorted(env.participants)[0]
        actor = env.participants[some_participant]
        assert actor.balance_on("x") > 0
        assert actor.balance_on("witness") > 0


class TestEngineConcurrency:
    def test_open_loop_arrivals_respected(self):
        _, result, _ = run_engine("ac3wn", num_swaps=8, rate=4.0, seed=23)
        starts = [r.outcome.started_at for r in result.requests]
        arrivals = [r.arrival_time for r in result.requests]
        assert starts == arrivals
        assert result.metrics.total == 8

    def test_swaps_overlap_in_time(self):
        engine, result, _ = run_engine("ac3wn", num_swaps=10, rate=10.0, seed=29)
        assert engine.max_in_flight > 1
        # With arrivals far faster than per-swap latency, overlap is
        # near-total: most swaps are in flight simultaneously.
        assert engine.max_in_flight >= 8

    def test_unknown_protocol_rejected(self):
        graph = two_party_swap(chain_a="x", chain_b="y", timestamp=1)
        env = build_scenario(graph=graph, seed=3)
        with pytest.raises(ProtocolError):
            SwapEngine(env, default_protocol="magic")
        engine = SwapEngine(env)
        with pytest.raises(ProtocolError):
            engine.submit(graph, protocol="magic")

    def test_nolan_rejects_non_two_party_at_submit(self):
        from repro.errors import GraphError
        from repro.workloads.graphs import directed_cycle

        graph = directed_cycle(3, chain_ids=["x", "y"], timestamp=2)
        env = build_scenario(graph=graph, seed=3)
        engine = SwapEngine(env, default_protocol="nolan")
        with pytest.raises(GraphError):
            engine.submit(graph)

    def test_unstartable_swap_does_not_abort_the_run(self):
        """A graph the protocol cannot execute becomes a per-swap failed
        outcome; the other in-flight swaps complete normally."""
        from repro.workloads.graphs import figure7a_cyclic

        traffic = swap_traffic(3, rate=5.0, seed=47, chain_ids=["x", "y"])
        graphs = [g for _, g in traffic]
        # Herlihy cannot sequence Figure 7a's cyclic graph.
        bad_graph = figure7a_cyclic(chain_ids=["x", "y"], timestamp=99)
        env = build_multi_scenario(graphs + [bad_graph], seed=47)
        env.warm_up(2)
        engine = SwapEngine(env, default_protocol="herlihy")
        engine.submit_many(traffic, offset=env.simulator.now)
        engine.submit(bad_graph, at=env.simulator.now + 0.1)
        result = engine.run()
        assert result.metrics.total == 4
        by_decision = [o.decision for o in result.outcomes]
        assert by_decision.count("commit") == 3
        failed = [o for o in result.outcomes if o.decision == "undecided"]
        assert len(failed) == 1
        assert "driver construction failed" in failed[0].notes[0]

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_all_protocols_commit_under_concurrency(self, protocol):
        _, result, _ = run_engine(protocol, num_swaps=12, rate=6.0, seed=31)
        metrics = result.metrics
        assert metrics.total == 12
        assert metrics.committed == 12
        assert metrics.atomicity_violations == 0
        assert metrics.max_in_flight > 1
        assert metrics.swaps_per_second > 0


class TestEngineDeterminism:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_same_seed_same_trace_outcomes_and_metrics(self, protocol):
        """Same seed + same arrival schedule ⇒ identical event trace,
        outcomes, and metrics across two runs (the tentpole invariant)."""
        engine_a, first, env_a = run_engine(protocol, seed=37)
        engine_b, second, env_b = run_engine(protocol, seed=37)
        assert first.trace() == second.trace()
        assert first.metrics == second.metrics
        assert [o.final_states() for o in first.outcomes] == [
            o.final_states() for o in second.outcomes
        ]
        assert [o.fees_paid for o in first.outcomes] == [
            o.fees_paid for o in second.outcomes
        ]
        assert env_a.simulator.events_processed == env_b.simulator.events_processed

    def test_different_seed_different_schedule(self):
        _, first, _ = run_engine("ac3wn", seed=41)
        _, second, _ = run_engine("ac3wn", seed=42)
        assert [r.arrival_time for r in first.requests] != [
            r.arrival_time for r in second.requests
        ]

    def test_lazy_mode_deterministic_and_atomic(self):
        """The poll-tick cadence (eager=False) is gone: the engine names
        the removal, and the event-driven run that replaced the A/B stays
        deterministic, atomic, and inside its event budget (32 simulator
        events for these twelve swaps)."""
        env = build_multi_scenario(swap_traffic_graphs(1, ["x", "y"]))
        with pytest.raises(ProtocolError, match="eager=False.*removed"):
            SwapEngine(env, eager=False)
        _, first, _ = run_engine("ac3wn", seed=43)
        _, second, _ = run_engine("ac3wn", seed=43)
        assert first.trace() == second.trace()
        assert first.metrics == second.metrics
        assert first.metrics.atomicity_violations == 0
        assert first.metrics.committed == first.metrics.total == 12
        assert first.events_processed / 12 <= 3


class TestSingleSwapEquivalence:
    def test_run_wrapper_equals_engine_of_one(self):
        """The ``run_*`` helpers are the engine with N=1."""

        def build():
            graph = two_party_swap(chain_a="x", chain_b="y", timestamp=7)
            env = build_scenario(graph=graph, seed=53)
            env.warm_up(2)
            return env, graph

        env_a, graph_a = build()
        direct = run_ac3wn(env_a, graph_a, witness_chain_id="witness")

        env_b, graph_b = build()
        engine = SwapEngine(env_b, default_protocol="ac3wn")
        engine.submit(graph_b)
        (via_engine,) = engine.run().outcomes

        assert direct.decision == via_engine.decision == "commit"
        assert direct.final_states() == via_engine.final_states()
        assert direct.started_at == via_engine.started_at
        assert direct.finished_at == via_engine.finished_at
        assert direct.fees_paid == via_engine.fees_paid


class TestHundredsConcurrent:
    def test_200_concurrent_swaps_all_four_protocols(self):
        """The acceptance bar: ≥200 concurrent AC2Ts, all four protocols
        in ONE simulation, zero atomicity violations, deterministic
        metrics (pinned by the smoke benchmark's reproducibility test and
        TestEngineDeterminism; here we pin scale + safety)."""
        num = 208  # 52 per protocol
        traffic = swap_traffic(
            num, rate=20.0, seed=3, chain_ids=["a", "b", "c"]
        )
        env = build_multi_scenario([g for _, g in traffic], seed=3)
        env.warm_up(2)
        engine = SwapEngine(env)
        offset = env.simulator.now
        for index, (at, graph) in enumerate(traffic):
            engine.submit(graph, protocol=PROTOCOLS[index % 4], at=offset + at)
        result = engine.run()
        metrics = result.metrics

        assert metrics.total == num
        assert metrics.atomicity_violations == 0
        # The witness-based protocols must be violation-free by design.
        assert result.by_protocol["ac3tw"].atomicity_violations == 0
        assert result.by_protocol["ac3wn"].atomicity_violations == 0
        # Genuine concurrency: the arrival rate dwarfs per-swap latency
        # (eager drivers settle faster than the old poll cadence, so the
        # concurrent peak sits lower than the pre-eager ≥100 baseline).
        assert metrics.max_in_flight >= 80
        assert all(pm.total == num // 4 for pm in result.by_protocol.values())
        assert metrics.swaps_per_second > 5.0


class TestMetrics:
    def test_percentile_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50.0) == 50.0
        assert percentile(values, 99.0) == 99.0
        assert percentile(values, 100.0) == 100.0
        assert percentile(values, 0.0) == 1.0

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    def test_empty_batch_metrics(self):
        metrics = MetricsAccumulator().snapshot()
        assert metrics.total == 0
        assert metrics.commit_rate == 0.0
        assert metrics.swaps_per_second == 0.0

    def test_metrics_counts(self):
        _, result, _ = run_engine("nolan", num_swaps=6, rate=6.0, seed=59)
        metrics = result.metrics
        assert metrics.protocol == "nolan"
        assert metrics.total == 6
        assert (
            metrics.committed
            + metrics.aborted
            + metrics.mixed
            + metrics.undecided
            == 6
        )
        assert metrics.p50_latency <= metrics.p99_latency
        assert metrics.total_fees == sum(o.fees_paid for o in result.outcomes)
