"""Edge cases of the protocol drivers: configs, scale, and odd timings."""

import pytest

from repro.core.ac3wn import AC3WNConfig, AC3WNDriver, run_ac3wn
from repro.core.herlihy import HerlihyConfig, HerlihyDriver, run_herlihy
from repro.core.protocol import edge_key
from repro.errors import ProtocolError
from repro.workloads.graphs import complete_digraph, directed_cycle, two_party_swap
from repro.workloads.scenarios import build_scenario


class TestAC3WNConfigs:
    def test_explicit_registrar(self):
        graph = two_party_swap(chain_a="a", chain_b="b", timestamp=61)
        env = build_scenario(graph=graph, seed=61)
        env.warm_up(2)
        outcome = run_ac3wn(
            env, graph, witness_chain_id="witness", registrar="bob"
        )
        assert outcome.decision == "commit"

    def test_unknown_witness_chain_rejected(self):
        graph = two_party_swap(chain_a="a", chain_b="b", timestamp=62)
        env = build_scenario(graph=graph, seed=62)
        with pytest.raises(ProtocolError):
            AC3WNDriver(env, graph, AC3WNConfig(witness_chain_id="mars"))

    def test_short_deploy_timeout_forces_abort(self):
        """A deadline shorter than one confirmation aborts even honest runs
        — liveness is timeout-bound, safety is not."""
        graph = two_party_swap(chain_a="a", chain_b="b", timestamp=63)
        env = build_scenario(graph=graph, seed=63)
        env.warm_up(2)
        outcome = run_ac3wn(
            env, graph, witness_chain_id="witness", deploy_timeout=0.5
        )
        assert outcome.decision == "abort"
        assert outcome.is_atomic

    def test_same_graph_two_timestamps_two_scw(self):
        """Identical AC2Ts distinguished by timestamp t get independent
        SCw instances and both commit (the paper's reason for t)."""
        env = build_scenario(
            graph=two_party_swap(chain_a="a", chain_b="b", timestamp=1),
            seed=64,
        )
        env.warm_up(2)
        first = run_ac3wn(
            env, two_party_swap(chain_a="a", chain_b="b", timestamp=1),
            witness_chain_id="witness",
        )
        second = run_ac3wn(
            env, two_party_swap(chain_a="a", chain_b="b", timestamp=2),
            witness_chain_id="witness",
        )
        assert first.decision == "commit"
        assert second.decision == "commit"

    def test_scale_complete_graph_two_chains(self):
        """12 contracts over 2 asset chains + witness: all settle."""
        graph = complete_digraph(4, chain_ids=["x", "y"], timestamp=65)
        env = build_scenario(graph=graph, seed=65)
        env.warm_up(2)
        outcome = run_ac3wn(env, graph, witness_chain_id="witness")
        assert outcome.decision == "commit"
        assert sum(
            1 for r in outcome.contracts.values() if r.final_state == "RD"
        ) == 12

    def test_fees_accounted(self):
        graph = two_party_swap(chain_a="a", chain_b="b", timestamp=66)
        env = build_scenario(graph=graph, seed=66)
        env.warm_up(2)
        outcome = run_ac3wn(env, graph, witness_chain_id="witness")
        # 3 deploys (SCw + 2 assets) at fee 10 + 3 calls at fee 5 = 45.
        assert outcome.fees_paid == 45


class TestHerlihyConfigs:
    def test_explicit_leader(self):
        graph = directed_cycle(3, chain_ids=["c0", "c1", "c2"], timestamp=71)
        env = build_scenario(graph=graph, seed=71)
        env.warm_up(2)
        outcome = run_herlihy(env, graph, leader="p02")
        assert outcome.decision == "commit"

    def test_bad_leader_rejected(self):
        graph = directed_cycle(3, timestamp=72)
        env = build_scenario(graph=graph, seed=72)
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            run_herlihy(env, graph, leader="nobody")

    def test_timelock_ordering(self):
        """The classic constraint t2 < t1: later-published contracts
        carry earlier timelocks."""
        graph = directed_cycle(4, chain_ids=["c0", "c1", "c2", "c3"], timestamp=73)
        env = build_scenario(graph=graph, seed=73)
        driver = HerlihyDriver(env, graph, HerlihyConfig())
        delta = driver.delta()
        locks = {
            edge_key(e): driver.timelock_for(e, 0.0, delta) for e in graph.edges
        }
        from repro.core.herlihy import publish_wave_of_edge

        by_wave = sorted(
            graph.edges, key=lambda e: publish_wave_of_edge(driver.waves, e)
        )
        lock_values = [locks[edge_key(e)] for e in by_wave]
        assert lock_values == sorted(lock_values, reverse=True)

    def test_leaderless_vertex_means_refusal(self):
        """A participant with no incoming edges cannot be sequenced."""
        from repro.core.graph import AssetEdge, SwapGraph
        from repro.core.herlihy import compute_publish_waves
        from repro.errors import GraphError
        from repro.workloads.graphs import participant_pairs

        keys = participant_pairs(["a", "b", "c"])
        graph = SwapGraph.build(
            keys,
            [
                AssetEdge("a", "b", "x", 10),
                AssetEdge("c", "b", "y", 10),  # c has no incoming edge
            ],
        )
        with pytest.raises(GraphError):
            compute_publish_waves(graph, "a")


class TestProtocolHelpers:
    def test_outcome_summary_format(self):
        graph = two_party_swap(chain_a="a", chain_b="b", timestamp=83)
        env = build_scenario(graph=graph, seed=83)
        env.warm_up(2)
        outcome = run_ac3wn(env, graph, witness_chain_id="witness")
        summary = outcome.summary()
        assert "ac3wn" in summary and "commit" in summary and "atomic=True" in summary
