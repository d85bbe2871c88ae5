"""Tests for workload generators and scenario builders."""

import pytest

from repro.chain.params import (
    bitcoin_like,
    ethereum_like,
    fast_chain,
    table1_presets,
)
from repro.errors import GraphError, ProtocolError
from repro.sim.rng import RngRegistry
from repro.workloads.graphs import (
    bidirectional_path,
    complete_digraph,
    directed_cycle,
    figure7a_cyclic,
    figure7b_disconnected,
    random_graph,
    ring_with_diameter,
    two_party_swap,
)
from repro.workloads.scenarios import build_scenario


class TestChainPresets:
    def test_bitcoin_tps_matches_table1(self):
        assert bitcoin_like().tps == pytest.approx(7.0)

    def test_ethereum_tps_matches_table1(self):
        assert ethereum_like().tps == pytest.approx(25.0)

    def test_table1_order(self):
        ids = [p.chain_id for p in table1_presets()]
        assert ids == ["bitcoin", "ethereum", "litecoin", "bitcoin-cash"]

    def test_bitcoin_blocks_per_hour(self):
        assert bitcoin_like().blocks_per_hour == pytest.approx(6.0)

    def test_fast_chain_overrides(self):
        params = fast_chain("x", confirmation_depth=5, difficulty_bits=2)
        assert params.confirmation_depth == 5
        assert params.difficulty_bits == 2

    def test_with_overrides_copies(self):
        base = fast_chain("x")
        other = base.with_overrides(block_interval=9.0)
        assert base.block_interval != 9.0
        assert other.block_interval == 9.0


class TestGraphGenerators:
    def test_two_party_shape(self):
        graph = two_party_swap()
        assert len(graph.participants) == 2
        assert graph.num_contracts == 2

    def test_cycle_sizes(self):
        for n in (2, 3, 7):
            graph = directed_cycle(n)
            assert len(graph.participants) == n
            assert graph.num_contracts == n

    def test_path_shape(self):
        graph = bidirectional_path(4)
        assert graph.num_contracts == 6

    def test_complete_shape(self):
        graph = complete_digraph(4)
        assert graph.num_contracts == 12

    def test_figure7a_structure(self):
        graph = figure7a_cyclic()
        assert graph.is_cyclic()
        assert graph.is_connected()

    def test_figure7b_structure(self):
        graph = figure7b_disconnected()
        assert not graph.is_connected()

    def test_ring_with_diameter(self):
        for d in (2, 5, 9):
            assert ring_with_diameter(d).diameter() == d

    def test_ring_with_diameter_minimum(self):
        with pytest.raises(GraphError):
            ring_with_diameter(1)

    def test_random_graph_deterministic_per_seed(self):
        a = random_graph(5, 0.4, RngRegistry(9).stream("g"))
        b = random_graph(5, 0.4, RngRegistry(9).stream("g"))
        assert a.edges == b.edges

    def test_random_graph_never_empty(self):
        graph = random_graph(3, 0.0, RngRegistry(1).stream("g"))
        assert graph.num_contracts >= 1

    def test_chain_ids_respected(self):
        graph = directed_cycle(3, chain_ids=["only-chain"])
        assert graph.chains_used() == {"only-chain"}


class TestScenarioBuilder:
    def test_builds_chains_for_graph(self):
        graph = two_party_swap(chain_a="x", chain_b="y")
        env = build_scenario(graph=graph)
        assert set(env.chains) == {"x", "y", "witness"}

    def test_participants_funded_everywhere(self):
        graph = two_party_swap(chain_a="x", chain_b="y")
        env = build_scenario(graph=graph, funding=12_345)
        for name in graph.participant_names():
            for chain_id in env.chains:
                assert env.participant(name).balance_on(chain_id) == 12_345

    def test_mining_advances_chains(self):
        graph = two_party_swap(chain_a="x", chain_b="y")
        env = build_scenario(graph=graph)
        env.simulator.run_until(3.5)
        assert all(chain.height >= 3 for chain in env.chains.values())

    def test_warm_up(self):
        graph = two_party_swap(chain_a="x", chain_b="y")
        env = build_scenario(graph=graph)
        env.warm_up(blocks=2)
        assert all(chain.height >= 2 for chain in env.chains.values())

    def test_requires_participants(self):
        with pytest.raises(ProtocolError):
            build_scenario()

    def test_chain_params_override(self):
        graph = two_party_swap(chain_a="x", chain_b="y")
        env = build_scenario(
            graph=graph,
            chain_params={"x": fast_chain("x", block_interval=0.5)},
        )
        assert env.chain("x").params.block_interval == 0.5
        assert env.chain("y").params.block_interval == 1.0

    def test_deterministic_given_seed(self):
        graph = two_party_swap(chain_a="x", chain_b="y")
        heads = []
        for _ in range(2):
            env = build_scenario(graph=graph, seed=99)
            env.warm_up(3)
            heads.append(env.chain("x").head_hash)
        assert heads[0] == heads[1]
