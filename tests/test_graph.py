"""Tests for the AC2T graph model: structure, diameter, ms(D)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import AssetEdge, SwapGraph
from repro.crypto.keys import KeyPair
from repro.errors import GraphError
from repro.workloads.graphs import (
    bidirectional_path,
    complete_digraph,
    directed_cycle,
    figure7a_cyclic,
    figure7b_disconnected,
    participant_pairs,
    random_graph,
    two_party_swap,
)
from repro.sim.rng import RngRegistry


class TestAssetEdge:
    def test_negative_amount_rejected(self):
        with pytest.raises(GraphError):
            AssetEdge("a", "b", "c", 0)

    def test_self_transfer_rejected(self):
        with pytest.raises(GraphError):
            AssetEdge("a", "a", "c", 1)


class TestGraphValidation:
    def test_unknown_endpoint_rejected(self):
        keys = participant_pairs(["a", "b"])
        with pytest.raises(GraphError):
            SwapGraph.build(keys, [AssetEdge("a", "ghost", "c", 1)])

    def test_empty_edges_rejected(self):
        with pytest.raises(GraphError):
            SwapGraph.build(participant_pairs(["a", "b"]), [])

    def test_duplicate_edges_rejected(self):
        keys = participant_pairs(["a", "b"])
        edge = AssetEdge("a", "b", "c", 1)
        with pytest.raises(GraphError):
            SwapGraph.build(keys, [edge, edge])


class TestDiameter:
    def test_two_party_diameter_is_2(self):
        assert two_party_swap().diameter() == 2

    def test_ring_diameter_equals_size(self):
        for n in (2, 3, 5, 8):
            assert directed_cycle(n).diameter() == n

    def test_path_diameter(self):
        # Bidirectional path of n nodes: the longest shortest path runs
        # end to end (n-1); every vertex also has a closed walk of 2 with
        # its neighbour, so the two-node path has diameter 2.
        for n in (2, 3, 4, 6):
            assert bidirectional_path(n).diameter() == max(n - 1, 2)

    def test_complete_digraph_diameter_is_2(self):
        assert complete_digraph(4).diameter() == 2

    def test_figure7b_diameter(self):
        # Two disjoint 2-cycles: each has a closed walk of length 2.
        assert figure7b_disconnected().diameter() == 2


class TestStructure:
    def test_two_party_is_cyclic(self):
        assert two_party_swap().is_cyclic()

    def test_figure7a_cyclic(self):
        assert figure7a_cyclic().is_cyclic()

    def test_figure7b_disconnected(self):
        graph = figure7b_disconnected()
        assert not graph.is_connected()

    def test_rings_connected(self):
        assert directed_cycle(4).is_connected()

    def test_chains_used(self):
        graph = two_party_swap(chain_a="x", chain_b="y")
        assert graph.chains_used() == {"x", "y"}

    def test_edges_to(self):
        graph = directed_cycle(3)
        assert len(graph.edges_to("p00")) == 1

    def test_edges_to_in_a_complete_digraph(self):
        graph = complete_digraph(4)
        for name in graph.participant_names():
            incoming = graph.edges_to(name)
            assert len(incoming) == 3
            assert {edge.recipient for edge in incoming} == {name}
            assert name not in {edge.source for edge in incoming}
        assert graph.edges_to("nobody") == []

    def test_num_contracts(self):
        assert complete_digraph(3).num_contracts == 6


class TestMultisignature:
    def _keypairs(self, graph):
        return {name: KeyPair.from_seed(f"participant/{name}") for name in graph.participant_names()}

    def test_full_multisig_verifies(self):
        graph = two_party_swap()
        ms = graph.multisign(self._keypairs(graph))
        assert graph.verify_multisignature(ms)

    def test_partial_multisig_fails(self):
        graph = two_party_swap()
        kps = self._keypairs(graph)
        partial = graph.multisign(kps)
        from repro.crypto.signatures import Multisignature

        dropped = Multisignature(partial.digest, partial.signatures[:1])
        assert not graph.verify_multisignature(dropped)

    def test_multisig_bound_to_graph(self):
        graph_a = two_party_swap(timestamp=1)
        graph_b = two_party_swap(timestamp=2)
        ms = graph_a.multisign(self._keypairs(graph_a))
        assert not graph_b.verify_multisignature(ms)

    def test_timestamp_distinguishes_identical_swaps(self):
        assert two_party_swap(timestamp=1).digest() != two_party_swap(timestamp=2).digest()

    def test_missing_keypair_withholds_its_signature(self):
        graph = two_party_swap()
        kps = self._keypairs(graph)
        del kps[graph.participant_names()[0]]
        partial = graph.multisign(kps)
        assert len(partial.signatures) == 1
        assert not graph.verify_multisignature(partial)


def _to_networkx(graph: SwapGraph) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(graph.participant_names())
    for edge in graph.edges:
        g.add_edge(edge.source, edge.recipient)
    return g


def _reference_diameter(graph: SwapGraph) -> int:
    """The paper's Diam(D) computed with networkx as an oracle."""
    g = _to_networkx(graph)
    lengths = dict(nx.all_pairs_shortest_path_length(g))
    best = 0
    for u in g.nodes:
        for v, dist in lengths.get(u, {}).items():
            if u != v:
                best = max(best, dist)
        # Shortest closed walk through u.
        cycles = [
            1 + lengths.get(w, {}).get(u)
            for w in g.successors(u)
            if lengths.get(w, {}).get(u) is not None
        ]
        if cycles:
            best = max(best, min(cycles))
    return best


class TestDiameterAgainstNetworkx:
    @given(
        st.integers(min_value=2, max_value=7),
        st.floats(min_value=0.15, max_value=0.9),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, n, p, seed):
        rng = RngRegistry(seed).stream("graph")
        graph = random_graph(n, p, rng)
        assert graph.diameter() == _reference_diameter(graph)
