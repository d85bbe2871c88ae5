"""Integration tests: every protocol end-to-end on the simulator."""

import pytest

from repro.chain.messages import DeployMessage
from repro.core.ac3wn import run_ac3wn
from repro.core.herlihy import compute_publish_waves, run_herlihy
from repro.core.nolan import run_nolan, validate_two_party
from repro.core.protocol import edge_key
from repro.errors import GraphError
from repro.workloads.graphs import (
    complete_digraph,
    directed_cycle,
    figure7a_cyclic,
    figure7b_disconnected,
    two_party_swap,
)
from repro.workloads.scenarios import build_scenario


def balances(env, graph):
    return {
        (name, chain_id): env.participant(name).balance_on(chain_id)
        for name in graph.participant_names()
        for chain_id in graph.chains_used()
    }


class TestAC3WNCommit:
    def test_two_party_commit(self):
        graph = two_party_swap(chain_a="a", chain_b="b")
        env = build_scenario(graph=graph, seed=1)
        env.warm_up(2)
        outcome = run_ac3wn(env, graph, witness_chain_id="witness")
        assert outcome.decision == "commit"
        assert outcome.is_atomic
        assert all(r.final_state == "RD" for r in outcome.contracts.values())

    def test_assets_actually_move(self):
        graph = two_party_swap(chain_a="a", chain_b="b", amount_a=500, amount_b=700)
        env = build_scenario(graph=graph, seed=2)
        env.warm_up(2)
        before = balances(env, graph)
        run_ac3wn(env, graph, witness_chain_id="witness")
        after = balances(env, graph)
        fees_a = env.chain("a").params.fees
        # Alice paid 500 on chain a (plus deploy fee) and received 700 on b.
        assert after[("bob", "a")] - before[("bob", "a")] == 500 - fees_a.call
        assert after[("alice", "b")] - before[("alice", "b")] == 700 - fees_a.call

    def test_ring_commit(self):
        graph = directed_cycle(4, chain_ids=["c0", "c1", "c2", "c3"])
        env = build_scenario(graph=graph, seed=3)
        env.warm_up(2)
        outcome = run_ac3wn(env, graph, witness_chain_id="witness")
        assert outcome.decision == "commit"
        assert outcome.is_atomic

    def test_complete_graph_commit(self):
        graph = complete_digraph(3, chain_ids=["x", "y"])
        env = build_scenario(graph=graph, seed=4)
        env.warm_up(2)
        outcome = run_ac3wn(env, graph, witness_chain_id="witness")
        assert outcome.decision == "commit"
        assert outcome.graph.num_contracts == 6

    def test_witness_can_be_an_asset_chain(self):
        """Section 6.4: choose the witness from the involved chains."""
        graph = two_party_swap(chain_a="a", chain_b="b", timestamp=5)
        env = build_scenario(graph=graph, seed=5, witness_chain_id="a")
        env.warm_up(2)
        outcome = run_ac3wn(env, graph, witness_chain_id="a")
        assert outcome.decision == "commit"

    def test_relay_anchored_commit(self):
        """``SCw`` stores one relay anchor per asset chain and every asset
        contract one of the witness chain: each a main-chain header below
        the message that the evidence checked against it proves."""
        graph = two_party_swap(chain_a="a", chain_b="b", timestamp=6)
        env = build_scenario(graph=graph, seed=6)
        env.warm_up(2)
        outcome = run_ac3wn(env, graph, witness_chain_id="witness")
        assert outcome.decision == "commit"

        def on_main_chain_below(chain_id, header, height):
            chain = env.chain(chain_id)
            assert header.chain_id == chain_id
            assert chain.block_at_height(header.height).header == header
            assert header.height <= height

        witness = env.chain("witness")
        scw_id = outcome.coordinator_contract_id
        scw = witness.contract(scw_id)
        scw_height = next(
            block.header.height
            for block in witness.main_chain()
            for message in block.messages
            if isinstance(message, DeployMessage) and message.contract_id() == scw_id
        )
        assert sorted(scw.anchors) == sorted(graph.chains_used())
        for record in outcome.contracts.values():
            chain_id = record.edge.chain_id
            chain = env.chain(chain_id)
            deploy_height = chain.find_message(record.deploy_message_id).height
            on_main_chain_below(chain_id, scw.anchors[chain_id], deploy_height)
            contract = chain.contract(record.contract_id)
            assert contract.witness_contract_id == scw_id
            assert contract.witness_min_depth == witness.params.confirmation_depth
            on_main_chain_below("witness", contract.witness_anchor, scw_height)


class TestAC3WNAbort:
    def test_decliner_aborts_and_refunds(self):
        graph = two_party_swap(chain_a="a", chain_b="b", timestamp=7)
        env = build_scenario(graph=graph, seed=7)
        env.warm_up(2)
        outcome = run_ac3wn(
            env, graph, witness_chain_id="witness", decliners=frozenset({"bob"})
        )
        assert outcome.decision == "abort"
        assert outcome.is_atomic
        states = outcome.final_states()
        assert states[edge_key(graph.edges[0])] == "RF"
        assert states[edge_key(graph.edges[1])] == "unpublished"

    def test_abort_returns_assets(self):
        graph = two_party_swap(chain_a="a", chain_b="b", timestamp=8, amount_a=500)
        env = build_scenario(graph=graph, seed=8)
        env.warm_up(2)
        before = env.participant("alice").balance_on("a")
        run_ac3wn(env, graph, witness_chain_id="witness", decliners=frozenset({"bob"}))
        after = env.participant("alice").balance_on("a")
        fees = env.chain("a").params.fees
        # Alice lost only the deploy + refund-call fees, never the asset.
        assert before - after == fees.deploy + fees.call

    def test_all_decline_aborts_cleanly(self):
        graph = two_party_swap(chain_a="a", chain_b="b", timestamp=9)
        env = build_scenario(graph=graph, seed=9)
        env.warm_up(2)
        outcome = run_ac3wn(
            env,
            graph,
            witness_chain_id="witness",
            decliners=frozenset({"alice", "bob"}),
        )
        assert outcome.decision == "abort"
        assert all(r.final_state == "unpublished" for r in outcome.contracts.values())


class TestComplexGraphs:
    def test_figure7a_ac3wn_commits(self):
        graph = figure7a_cyclic()
        env = build_scenario(graph=graph, seed=10)
        env.warm_up(2)
        outcome = run_ac3wn(env, graph, witness_chain_id="witness")
        assert outcome.decision == "commit"
        assert outcome.is_atomic

    def test_figure7b_ac3wn_commits(self):
        graph = figure7b_disconnected()
        env = build_scenario(graph=graph, seed=11)
        env.warm_up(2)
        outcome = run_ac3wn(env, graph, witness_chain_id="witness")
        assert outcome.decision == "commit"

    def test_figure7a_herlihy_refuses(self):
        graph = figure7a_cyclic()
        env = build_scenario(graph=graph, seed=12)
        with pytest.raises(GraphError):
            run_herlihy(env, graph)

    def test_figure7b_herlihy_refuses(self):
        graph = figure7b_disconnected()
        env = build_scenario(graph=graph, seed=13)
        with pytest.raises(GraphError):
            run_herlihy(env, graph)

    def test_figure7b_abort_refunds_both_components(self):
        graph = figure7b_disconnected()
        env = build_scenario(graph=graph, seed=14)
        env.warm_up(2)
        outcome = run_ac3wn(
            env, graph, witness_chain_id="witness", decliners=frozenset({"d"})
        )
        assert outcome.decision == "abort"
        # Published contracts in BOTH components refund — the batch is
        # atomic even though nothing connects the components.
        published = [r for r in outcome.contracts.values() if r.final_state != "unpublished"]
        assert published and all(r.final_state == "RF" for r in published)


class TestHerlihyAndNolan:
    def test_nolan_commit(self):
        graph = two_party_swap(chain_a="a", chain_b="b", timestamp=15)
        env = build_scenario(graph=graph, seed=15)
        env.warm_up(2)
        outcome = run_nolan(env, graph)
        assert outcome.decision == "commit"
        assert outcome.is_atomic

    def test_nolan_rejects_multiparty(self):
        graph = directed_cycle(3)
        env = build_scenario(graph=graph, seed=16)
        with pytest.raises(GraphError):
            run_nolan(env, graph)

    def test_validate_two_party_rejects_one_direction(self):
        from repro.core.graph import AssetEdge, SwapGraph
        from repro.workloads.graphs import participant_pairs

        keys = participant_pairs(["a", "b"])
        graph = SwapGraph.build(
            keys,
            [AssetEdge("a", "b", "c1", 10), AssetEdge("a", "b", "c2", 20)],
        )
        with pytest.raises(GraphError):
            validate_two_party(graph)

    def test_herlihy_ring_commit(self):
        graph = directed_cycle(3, chain_ids=["c0", "c1", "c2"])
        env = build_scenario(graph=graph, seed=17)
        env.warm_up(2)
        outcome = run_herlihy(env, graph)
        assert outcome.decision == "commit"
        assert outcome.is_atomic

    def test_herlihy_decliner_refunds_everyone(self):
        graph = directed_cycle(3, chain_ids=["c0", "c1", "c2"])
        env = build_scenario(graph=graph, seed=18)
        env.warm_up(2)
        outcome = run_herlihy(env, graph, decliners=frozenset({"p01"}))
        assert outcome.decision == "abort"
        assert outcome.is_atomic
        published = [r for r in outcome.contracts.values() if r.final_state != "unpublished"]
        assert all(r.final_state == "RF" for r in published)

    def test_publish_waves_two_party(self):
        graph = two_party_swap()
        waves = compute_publish_waves(graph, "alice")
        assert waves == {"alice": 0, "bob": 1}

    def test_publish_waves_ring(self):
        graph = directed_cycle(4)
        waves = compute_publish_waves(graph, "p00")
        assert waves == {"p00": 0, "p01": 1, "p02": 2, "p03": 3}

    def test_herlihy_latency_scales_with_diameter(self):
        """The core Figure 10 effect, measured: ring-5 takes much longer
        than ring-2 under Herlihy, but not under AC3WN."""
        results = {}
        for n in (2, 4):
            graph = directed_cycle(n, chain_ids=[f"n{i}" for i in range(n)], timestamp=20 + n)
            env = build_scenario(graph=graph, seed=19 + n)
            env.warm_up(2)
            outcome = run_herlihy(env, graph)
            assert outcome.decision == "commit"
            results[n] = outcome.latency
        assert results[4] > 1.5 * results[2]

    def test_ac3wn_latency_flat_in_diameter(self):
        results = {}
        for n in (2, 4):
            graph = directed_cycle(n, chain_ids=[f"m{i}" for i in range(n)], timestamp=30 + n)
            env = build_scenario(graph=graph, seed=29 + n)
            env.warm_up(2)
            outcome = run_ac3wn(env, graph, witness_chain_id="witness")
            assert outcome.decision == "commit"
            results[n] = outcome.latency
        assert results[4] <= 1.5 * results[2]


class TestOutcomeAudit:
    def test_mixed_outcome_is_not_atomic(self):
        from repro.core.protocol import ContractRecord, SwapOutcome
        from repro.core.graph import AssetEdge

        graph = two_party_swap()
        outcome = SwapOutcome(protocol="test", graph=graph)
        e1, e2 = graph.edges
        r1 = ContractRecord(edge=e1)
        r1.final_state = "RD"
        r2 = ContractRecord(edge=e2)
        r2.final_state = "RF"
        outcome.contracts = {edge_key(e1): r1, edge_key(e2): r2}
        assert not outcome.is_atomic

    def test_pending_contract_not_a_violation(self):
        from repro.core.protocol import ContractRecord, SwapOutcome

        graph = two_party_swap()
        outcome = SwapOutcome(protocol="test", graph=graph)
        e1, e2 = graph.edges
        r1 = ContractRecord(edge=e1)
        r1.final_state = "RD"
        r2 = ContractRecord(edge=e2)
        r2.final_state = "P"
        outcome.contracts = {edge_key(e1): r1, edge_key(e2): r2}
        assert outcome.is_atomic
        assert not outcome.all_settled
