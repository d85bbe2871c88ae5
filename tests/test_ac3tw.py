"""Tests for AC3TW: Trent's key/value store and the CentralizedSC."""

import pytest

from repro.core.ac3tw import AC3TWConfig, AC3TWDriver, TrustedWitness
from repro.crypto.commitment import CommitmentPurpose, SignatureCommitment
from repro.errors import WitnessError
from repro.workloads.graphs import two_party_swap
from repro.workloads.scenarios import build_scenario
from repro.crypto.keys import KeyPair


def graph_keypairs(graph):
    return {
        name: KeyPair.from_seed(f"participant/{name}")
        for name in graph.participant_names()
    }


class TestTrentStore:
    def _registered(self, graph=None):
        graph = graph or two_party_swap()
        trent = TrustedWitness({})
        ms = graph.multisign(graph_keypairs(graph))
        ms_id = trent.register(graph, ms)
        return trent, graph, ms, ms_id

    def test_register(self):
        trent, _, _, ms_id = self._registered()
        assert ms_id in trent.store

    def test_duplicate_registration_rejected(self):
        trent, graph, ms, _ = self._registered()
        with pytest.raises(WitnessError):
            trent.register(graph, ms)

    def test_same_graph_new_timestamp_registers(self):
        trent, _, _, _ = self._registered()
        graph2 = two_party_swap(timestamp=1)
        ms2 = graph2.multisign(graph_keypairs(graph2))
        trent2 = TrustedWitness({})
        trent2.register(graph2, ms2)  # fresh witness: fine
        # Same witness: different timestamp → different ms(D) → accepted.
        trent.register(graph2, ms2)

    def test_invalid_multisig_rejected(self):
        graph = two_party_swap()
        trent = TrustedWitness({})
        other = two_party_swap(timestamp=9)
        wrong_ms = other.multisign(graph_keypairs(other))
        with pytest.raises(WitnessError):
            trent.register(graph, wrong_ms)

    def test_refund_without_decision(self):
        trent, _, _, ms_id = self._registered()
        signature = trent.request_refund(ms_id)
        commitment = SignatureCommitment(
            ms_id, trent.public_key, CommitmentPurpose.REFUND
        )
        assert commitment.verify(signature)

    def test_refund_is_idempotent(self):
        trent, _, _, ms_id = self._registered()
        assert trent.request_refund(ms_id) == trent.request_refund(ms_id)

    def test_redemption_after_refund_refused(self):
        trent, _, _, ms_id = self._registered()
        trent.request_refund(ms_id)
        with pytest.raises(WitnessError):
            trent.request_redemption(ms_id, {})

    def test_unregistered_ms_refused(self):
        trent = TrustedWitness({})
        with pytest.raises(WitnessError):
            trent.request_refund(b"\x00" * 32)

    def test_redemption_requires_contracts(self):
        trent, _, _, ms_id = self._registered()
        with pytest.raises(WitnessError):
            trent.request_redemption(ms_id, {})

    def test_unavailable_trent_raises(self):
        trent, graph, ms, ms_id = self._registered()
        trent.available = False
        with pytest.raises(WitnessError):
            trent.request_refund(ms_id)
        with pytest.raises(WitnessError):
            trent.register(graph, ms)


class TestAC3TWEndToEnd:
    def test_commit(self):
        graph = two_party_swap(chain_a="a", chain_b="b")
        env = build_scenario(graph=graph, seed=21)
        env.warm_up(2)
        trent = TrustedWitness(env.chains)
        outcome = AC3TWDriver(env, graph, trent).run()
        assert outcome.decision == "commit"
        assert outcome.is_atomic
        assert all(r.final_state == "RD" for r in outcome.contracts.values())

    def test_abort_on_decliner(self):
        graph = two_party_swap(chain_a="a", chain_b="b", timestamp=1)
        env = build_scenario(graph=graph, seed=22)
        env.warm_up(2)
        trent = TrustedWitness(env.chains)
        config = AC3TWConfig(decliners=frozenset({"bob"}))
        outcome = AC3TWDriver(env, graph, trent, config).run()
        assert outcome.decision == "abort"
        assert outcome.is_atomic
        states = outcome.final_states()
        assert states["alice->bob@a"] == "RF"
        assert states["bob->alice@b"] == "unpublished"

    def test_trent_crash_leaves_swap_undecided(self):
        """The availability weakness AC3WN removes: dead Trent, no decision."""
        graph = two_party_swap(chain_a="a", chain_b="b", timestamp=2)
        env = build_scenario(graph=graph, seed=23)
        env.warm_up(2)
        trent = TrustedWitness(env.chains)

        class DyingTrent(TrustedWitness):
            pass

        trent.available = True
        # Trent dies right after registration: monkey-patch via flag flip
        # before the decision request by wrapping request_redemption.
        original = trent.request_redemption

        def dead(*args, **kwargs):
            trent.available = False
            return original(*args, **kwargs)

        trent.request_redemption = dead
        outcome = AC3TWDriver(env, graph, trent).run()
        assert outcome.decision == "undecided"
        # No contract settled: assets are stuck, but never non-atomic.
        assert outcome.is_atomic
        assert all(
            r.final_state in ("P", "unpublished")
            for r in outcome.contracts.values()
        )

    def test_redemption_verification_checks_amounts(self):
        """Trent refuses to commit when a contract locks the wrong asset."""
        graph = two_party_swap(chain_a="a", chain_b="b", timestamp=3)
        env = build_scenario(graph=graph, seed=24)
        env.warm_up(2)
        trent = TrustedWitness(env.chains)
        ms = graph.multisign(
            {name: env.participant(name).keypair for name in graph.participant_names()}
        )
        ms_id = trent.register(graph, ms)
        # Report contract ids that do not exist.
        from repro.core.protocol import edge_key

        bogus = {edge_key(e): b"\x00" * 32 for e in graph.edges}
        with pytest.raises(WitnessError):
            trent.request_redemption(ms_id, bogus)
