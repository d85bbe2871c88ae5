"""Commitment (liveness) tests: decided AC2Ts eventually settle.

The paper's second correctness property: "once the protocol decides the
commitment of an AC2T, all asset transfers must eventually take place."
AC3WN has no timelocks, so a decision never expires — these tests
exercise very late settlements and out-of-band settlement by recovered
participants.
"""

import pytest

from repro.core.ac3wn import AC3WNConfig, AC3WNDriver, WitnessState
from repro.core.evidence import build_state_evidence
from repro.sim.failures import FailureSchedule
from repro.workloads.graphs import two_party_swap
from repro.workloads.scenarios import build_scenario


def committed_but_unsettled(seed):
    """Run AC3WN with Bob down: commit decided, Bob's redeem pending.

    Under the eager (on-block-hook) cadence the decision lands at t≈7
    and settlement at t≈8, so Bob crashes at 6.5 — after his deploy
    confirmed, before the authorization he would redeem with.
    """
    graph = two_party_swap(chain_a="a", chain_b="b", timestamp=seed)
    env = build_scenario(graph=graph, seed=seed)
    env.apply_failures(FailureSchedule().crash("bob", start=6.5, end=None))
    env.warm_up(2)
    driver = AC3WNDriver(env, graph, AC3WNConfig(witness_chain_id="witness"))
    outcome = driver.run()
    assert outcome.decision == "commit"
    record = outcome.contracts["alice->bob@a"]
    chain = env.chain("a")
    assert chain.contract(record.contract_id).state == "P"  # pending
    return env, graph, driver, record


class TestEventualSettlement:
    def test_recovered_participant_settles_much_later(self):
        env, graph, driver, record = committed_but_unsettled(301)
        bob = env.participant("bob")
        # Bob recovers *long* after the decision — hundreds of blocks.
        env.simulator.run_until(env.simulator.now + 200.0)
        bob.recover()
        witness = env.chain("witness")
        evidence = build_state_evidence(
            witness,
            driver._scw_id,
            driver._decision_call,
            WitnessState.REDEEM_AUTHORIZED,
            anchor=driver._witness_anchor,
        )
        call = bob.call_contract("a", record.contract_id, "redeem", (evidence,))
        env.simulator.run_until_true(
            lambda: env.chain("a").receipt(call.message_id()) is not None,
            timeout=60.0,
        )
        assert env.chain("a").receipt(call.message_id()).status == "ok"
        assert env.chain("a").contract(record.contract_id).state == "RD"

    def test_third_party_can_settle_for_the_recipient(self):
        """Anyone may submit the redeem call; the asset still flows to
        the contract's recipient — useful for watchtower services."""
        env, graph, driver, record = committed_but_unsettled(302)
        alice = env.participant("alice")  # NOT the recipient of this edge
        bob_addr = env.participant("bob").address
        before = env.chain("a").balance_of(bob_addr)
        witness = env.chain("witness")
        evidence = build_state_evidence(
            witness,
            driver._scw_id,
            driver._decision_call,
            WitnessState.REDEEM_AUTHORIZED,
            anchor=driver._witness_anchor,
        )
        call = alice.call_contract("a", record.contract_id, "redeem", (evidence,))
        env.simulator.run_until_true(
            lambda: env.chain("a").receipt(call.message_id()) is not None,
            timeout=60.0,
        )
        assert env.chain("a").receipt(call.message_id()).status == "ok"
        after = env.chain("a").balance_of(bob_addr)
        assert after - before == record.edge.amount

    def test_stale_evidence_still_valid(self):
        """Evidence anchored at an old stable header remains verifiable
        arbitrarily far in the future (headers only accumulate)."""
        env, graph, driver, record = committed_but_unsettled(303)
        witness = env.chain("witness")
        evidence = build_state_evidence(
            witness,
            driver._scw_id,
            driver._decision_call,
            WitnessState.REDEEM_AUTHORIZED,
            anchor=driver._witness_anchor,
        )
        # Let 500 more witness blocks pass; the evidence (already built)
        # still verifies against the contract's stored anchor.
        env.simulator.run_until(env.simulator.now + 500.0)
        from repro.core.evidence import verify_evidence

        contract_id, state = verify_evidence(
            evidence, driver._witness_anchor, 2
        )
        assert contract_id == driver._scw_id
        assert state == WitnessState.REDEEM_AUTHORIZED

    def test_no_timelock_exists_to_expire(self):
        """Structural check: PermissionlessSC has no time-based fields —
        the design removes the failure channel entirely."""
        env, graph, driver, record = committed_but_unsettled(304)
        contract = env.chain("a").contract(record.contract_id)
        fields = vars(contract)
        assert not any("timelock" in name for name in fields)
        assert not any("deadline" in name for name in fields)
