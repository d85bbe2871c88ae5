#!/usr/bin/env python
"""The paper's Section 1 motivation, reproduced.

"If Bob fails to provide s to SC1 before t1 expires due to a crash
failure or a network partitioning at Bob's site, Bob loses his X
bitcoins and SC1 refunds the X bitcoins to Alice."

We run the *same* crash schedule (Bob goes down mid-swap and recovers
much later) under Nolan's HTLC protocol and under AC3WN, and show the
HTLC violates all-or-nothing atomicity while AC3WN does not.

Run:  python examples/crash_failure_comparison.py
"""

from repro.core import run_ac3wn, run_nolan
from repro.sim.failures import FailureSchedule
from repro.workloads import build_scenario, two_party_swap

CRASH_AT = 5.5  # just before Alice's reveal lands on-chain (eager cadence)
RECOVER_AT = 500.0  # far past every timelock


def run(protocol: str, seed: int):
    graph = two_party_swap(chain_a="btc-sim", chain_b="eth-sim", timestamp=seed)
    env = build_scenario(graph=graph, seed=seed)
    env.apply_failures(FailureSchedule().crash("bob", start=CRASH_AT, end=RECOVER_AT))
    env.warm_up(blocks=2)
    bob_before = env.participant("bob").balance_on("btc-sim") + env.participant(
        "bob"
    ).balance_on("eth-sim")
    if protocol == "nolan":
        outcome = run_nolan(env, graph)
    else:
        outcome = run_ac3wn(
            env, graph, witness_chain_id="witness", settle_timeout=600.0
        )
    bob_after = env.participant("bob").balance_on("btc-sim") + env.participant(
        "bob"
    ).balance_on("eth-sim")
    return outcome, bob_before, bob_after


def main() -> None:
    print(f"Failure schedule: bob crashes at t={CRASH_AT}s, recovers at t={RECOVER_AT}s\n")

    for protocol in ("nolan", "ac3wn"):
        outcome, before, after = run(protocol, seed=31 if protocol == "nolan" else 32)
        print(f"--- {protocol.upper()} ---")
        print(f"  {outcome.summary()}")
        for key, state in sorted(outcome.final_states().items()):
            print(f"    {key}: {state}")
        print(f"  bob's total holdings: {before} -> {after} ({after - before:+d})")
        if not outcome.is_atomic:
            print("  *** ATOMICITY VIOLATED: the crashed participant lost assets ***")
        print()

    nolan_outcome, _, _ = run("nolan", seed=31)
    ac3wn_outcome, _, _ = run("ac3wn", seed=32)
    assert not nolan_outcome.is_atomic, "HTLC should violate atomicity here"
    assert ac3wn_outcome.is_atomic, "AC3WN must never violate atomicity"
    print("Conclusion: identical crash, HTLC loses Bob's assets; AC3WN does not.")


if __name__ == "__main__":
    main()
