#!/usr/bin/env python
"""Section 5.3 / Figure 7: complex AC2T graphs from supply chains.

Two graphs that leader-based protocols cannot execute:

* Figure 7a — a cyclic settlement among four parties that stays cyclic
  no matter which vertex you remove (no valid leader exists).
* Figure 7b — a *disconnected* batch: two unrelated bilateral swaps that
  the parties want settled atomically as one transaction (e.g. netting
  obligations across a trading day).

AC3WN executes both; Herlihy's protocol provably refuses.  We also show
the all-or-nothing property across disconnected components: one refusal
aborts and refunds the entire batch.

Run:  python examples/supply_chain_swaps.py
"""

from repro.core import run_ac3wn, run_herlihy
from repro.errors import GraphError
from repro.workloads import build_scenario
from repro.workloads.graphs import figure7a_cyclic, figure7b_disconnected


def describe(graph, label):
    print(f"{label}: |V|={len(graph.participants)} |E|={graph.num_contracts} "
          f"cyclic={graph.is_cyclic()} connected={graph.is_connected()}")


def main() -> None:
    # --- Figure 7a: the cyclic settlement -------------------------------
    graph_a = figure7a_cyclic(timestamp=1)
    describe(graph_a, "Figure 7a")

    env = build_scenario(graph=graph_a, seed=71)
    try:
        run_herlihy(env, graph_a)
    except GraphError as exc:
        print(f"  Herlihy refuses: {exc}")

    env = build_scenario(graph=graph_a, seed=72)
    env.warm_up(2)
    outcome = run_ac3wn(env, graph_a, witness_chain_id="witness")
    print(f"  AC3WN: {outcome.summary()}\n")
    assert outcome.decision == "commit" and outcome.is_atomic

    # --- Figure 7b: the disconnected batch -------------------------------
    graph_b = figure7b_disconnected(timestamp=2)
    describe(graph_b, "Figure 7b")

    env = build_scenario(graph=graph_b, seed=73)
    try:
        run_herlihy(env, graph_b)
    except GraphError as exc:
        print(f"  Herlihy refuses: {exc}")

    env = build_scenario(graph=graph_b, seed=74)
    env.warm_up(2)
    outcome = run_ac3wn(env, graph_b, witness_chain_id="witness")
    print(f"  AC3WN: {outcome.summary()}")
    assert outcome.decision == "commit"

    # --- Batch atomicity across components --------------------------------
    print("\nNow participant 'd' (second component) refuses to publish:")
    graph_c = figure7b_disconnected(timestamp=3)
    env = build_scenario(graph=graph_c, seed=75)
    env.warm_up(2)
    outcome = run_ac3wn(
        env, graph_c, witness_chain_id="witness", decliners=frozenset({"d"})
    )
    print(f"  AC3WN: {outcome.summary()}")
    for key, state in sorted(outcome.final_states().items()):
        print(f"    {key}: {state}")
    assert outcome.decision == "abort" and outcome.is_atomic
    print(
        "  One refusal in one component aborted the whole batch — the "
        "a⇄b swap refunded too, even though nothing connects it to d."
    )


if __name__ == "__main__":
    main()
