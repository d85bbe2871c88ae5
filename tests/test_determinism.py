"""Reproducibility tests: identical seeds produce identical worlds.

Determinism is a design pillar (docs/experiments.md, "Determinism
contract"): every experiment in the benchmark suite must be exactly
repeatable.  These tests pin it at every
level — crypto, chain, protocol — and across interpreters: nothing a
command prints or writes follows ``str`` hash order.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro import serde
from repro.core.ac3wn import run_ac3wn
from repro.core.herlihy import run_herlihy
from repro.experiment import ExperimentSpec
from repro.service import ServiceSpec
from repro.sweeps import SweepSpec
from repro.workloads.graphs import directed_cycle, two_party_swap
from repro.workloads.scenarios import build_scenario


class TestCryptoDeterminism:
    def test_key_derivation(self):
        from repro.crypto.keys import KeyPair

        a = KeyPair.from_seed("determinism")
        b = KeyPair.from_seed("determinism")
        assert a.private_scalar == b.private_scalar

    def test_signature_bytes(self):
        from repro.crypto.hashing import sha256
        from repro.crypto.keys import KeyPair

        kp = KeyPair.from_seed("sig")
        digest = sha256(b"message")
        assert kp.sign(digest).to_bytes() == kp.sign(digest).to_bytes()

    def test_graph_digest(self):
        assert two_party_swap(timestamp=5).digest() == two_party_swap(timestamp=5).digest()

    def test_multisignature_id(self):
        from repro.crypto.keys import KeyPair

        graph = two_party_swap(timestamp=5)
        kps = {n: KeyPair.from_seed(f"participant/{n}") for n in graph.participant_names()}
        assert graph.multisign(kps).id() == graph.multisign(kps).id()


class TestChainDeterminism:
    def test_identical_worlds_same_heads(self):
        def build():
            graph = two_party_swap(chain_a="x", chain_b="y", timestamp=1)
            env = build_scenario(graph=graph, seed=31337)
            env.warm_up(4)
            return {cid: chain.head_hash for cid, chain in env.chains.items()}

        assert build() == build()

    def test_poisson_mining_deterministic_per_seed(self):
        from repro.chain.chain import Blockchain
        from repro.chain.mempool import Mempool
        from repro.chain.miner import MinerNode
        from repro.chain.params import fast_chain
        from repro.sim.simulator import Simulator
        from repro.crypto.keys import KeyPair

        def run():
            sim = Simulator(seed=404)
            params = fast_chain("poisson-d").with_overrides(deterministic_intervals=False)
            chain = Blockchain(params, [(KeyPair.from_seed("a").address, 10)])
            MinerNode(sim, chain, Mempool(chain)).start()
            sim.run_until(20.0)
            return chain.head_hash

        assert run() == run()


class TestProtocolDeterminism:
    def test_ac3wn_outcome_reproducible(self):
        def run():
            graph = two_party_swap(chain_a="x", chain_b="y", timestamp=9)
            env = build_scenario(graph=graph, seed=777)
            env.warm_up(2)
            outcome = run_ac3wn(env, graph, witness_chain_id="witness")
            return (
                outcome.decision,
                outcome.latency,
                tuple(sorted(outcome.final_states().items())),
                outcome.fees_paid,
            )

        assert run() == run()

    def test_herlihy_outcome_reproducible(self):
        def run():
            graph = directed_cycle(3, chain_ids=["d0", "d1", "d2"], timestamp=10)
            env = build_scenario(graph=graph, seed=778)
            env.warm_up(2)
            outcome = run_herlihy(env, graph)
            return (outcome.decision, outcome.latency, outcome.fees_paid)

        assert run() == run()


#: A fresh interpreter's share of ``TestHashSeed``: the three spec
#: schemas, two whole sessions and their worlds' genesis block ids,
#: written under ``sys.argv[1]``.
HASH_SEED_CHILD = """
import contextlib, io, json, sys
from repro.cli import main
from repro.experiment import preset_spec
from repro.experiment.runner import build_environment, traffic_generator
from repro.service import SwapService, service_preset_spec
out = sys.argv[1]
spec = preset_spec("engine-smoke")
worlds = {
    "engine-smoke": build_environment(spec, traffic_generator(spec.traffic.generator)(spec)),
    "serve-steady": SwapService(service_preset_spec("serve-steady")).env,
}
genesis = {
    name: {cid: chain.block_at_height(0).block_id().hex() for cid, chain in env.chains.items()}
    for name, env in worlds.items()
}
with open(f"{out}/genesis.json", "w") as f:
    json.dump(genesis, f, sort_keys=True)
for spec in ("run", "serve", "sweep"):
    with open(f"{out}/describe-{spec}.txt", "w") as f, contextlib.redirect_stdout(f):
        assert main(["describe", spec]) == 0
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["run", "--preset", "engine-smoke", "--json", f"{out}/engine-smoke.json"]) == 0
    assert main(["serve", "--preset", "serve-steady", "--json", f"{out}/serve-steady.json",
                 "--request-log", f"{out}/serve-steady.log"]) == 0
"""


class TestHashSeed:
    def test_outputs_do_not_follow_hash_order(self, tmp_path):
        """``repro describe run|serve|sweep`` and the ``--json`` of
        ``run --preset engine-smoke`` and ``serve --preset serve-steady``
        are the same bytes under ``PYTHONHASHSEED=1`` and ``2``: choice
        sets and known-key lists must not inherit set order, and a world's
        genesis grouping (one per distinct member list — serve-steady
        shares one across its chains, engine-smoke builds one per chain)
        must not follow set or dict order — nor must the genesis blocks
        themselves.  They also equal this interpreter's schema and the
        pinned digests."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        runs = {}  # the two interpreters run at once, so the wall time is one run
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}"
            out.mkdir()
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
            runs[out] = subprocess.Popen(
                [sys.executable, "-c", HASH_SEED_CHILD, str(out)],
                env=env, stderr=subprocess.PIPE, text=True,
            )
        for child in runs.values():
            _, err = child.communicate(timeout=300)
            assert child.returncode == 0, err[-4000:]
        one, two = ({p.name: p.read_bytes() for p in out.iterdir()} for out in runs)
        assert sorted(one) == sorted(two) and len(one) == 7
        assert [name for name in one if one[name] != two[name]] == []
        for spec, cls in (("run", ExperimentSpec), ("serve", ServiceSpec), ("sweep", SweepSpec)):
            assert one[f"describe-{spec}.txt"].decode() == serde.describe(cls) + "\n"
        golden = Path(__file__).parent / "data" / "golden-artifact-digests.json"
        digests = json.loads(golden.read_text())
        genesis = json.loads(one["genesis.json"])
        assert genesis["engine-smoke"] == digests["genesis"]["engine-smoke"]
        artifact = one["engine-smoke.json"].removesuffix(b"\n")
        assert hashlib.sha256(artifact).hexdigest() == digests["engine-smoke"]
        log = one["serve-steady.log"]
        assert hashlib.sha256(log).hexdigest() == digests["files"]["serve-steady.request-log"]
