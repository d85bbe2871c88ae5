"""Per-layer microbenchmarks: one tight loop per public function.

Each entry of :data:`MICROS` builds its fixture from public constructors
and returns ``(operation, units)``: the harness calls ``operation()``
for a time budget, three times over, and reports the median of
``calls * units / seconds``.  Runnable alone::

    python benchmarks/ledger/run.py --only micro

The rates attribute a regression to a layer before anyone opens a
profiler; they carry no bound (the end-to-end metrics do).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import statistics
import tempfile
import time

from repro.chain.chain import Blockchain
from repro.chain.messages import TransferMessage
from repro.chain.params import fast_chain
from repro.chain.transaction import (
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
    sign_transaction,
)
from repro.chain.utxo import UTXOSet
from repro.chain.wire import canonical_encode
from repro.crypto import keys, signatures
from repro.crypto.keys import KeyPair
from repro.crypto.merkle import merkle_root
from repro.economy import FeePolicy, PriorityMempool
from repro.obs import MetricsRegistry, TraceCollector
from repro.service import (
    RequestRecord,
    dump_request_log,
    load_request_log,
    service_preset_spec,
)
from repro.sim.events import EventQueue
from repro.store import CampaignStore

ALICE = KeyPair.from_seed("ledger-alice")
BOB = KeyPair.from_seed("ledger-bob")
MINER = KeyPair.from_seed("ledger-miner")


def _digest(index: int) -> bytes:
    return hashlib.sha256(b"ledger-micro-%d" % index).digest()


def _noop() -> None:
    pass


# -- crypto ----------------------------------------------------------------


def keygen():
    counter = itertools.count()
    return (lambda: KeyPair.from_seed(f"ledger-key-{next(counter)}")), 1


def sign():
    counter = itertools.count()
    return (lambda: ALICE.sign(_digest(next(counter)))), 1


def verify_first_sight():
    signed = [(_digest(i), ALICE.sign(_digest(i))) for i in range(8)]
    public = ALICE.public_key

    def operation():
        keys.clear_verify_cache()
        for digest, signature in signed:
            public.verify(digest, signature)

    return operation, len(signed)


def verify_memo_hit():
    digest = _digest(0)
    signature = ALICE.sign(digest)
    public = ALICE.public_key
    public.verify(digest, signature)
    return (lambda: public.verify(digest, signature)), 1


def multisig_verify():
    """First sight of a 2-of-2 multisignature (both memos emptied each call)."""
    signers = [ALICE, BOB]
    multisig = signatures.multisign(signers, "ledger", b"payload")
    required = [pair.public_key for pair in signers]

    def operation():
        keys.clear_verify_cache()
        signatures.clear_verify_cache()
        multisig.verify(required)

    return operation, 1


def merkle_root_1k():
    leaves = [_digest(i) for i in range(1024)]
    return (lambda: merkle_root(leaves)), 1


# -- chain -----------------------------------------------------------------


def _funded_chain(name: str, coins: int, value: int = 1_000) -> Blockchain:
    return Blockchain(fast_chain(name), [(ALICE.address, value)] * coins)


def _self_transfers(chain: Blockchain, fees: list[int]) -> list[TransferMessage]:
    """One signed self-transfer per fee, each spending its own coin."""
    utxos = chain.state_at().utxos
    messages = []
    for outpoint, fee in zip(utxos.outpoints_of(ALICE.address), fees):
        value = utxos.get(outpoint).value
        tx = Transaction(
            inputs=(TxInput(outpoint),),
            outputs=(TxOutput(ALICE.address, value - fee),),
        )
        messages.append(TransferMessage(sign_transaction(tx, ALICE)))
    return messages


def encode():
    wire = _self_transfers(_funded_chain("ledger-encode", 1), [1])[0].tx.to_wire()
    return (lambda: canonical_encode(wire)), 1


def _utxo_set(entries: int) -> tuple[UTXOSet, list]:
    """``entries`` outputs spread over ``entries / 8`` owners."""
    owners = [KeyPair.from_seed(f"ledger-owner-{i}").address for i in range(16)]
    utxos = UTXOSet()
    per_tx = 8
    for index in range(entries):
        txid = hashlib.sha256(b"ledger-utxo-%d" % (index // per_tx)).digest()
        owner = owners[(index // per_tx) % len(owners)]
        utxos.add(OutPoint(txid, index % per_tx), TxOutput(owner, 100))
    return utxos, owners


def utxo_outpoints_of_1k():
    utxos, owners = _utxo_set(1024)
    return (lambda: utxos.outpoints_of(owners[3])), 1


def utxo_outpoints_of_32k():
    utxos, owners = _utxo_set(32768)
    return (lambda: utxos.outpoints_of(owners[3])), 1


def state_clone():
    state = _funded_chain("ledger-clone", 1024).state_at()
    return state.clone, 1


def block_connect():
    """Connect 8 pre-mined 2-transfer blocks onto a fresh chain (its
    16-coin genesis included); signatures hit the verify memo, as they do
    when a block follows the miner's own template pass."""
    coins = 16
    source = _funded_chain("ledger-connect", coins)
    transfers = _self_transfers(source, [1] * coins)
    blocks = []
    for height in range(8):
        block = source.make_block(
            transfers[2 * height : 2 * height + 2], MINER.address, float(height + 1)
        )
        source.add_block(block)
        blocks.append(block)

    def operation():
        chain = _funded_chain("ledger-connect", coins)
        for block in blocks:
            chain.add_block(block)

    return operation, len(blocks)


# -- economy ---------------------------------------------------------------


def _fee_market(name: str, capacity: int):
    coins = 48
    chain = _funded_chain(name, coins)
    messages = _self_transfers(chain, list(range(1, coins + 1)))
    policy = FeePolicy(block_weight_budget=16, capacity_weight=capacity)
    return chain, messages, policy


def submit_evict():
    """48 rising-fee submits into a 16-weight pool: 32 of them evict."""
    chain, messages, policy = _fee_market("ledger-evict", capacity=16)

    def operation():
        pool = PriorityMempool(chain, policy)
        for message in messages:
            pool.submit(message)

    return operation, len(messages)


def take_block():
    chain, messages, policy = _fee_market("ledger-take", capacity=400)
    pool = PriorityMempool(chain, policy)
    for message in messages:
        pool.submit(message)

    def operation():
        pool.requeue(pool.take_block(1000))

    return operation, 1


# -- sim -------------------------------------------------------------------


def schedule_pop():
    def operation():
        queue = EventQueue()
        for index in range(256):
            queue.push(float(index % 17), _noop)
        while queue.pop() is not None:
            pass

    return operation, 256


def schedule_cancel():
    def operation():
        queue = EventQueue()
        events = [queue.push(float(index % 17), _noop) for index in range(256)]
        for event in events:
            event.cancel()
        queue.pop()

    return operation, 256


# -- obs -------------------------------------------------------------------


def emit():
    collector = TraceCollector(ring_size=4096)
    return (lambda: collector.emit("swap", "phase", swap_id=7, phase="deploy")), 1


def emit_disabled():
    """The emit-site guard when the category is filtered out."""
    collector = TraceCollector(categories=("alert",))

    def operation():
        if collector.wants("swap"):
            collector.emit("swap", "phase", swap_id=7, phase="deploy")

    return operation, 1


def registry_inc():
    counter = MetricsRegistry().counter("ledger_micro_total", "microbenchmark counter")
    return (lambda: counter.inc(protocol="ac3wn")), 1


# -- store / service -------------------------------------------------------

_ARTIFACT = "{" + ", ".join(f'"k{i}": {i}' for i in range(256)) + "}"
_ROW = {"committed": 20, "commit_rate": 1.0, "p99_latency": 5.9, "protocol": "ac3wn"}


def append_point(store: CampaignStore):
    campaign = store.create_campaign("ledger-micro-append", kind="bench")
    counter = itertools.count()

    def operation():
        index = next(counter)
        store.append_point(
            campaign,
            index,
            name=f"point-{index}",
            coords={"rate": 8.0},
            row=_ROW,
            artifact=_ARTIFACT,
        )

    return operation, 1


def get_artifact(store: CampaignStore):
    campaign = store.create_campaign("ledger-micro-read", kind="bench")
    for index in range(64):
        store.append_point(campaign, index, row=_ROW, artifact=_ARTIFACT)
    counter = itertools.count()
    return (lambda: store.get_artifact(campaign, next(counter) % 64)), 1


def requestlog_roundtrip():
    spec = service_preset_spec("serve-steady")
    records = [
        RequestRecord(seq=i, at=i * 0.125, source="steady", protocol="ac3wn", amount=100)
        for i in range(64)
    ]
    return (lambda: load_request_log(dump_request_log(spec, records))), len(records)


#: metric name -> fixture builder.
MICROS = {
    "crypto.keygen_per_s": keygen,
    "crypto.sign_per_s": sign,
    "crypto.verify_first_sight_per_s": verify_first_sight,
    "crypto.verify_memo_hit_per_s": verify_memo_hit,
    "crypto.multisig_verify_per_s": multisig_verify,
    "crypto.merkle_root_1k_per_s": merkle_root_1k,
    "chain.encode_per_s": encode,
    "chain.utxo_outpoints_of_1k_per_s": utxo_outpoints_of_1k,
    "chain.utxo_outpoints_of_32k_per_s": utxo_outpoints_of_32k,
    "chain.state_clone_per_s": state_clone,
    "chain.block_connect_per_s": block_connect,
    "economy.submit_evict_per_s": submit_evict,
    "economy.take_block_per_s": take_block,
    "sim.schedule_pop_per_s": schedule_pop,
    "sim.schedule_cancel_per_s": schedule_cancel,
    "obs.emit_per_s": emit,
    "obs.emit_disabled_per_s": emit_disabled,
    "obs.registry_inc_per_s": registry_inc,
    "service.requestlog_roundtrip_per_s": requestlog_roundtrip,
}

#: The two that need an open :class:`CampaignStore` on a scratch file.
STORE_MICROS = {
    "store.append_point_per_s": append_point,
    "store.get_artifact_per_s": get_artifact,
}

NAMES = (*MICROS, *STORE_MICROS)


def _median_rate(operation, units: int, seconds: float, repeats: int = 3) -> float:
    operation()  # the first call pays lazy caches, not the timed loop
    rates = []
    for _ in range(repeats):
        calls = 0
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            operation()
            calls += 1
            now = time.perf_counter()
            if now >= deadline:
                break
        rates.append(calls * units / (now - start))
    return statistics.median(rates)


def run_all(seconds: float, workdir: str) -> dict[str, float]:
    """Every microbenchmark's median rate over three loops of ``seconds``."""
    rates = {name: _median_rate(*build(), seconds) for name, build in MICROS.items()}
    with tempfile.TemporaryDirectory(dir=workdir) as scratch:
        with CampaignStore(os.path.join(scratch, "micro.db")) as store:
            for name, build in STORE_MICROS.items():
                rates[name] = _median_rate(*build(store), seconds)
    return rates
