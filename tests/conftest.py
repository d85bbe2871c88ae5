"""Shared fixtures for the test suite."""

import glob
import os
import signal

import pytest

from repro.chain.block import receipt_leaf
from repro.chain.chain import Blockchain
from repro.chain.contracts import DEFAULT_REGISTRY
from repro.chain.mempool import Mempool
from repro.chain.messages import transfer_ids
from repro.chain.miner import MinerNode
from repro.chain.params import fast_chain
from repro.chain.transaction import OutPoint, Transaction, TxOutput, coinbase_encoding
from repro.crypto.keys import KeyPair
from repro.crypto.merkle import MerkleTree
from repro.sim.simulator import Simulator

ALICE = KeyPair.from_seed("alice")
BOB = KeyPair.from_seed("bob")
CAROL = KeyPair.from_seed("carol")
MINER = KeyPair.from_seed("miner")


def make_coinbase(owner, value, nonce=0) -> Transaction:
    """The coinbase minting ``value`` to ``owner`` under ``nonce``: what
    genesis coin ``nonce`` of a ``(owner, value)`` allocation is output 0
    of.  No chain holds one; blocks and mempools refuse it."""
    return Transaction(inputs=(), outputs=(TxOutput(owner, value),), nonce=nonce)


def genesis_by_coin(allocations) -> tuple[dict, bytes, bytes]:
    """The genesis of ``allocations`` one coin at a time, the oracle for
    ``build_genesis``: each coin's own coinbase bytes and ids, both roots
    from a whole :class:`MerkleTree`.  Returns the coins (outpoint ->
    output), the Merkle root and the receipts root."""
    coins, ids = {}, []
    for nonce, (owner, value) in enumerate(allocations):
        output = TxOutput(owner, value)
        txid, message_id = transfer_ids(coinbase_encoding(output, nonce))
        coins[OutPoint(txid, 0)] = output
        ids.append(message_id)
    receipts = [receipt_leaf(message_id, "ok") for message_id in ids]
    return coins, MerkleTree(ids).root(), MerkleTree(receipts).root()


def live_children() -> list[int]:
    """Pids of this process's children that exist now (Linux; [] elsewhere)."""
    pids = []
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path, encoding="ascii") as listing:
            pids += [int(pid) for pid in listing.read().split()]
    return pids


@pytest.fixture(autouse=True)
def no_process_left_running():
    """A test that leaves a child process running fails (and the child
    is killed and reaped, so the next test starts clean)."""
    yield
    left = live_children()
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    if left:
        pytest.fail(f"the test left child process(es) running: {left}")


@pytest.fixture
def alice():
    return ALICE


@pytest.fixture
def bob():
    return BOB


@pytest.fixture
def carol():
    return CAROL


@pytest.fixture
def simulator():
    return Simulator(seed=1234)


@pytest.fixture
def chain():
    """A fast test chain funding alice/bob/carol generously."""
    params = fast_chain("testnet")
    return Blockchain(
        params,
        [(ALICE.address, 100_000), (BOB.address, 100_000), (CAROL.address, 100_000)],
    )


@pytest.fixture
def mempool(chain):
    return Mempool(chain)


@pytest.fixture
def miner(simulator, chain, mempool):
    return MinerNode(simulator, chain, mempool)


@pytest.fixture
def scoped_registry():
    """Scope contract-class registrations to one test.

    Classes registered in the default registry during the test (e.g. ad
    hoc ``@register_contract`` test contracts) are unregistered again on
    teardown, so repeated runs and cross-module imports stay idempotent.
    """
    before = set(DEFAULT_REGISTRY.registered_names())
    yield DEFAULT_REGISTRY
    for name in DEFAULT_REGISTRY.registered_names():
        if name not in before:
            DEFAULT_REGISTRY.unregister(name)
