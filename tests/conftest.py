"""Shared fixtures for the test suite."""

import pytest

from repro.chain.chain import Blockchain
from repro.chain.contracts import DEFAULT_REGISTRY
from repro.chain.mempool import Mempool
from repro.chain.miner import MinerNode
from repro.chain.params import fast_chain
from repro.chain.transaction import Transaction, TxOutput
from repro.crypto.keys import KeyPair
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
