"""Coverage for small utilities: RNG streams, traces, reprs, params."""

import pytest

from repro.chain.params import FeeSchedule, fast_chain
from repro.sim.rng import RngRegistry
from repro.sim.simulator import Simulator
from repro.sim.node import Node


class TestRngStreamMethods:
    def setup_method(self):
        self.stream = RngRegistry(seed=42).stream("misc")

    def test_uniform_bounds(self):
        for _ in range(50):
            value = self.stream.uniform(2.0, 3.0)
            assert 2.0 <= value <= 3.0

    def test_randint_bounds(self):
        values = {self.stream.randint(1, 3) for _ in range(100)}
        assert values <= {1, 2, 3}
        assert len(values) == 3

    def test_choice_and_sample(self):
        seq = ["a", "b", "c", "d"]
        assert self.stream.choice(seq) in seq
        sample = self.stream.sample(seq, 2)
        assert len(sample) == 2 and len(set(sample)) == 2

    def test_shuffle_in_place(self):
        seq = list(range(20))
        copy = list(seq)
        self.stream.shuffle(seq)
        assert sorted(seq) == copy

    def test_bytes_length(self):
        assert len(self.stream.bytes(16)) == 16

    def test_gauss_runs(self):
        value = self.stream.gauss(0.0, 1.0)
        assert isinstance(value, float)


class TestSimulatorTrace:
    def test_trace_records_labelled_events(self):
        sim = Simulator(seed=1, trace=True)
        sim.schedule(1.0, lambda: None, label="first")
        sim.schedule(2.0, lambda: None)  # unlabeled: not traced
        sim.schedule(3.0, lambda: None, label="second")
        sim.run()
        labels = [record.label for record in sim.trace]
        assert labels == ["first", "second"]
        assert sim.trace[0].time == 1.0

    def test_trace_disabled_by_default(self):
        sim = Simulator(seed=1)
        sim.schedule(1.0, lambda: None, label="x")
        sim.run()
        assert sim.trace == []


class TestReprs:
    def test_node_repr_shows_status(self):
        sim = Simulator()
        node = Node(sim, "walle")
        assert "walle" in repr(node) and "up" in repr(node)
        node.crash()
        assert "crashed" in repr(node)

    def test_keypair_repr(self):
        from repro.crypto.keys import KeyPair

        assert "KeyPair" in repr(KeyPair.from_seed("r"))

    def test_outpoint_repr(self):
        from repro.chain.transaction import OutPoint

        assert "OutPoint" in repr(OutPoint(b"\xaa" * 32, 1))

    def test_blockheader_repr(self, chain):
        assert "BlockHeader" in repr(chain.head.header)

    def test_block_repr(self, chain):
        assert "msgs=" in repr(chain.head)


class TestParams:
    def test_fee_schedule_defaults(self):
        fees = FeeSchedule()
        assert fees.deploy == fees.call == fees.transfer == 0

    def test_tps_property(self):
        params = fast_chain("t", block_interval=2.0, max_messages_per_block=10)
        assert params.tps == 5.0

    def test_blocks_per_hour(self):
        params = fast_chain("t2", block_interval=60.0)
        assert params.blocks_per_hour == 60.0

    def test_frozen(self):
        params = fast_chain("t3")
        with pytest.raises(Exception):
            params.chain_id = "other"


class TestHashingConstants:
    def test_hex_digest_length(self):
        from repro.crypto import hashing

        assert hashing.HEX_DIGEST_LENGTH == 64
        assert len(hashing.hash_hex(b"x")) == hashing.HEX_DIGEST_LENGTH
