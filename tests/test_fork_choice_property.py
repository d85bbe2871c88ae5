"""Property tests for fork choice: the heaviest chain always wins."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chain.chain import Blockchain
from repro.chain.params import fast_chain
from tests.conftest import ALICE, MINER


def build_random_tree(seed_blocks: list[int]) -> Blockchain:
    """Grow a block tree; each entry picks a parent among known blocks.

    ``seed_blocks[i] = p`` attaches block i to the (p mod known)-th known
    block, so the same list always reproduces the same tree shape.
    """
    chain = Blockchain(fast_chain(f"fc-{hash(tuple(seed_blocks)) % 99991}"),
                       [(ALICE.address, 1000)])
    known = [chain.block_at_height(0).block_id()]
    for i, pick in enumerate(seed_blocks):
        parent = known[pick % len(known)]
        block = chain.make_block([], MINER.address, float(i + 1), parent_hash=parent)
        chain.add_block(block)
        known.append(block.block_id())
    return chain


tree_shapes = st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=12)


class TestForkChoiceProperties:
    @given(tree_shapes)
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_head_has_maximal_work(self, shape):
        chain = build_random_tree(shape)
        head_work = chain.cumulative_work(chain.head_hash)
        for block_hash in list(chain._blocks):
            assert chain.cumulative_work(block_hash) <= head_work

    @given(tree_shapes)
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_main_chain_is_connected_prefix(self, shape):
        chain = build_random_tree(shape)
        blocks = list(chain.main_chain())
        assert blocks[0].header.height == 0
        for parent, child in zip(blocks, blocks[1:]):
            assert child.header.prev_hash == parent.block_id()
            assert child.header.height == parent.header.height + 1

    @given(tree_shapes)
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_depth_consistency(self, shape):
        chain = build_random_tree(shape)
        for block_hash in list(chain._blocks):
            depth = chain.depth_of(block_hash)
            if depth > 0:
                assert chain.is_in_main_chain(block_hash)
                block = chain.block(block_hash)
                assert depth == chain.height - block.header.height + 1
            else:
                assert not chain.is_in_main_chain(block_hash)

    @given(tree_shapes)
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_genesis_always_on_main_chain(self, shape):
        chain = build_random_tree(shape)
        assert chain.is_in_main_chain(chain.block_at_height(0).block_id())
        assert chain.depth_of(chain.block_at_height(0).block_id()) == chain.height + 1

    @given(tree_shapes)
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_state_supply_invariant_across_branches(self, shape):
        """Every branch's state conserves the genesis supply (no fees in
        empty blocks)."""
        chain = build_random_tree(shape)
        for block_hash in list(chain._blocks):
            assert chain.state_at(block_hash).utxos.total_value() == 1000
