"""Unit + property tests for Merkle trees and inclusion proofs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.merkle import MerkleProof, MerkleTree, merkle_root
from repro.errors import InvalidProofError


class TestTreeBasics:
    def test_single_leaf_root_is_stable(self):
        assert MerkleTree([b"a"]).root() == MerkleTree([b"a"]).root()

    def test_root_depends_on_leaf_content(self):
        assert MerkleTree([b"a"]).root() != MerkleTree([b"b"]).root()

    def test_root_depends_on_leaf_order(self):
        assert MerkleTree([b"a", b"b"]).root() != MerkleTree([b"b", b"a"]).root()

    def test_empty_tree_has_sentinel_root(self):
        assert len(MerkleTree([]).root()) == 32

    def test_size(self):
        """The leaf count travels with every proof: verification needs it to
        place the promoted odd nodes."""
        tree = MerkleTree([b"x", b"y", b"z"])
        assert {tree.proof(i).tree_size for i in range(3)} == {3}
        # The odd last leaf is promoted past level 0: one sibling, not two.
        assert len(tree.proof(2).siblings) == 1

    def test_leaf_vs_node_domain_separation(self):
        # A one-leaf tree whose leaf equals another tree's root must not
        # produce that root (second-preimage resistance by tagging).
        inner = MerkleTree([b"a", b"b"]).root()
        assert MerkleTree([inner]).root() != inner

    def test_merkle_root_helper(self):
        assert merkle_root([b"a", b"b"]) == MerkleTree([b"a", b"b"]).root()


class TestProofs:
    def test_proof_verifies(self):
        tree = MerkleTree([b"a", b"b", b"c", b"d"])
        for i in range(4):
            proof = tree.proof(i)
            assert proof.verify(tree.root())

    def test_proof_fails_against_other_root(self):
        tree = MerkleTree([b"a", b"b"])
        other = MerkleTree([b"a", b"c"])
        assert not tree.proof(0).verify(other.root())

    def test_odd_leaf_counts(self):
        for n in (1, 3, 5, 7, 9, 13):
            leaves = [f"leaf-{i}".encode() for i in range(n)]
            tree = MerkleTree(leaves)
            for i in range(n):
                assert tree.proof(i).verify(tree.root()), (n, i)

    def test_proof_out_of_range(self):
        tree = MerkleTree([b"a"])
        with pytest.raises(InvalidProofError):
            tree.proof(1)
        with pytest.raises(InvalidProofError):
            tree.proof(-1)

    def test_proof_on_empty_tree(self):
        with pytest.raises(InvalidProofError):
            MerkleTree([]).proof(0)

    def test_tampered_leaf_fails(self):
        tree = MerkleTree([b"a", b"b", b"c"])
        proof = tree.proof(1)
        bad = MerkleProof(b"evil", proof.index, proof.siblings, proof.tree_size)
        assert not bad.verify(tree.root())

    def test_tampered_index_fails(self):
        tree = MerkleTree([b"a", b"b", b"c", b"d"])
        proof = tree.proof(0)
        bad = MerkleProof(proof.leaf, 1, proof.siblings, proof.tree_size)
        assert not bad.verify(tree.root())

    def test_truncated_siblings_fail(self):
        tree = MerkleTree([b"a", b"b", b"c", b"d"])
        proof = tree.proof(0)
        bad = MerkleProof(proof.leaf, proof.index, proof.siblings[:-1], proof.tree_size)
        assert not bad.verify(tree.root())

    def test_extra_siblings_fail(self):
        tree = MerkleTree([b"a", b"b"])
        proof = tree.proof(0)
        bad = MerkleProof(
            proof.leaf, proof.index, proof.siblings + (b"\x00" * 32,), proof.tree_size
        )
        assert not bad.verify(tree.root())

    def test_wrong_tree_size_fails(self):
        tree = MerkleTree([b"a", b"b", b"c", b"d"])
        proof = tree.proof(2)
        bad = MerkleProof(proof.leaf, proof.index, proof.siblings, 8)
        assert not bad.verify(tree.root())


@st.composite
def leaves_and_index(draw):
    leaves = draw(st.lists(st.binary(max_size=48), min_size=1, max_size=40))
    index = draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    return leaves, index


class TestLeafTypes:
    def test_non_bytes_leaves_are_refused_by_index(self):
        # bytes(3) is b"\0\0\0" and bytes(0) is b"": coercion made these collide.
        for leaves, index in (([3], 0), ([b"a", 0], 1), ([b"a", b"b", "c"], 2), ([None], 0)):
            with pytest.raises(TypeError, match=f"merkle leaf {index} is a "):
                MerkleTree(leaves)
            with pytest.raises(TypeError, match=f"merkle leaf {index} is a "):
                merkle_root(leaves)

    def test_bytes_like_leaves_commit_as_their_bytes(self):
        leaves = [b"\0\0\0", b"", b"abc"]
        root = merkle_root(leaves)
        for convert in (bytearray, memoryview):
            converted = [convert(leaf) for leaf in leaves]
            assert MerkleTree(converted).root() == root
            assert merkle_root(converted) == root
            assert all(type(leaf) is bytes for leaf in MerkleTree(converted).leaves)


def reference_levels(leaves: list[bytes]) -> list[list[bytes]]:
    """The tree one ``_node_hash`` call at a time, odd last node promoted."""
    from repro.crypto.hashing import sha256
    from repro.crypto.merkle import _node_hash

    level = [sha256(b"\x00" + leaf) for leaf in leaves]
    levels = [level]
    while len(level) > 1:
        pairs = [_node_hash(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        level = pairs + level[len(pairs) * 2 :]
        levels.append(level)
    return levels


class TestFlatKernel:
    @given(st.lists(st.binary(max_size=48), min_size=1, max_size=70))
    @settings(max_examples=120, derandomize=True)
    def test_levels_and_root_equal_the_pairwise_reference(self, leaves):
        levels = reference_levels(leaves)
        tree = MerkleTree(leaves)
        assert tree._build() == levels
        assert tree.root() == levels[-1][0]
        assert merkle_root(leaves) == levels[-1][0]

    def test_odd_sizes_promote_the_last_node(self):
        for size in (3, 5, 6, 7, 9, 17, 33):
            leaves = [bytes([i]) for i in range(size)]
            assert merkle_root(leaves) == reference_levels(leaves)[-1][0], size

    def test_the_root_only_pass_equals_the_tree_root(self):
        for size in range(71):
            leaves = [bytes([i % 7]) * (i % 5) + bytes([i]) for i in range(size)]
            assert merkle_root(leaves) == MerkleTree(leaves).root(), size

    def test_empty_root_is_the_sentinel(self):
        from repro.crypto.hashing import sha256

        assert merkle_root([]) == MerkleTree([]).root() == sha256(b"empty-merkle-tree")


class TestProofProperties:
    @given(st.binary(max_size=80), st.binary(max_size=80))
    @settings(max_examples=100)
    def test_node_hash_is_the_tagged_length_prefixed_pair(self, left, right):
        from repro.crypto.hashing import sha256
        from repro.crypto.merkle import _node_hash

        pair = len(left).to_bytes(8, "big") + left + len(right).to_bytes(8, "big") + right
        assert _node_hash(left, right) == sha256(b"\x01" + sha256(pair))
        with pytest.raises(TypeError):
            _node_hash(left, "not bytes")

    @given(leaves_and_index())
    @settings(max_examples=60)
    def test_every_leaf_provable(self, case):
        leaves, index = case
        tree = MerkleTree(leaves)
        assert tree.proof(index).verify(tree.root())

    @given(leaves_and_index(), st.binary(min_size=1, max_size=16))
    @settings(max_examples=40)
    def test_forged_leaf_never_verifies(self, case, forged):
        leaves, index = case
        tree = MerkleTree(leaves)
        proof = tree.proof(index)
        if forged == proof.leaf:
            return
        bad = MerkleProof(forged, proof.index, proof.siblings, proof.tree_size)
        assert not bad.verify(tree.root())

    @given(leaves_and_index())
    @settings(max_examples=40)
    def test_proof_root_matches_tree_root(self, case):
        leaves, index = case
        tree = MerkleTree(leaves)
        assert tree.proof(index).root() == tree.root()
