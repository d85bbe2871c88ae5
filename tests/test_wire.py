"""Tests for the canonical wire encoding."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import BlockHeader, receipt_leaf
from repro.chain.messages import (
    CallMessage,
    DeployMessage,
    TransferMessage,
    sign_message,
)
from repro.chain.transaction import (
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
    make_coinbase,
    sign_transaction,
)
from repro.chain.wire import canonical_encode, wire_hash
from tests.conftest import ALICE, BOB

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden-artifact-digests.json").read_text()
)


# Wire values: recursively built from the supported universe.
wire_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**64), max_value=2**64)
    | st.text(max_size=24)
    | st.binary(max_size=24),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


class TestPrimitives:
    def test_none(self):
        assert canonical_encode(None) == b"N"

    def test_booleans_distinct_from_ints(self):
        assert canonical_encode(True) != canonical_encode(1)
        assert canonical_encode(False) != canonical_encode(0)

    def test_int_sign(self):
        assert canonical_encode(-5) != canonical_encode(5)

    def test_str_vs_bytes_distinct(self):
        assert canonical_encode("ab") != canonical_encode(b"ab")

    def test_large_ints(self):
        big = 2**300
        assert canonical_encode(big) == canonical_encode(big)
        assert canonical_encode(big) != canonical_encode(big + 1)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            canonical_encode(1.5)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_encode(object())


class TestContainers:
    def test_tuple_list_equivalent(self):
        assert canonical_encode((1, 2)) == canonical_encode([1, 2])

    def test_dict_key_order_irrelevant(self):
        assert canonical_encode({"a": 1, "b": 2}) == canonical_encode({"b": 2, "a": 1})

    def test_dict_non_string_keys_rejected(self):
        with pytest.raises(TypeError, match="wire dicts must have string keys"):
            canonical_encode({1: "x"})

    def test_dict_mixed_keys_rejected_before_sorting(self):
        # Used to die inside sorted(): "'<' not supported between 'str' and 'int'".
        with pytest.raises(TypeError, match="wire dicts must have string keys"):
            canonical_encode({1: "x", "a": 2})
        with pytest.raises(TypeError, match="wire dicts must have string keys"):
            canonical_encode([{"a": 2, None: 1}])

    def test_nesting_unambiguous(self):
        assert canonical_encode([[1], [2]]) != canonical_encode([[1, 2]])
        assert canonical_encode([[], [1]]) != canonical_encode([[1], []])

    def test_empty_containers_distinct(self):
        assert canonical_encode([]) != canonical_encode({})


class _Wireable:
    def __init__(self, inner):
        self.inner = inner

    def to_wire(self):
        return {"inner": self.inner}


class TestToWireProtocol:
    def test_object_with_to_wire(self):
        assert canonical_encode(_Wireable(5)) == canonical_encode({"inner": 5})

    def test_nested_wireable(self):
        assert canonical_encode([_Wireable(1)]) == canonical_encode([{"inner": 1}])


class TestWireHash:
    def test_domain_separation(self):
        assert wire_hash(1, domain="a") != wire_hash(1, domain="b")

    def test_stable(self):
        value = {"k": [1, b"x", None]}
        assert wire_hash(value) == wire_hash(value)

    @given(wire_values)
    @settings(max_examples=80)
    def test_property_deterministic(self, value):
        assert canonical_encode(value) == canonical_encode(value)

    @given(wire_values, wire_values)
    @settings(max_examples=80)
    def test_property_injective_encoding(self, a, b):
        # Tuples and lists are deliberately identified; normalize first.
        def norm(v):
            if isinstance(v, (list, tuple)):
                return tuple(norm(x) for x in v)
            if isinstance(v, dict):
                return tuple(sorted((k, norm(x)) for k, x in v.items()))
            return v

        if norm(a) != norm(b):
            assert canonical_encode(a) != canonical_encode(b)


# -- differential: the table-dispatch encoder against the ladder it replaced ----


def _reference_encode_into(value, out):
    """The encoder as it stood before the single-pass rewrite, verbatim
    (module-private tag names spelled out).  It knows nothing of
    ``wire_bytes()``: a spliced object must encode as its ``to_wire()``."""
    if value is None:
        out += b"N"
        return
    if value is True:
        out += b"T"
        return
    if value is False:
        out += b"F"
        return
    if isinstance(value, int):
        body = str(value).encode("ascii")
        out += b"I" + len(body).to_bytes(4, "big") + body
        return
    if isinstance(value, str):
        body = value.encode("utf-8")
        out += b"S" + len(body).to_bytes(4, "big") + body
        return
    if isinstance(value, (bytes, bytearray, memoryview)):
        body = bytes(value)
        out += b"B" + len(body).to_bytes(4, "big") + body
        return
    if isinstance(value, (tuple, list)):
        out += b"L" + len(value).to_bytes(4, "big")
        for item in value:
            _reference_encode_into(item, out)
        return
    if isinstance(value, dict):
        keys = sorted(value)
        if any(not isinstance(k, str) for k in keys):
            raise TypeError("wire dicts must have string keys")
        out += b"D" + len(keys).to_bytes(4, "big")
        for key in keys:
            _reference_encode_into(key, out)
            _reference_encode_into(value[key], out)
        return
    to_wire = getattr(value, "to_wire", None)
    if callable(to_wire):
        _reference_encode_into(to_wire(), out)
        return
    if isinstance(value, float):
        raise TypeError("floats are not allowed in consensus data")
    raise TypeError(f"cannot wire-encode {type(value).__name__}")


def reference_encode(value) -> bytes:
    out = bytearray()
    _reference_encode_into(value, out)
    return bytes(out)


class _IntSub(int):
    pass


class _StrSub(str):
    pass


class _BytesSub(bytes):
    pass


class _ListSub(list):
    pass


class _DictSub(dict):
    pass


class _Spliced(_Wireable):
    """Carries its own canonical bytes, as messages and headers do."""

    def wire_bytes(self):
        return reference_encode(self.to_wire())


# ``bool`` cannot be subclassed, so the exact type is its only case.
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**64), max_value=2**64)
    | st.text(max_size=24)
    | st.binary(max_size=24)
)
_odd_scalars = (
    st.integers(min_value=-(2**64), max_value=2**64).map(_IntSub)
    | st.text(max_size=24).map(_StrSub)
    | st.binary(max_size=24).map(_BytesSub)
    | st.binary(max_size=24).map(bytearray)
    | st.binary(max_size=24).map(memoryview)
)
all_wire_values = st.recursive(
    _scalars | _odd_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.lists(children, max_size=4).map(_ListSub)
    | st.dictionaries(st.text(max_size=8), children, max_size=4)
    | st.dictionaries(st.text(max_size=8).map(_StrSub), children, max_size=4).map(_DictSub)
    | children.map(_Wireable)
    | children.map(_Spliced),
    max_leaves=20,
)


class TestAgainstReferenceEncoder:
    @given(all_wire_values)
    @settings(max_examples=400, derandomize=True)
    def test_property_same_bytes(self, value):
        assert canonical_encode(value) == reference_encode(value)

    @pytest.mark.parametrize(
        "bad",
        [1.5, object(), {1: "x"}, [{"k": 2.0}], _Wireable(object()), _Spliced({"k": 1.5})],
        ids=repr,
    )
    def test_same_rejections(self, bad):
        with pytest.raises(TypeError) as want:
            reference_encode(bad)
        with pytest.raises(TypeError, match=str(want.value)):
            canonical_encode(bad)

    def test_spliced_bytes_are_used_verbatim(self):
        class Marked(_Wireable):
            def wire_bytes(self):
                return b"<spliced>"

        assert canonical_encode([Marked(1), 2]) == b"L\x00\x00\x00\x02<spliced>" + reference_encode(2)


# -- known answers, captured at the commit before the single-pass rewrite -------


def _vector_objects() -> dict:
    coinbase = make_coinbase(ALICE.address, 100_000, nonce=7)
    coin = OutPoint(coinbase.txid(), 0)
    spend = sign_transaction(
        Transaction(
            inputs=(TxInput(coin),),
            outputs=(TxOutput(BOB.address, 60_000), TxOutput(ALICE.address, 39_990)),
            nonce=3,
        ),
        ALICE,
    )
    header = BlockHeader(
        chain_id="vector-chain",
        height=5,
        prev_hash=bytes(range(32)),
        merkle_root=bytes(range(32, 64)),
        receipts_root=bytes(range(64, 96)),
        time_ticks=12_345,
        difficulty_bits=4,
        nonce=99,
        miner=BOB.address,
    )
    funding = dict(
        inputs=(TxInput(coin, ALICE.public_key),),
        change=(TxOutput(ALICE.address, 90_000),),
    )
    deploy = sign_message(
        DeployMessage(
            sender=ALICE.public_key,
            contract_class="HashlockContract",
            args=(BOB.address.raw, b"\x11" * 32, 40),
            value=9_000,
            fee=10,
            nonce=2,
            **funding,
        ),
        ALICE,
    )
    call = sign_message(
        CallMessage(
            sender=ALICE.public_key,
            contract_id=deploy.contract_id(),
            function="redeem",
            # Evidence-shaped: headers ride inside the call's arguments.
            args=(b"secret", [header, header.with_nonce(100)], {"proof": (1, None, True)}),
            value=0,
            fee=4,
            nonce=1,
            **funding,
        ),
        ALICE,
    )
    return {
        "coinbase": coinbase,
        "spend": spend,
        "header": header,
        "deploy": deploy,
        "call": call,
    }


def _vectors(objects: dict) -> dict:
    coinbase, spend, header = objects["coinbase"], objects["spend"], objects["header"]
    deploy, call = objects["deploy"], objects["call"]
    got = {
        "coinbase.txid": coinbase.txid(),
        "coinbase.message_id": TransferMessage(coinbase).message_id(),
        "spend.txid": spend.txid(),
        "spend.signing_digest": spend.signing_digest(),
        "spend.message_id": TransferMessage(spend).message_id(),
        "deploy.message_id": deploy.message_id(),
        "deploy.signing_digest": deploy.signing_digest(),
        "deploy.contract_id": deploy.contract_id(),
        "call.message_id": call.message_id(),
        "call.signing_digest": call.signing_digest(),
        "header.block_id": header.block_id(),
        "header.with_nonce.block_id": header.with_nonce(100).block_id(),
        "receipt_leaf.ok": receipt_leaf(b"\x22" * 32, "ok"),
        "receipt_leaf.reverted": receipt_leaf(bytes(range(32)), "reverted"),
    }
    return {name: value.hex() for name, value in got.items()}


class TestKnownAnswers:
    def test_digests_pinned(self):
        assert _vectors(_vector_objects()) == GOLDEN["wire-vectors"]

    def test_digests_do_not_depend_on_derivation_order(self):
        """The txid a message id left behind, the block id of a header
        that was embedded first: the same digests as when asked directly."""
        objects = _vector_objects()
        TransferMessage(objects["spend"]).message_id()
        assert objects["spend"]._txid is not None
        canonical_encode([objects["header"]])
        assert _vectors(objects) == GOLDEN["wire-vectors"]

    def test_every_shortcut_equals_the_plain_encoding(self):
        objects = _vector_objects()
        for tx in (objects["coinbase"], objects["spend"]):
            message = TransferMessage(tx)
            assert message.message_id() == wire_hash(message.to_wire(), "repro/message")
            assert tx.txid() == wire_hash(tx.to_wire(), "repro/txid")
        for name in ("deploy", "call", "header"):
            obj = objects[name]
            assert obj.wire_bytes() == reference_encode(obj.to_wire())
        for mid, status in ((b"", ""), (b"\x00" * 32, "ok"), (b"m" * 300, "révérted")):
            assert receipt_leaf(mid, status) == reference_encode({"msg": mid, "status": status})

    @pytest.mark.parametrize("preset", ["engine-smoke", "congestion", "security"])
    def test_preset_genesis_hashes_pinned(self, preset):
        from repro.experiment import preset_spec
        from repro.experiment.runner import build_environment, traffic_generator

        spec = preset_spec(preset)
        env = build_environment(spec, traffic_generator(spec.traffic.generator)(spec))
        got = {
            cid: chain.block_at_height(0).block_id().hex() for cid, chain in env.chains.items()
        }
        assert got == GOLDEN["genesis"][preset]
