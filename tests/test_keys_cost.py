"""How often a key is derived, counted, not timed.

Every ``KeyPair.from_seed`` is a ``k·G``, so a world that names an
identity twice (the graph builder, then the participant actor, then a
restore) must derive it once.
"""

import contextlib
import sys

from repro.crypto import ecdsa, keys
from repro.crypto.keys import KeyPair
from repro.experiment import build_environment, preset_spec, traffic_generator


@contextlib.contextmanager
def recorded_calls(function, argument):
    """The value of ``argument`` at each entry into ``function``, seen the
    way the ledger's profile counts calls: by code object."""
    seen = []
    code = function.__code__

    def hook(frame, event, _arg):
        if event == "call" and frame.f_code is code:
            seen.append(frame.f_locals[argument])

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield seen
    finally:
        sys.setprofile(previous)


def test_engine_smoke_world_derives_each_seed_once():
    spec = preset_spec("engine-smoke")
    keys._SEED_CACHE.clear()
    with recorded_calls(ecdsa.derive_public_point, "d") as scalars:
        traffic = traffic_generator(spec.traffic.generator)(spec)
        env = build_environment(spec, traffic)
    names = {name for item in traffic for name, _ in item.graph.participants}
    assert set(env.participants) == names
    # The graph builder and the participant actor both ask for
    # ``participant/<name>``; miners and the default coinbase address are
    # the only other identities of this world.
    assert len(scalars) == len(set(scalars))
    assert len(names) < len(scalars) <= len(names) + len(env.miners) + 1
    with recorded_calls(ecdsa.derive_public_point, "d") as scalars:
        for name, actor in env.participants.items():
            assert KeyPair.from_seed(f"participant/{name}") is actor.keypair
    assert scalars == []


def test_str_and_bytes_seeds_share_one_entry():
    keys._SEED_CACHE.clear()
    with recorded_calls(ecdsa.derive_public_point, "d") as scalars:
        pair = KeyPair.from_seed("keys-cost/ünïcode")
        assert KeyPair.from_seed("keys-cost/ünïcode".encode("utf-8")) is pair
        assert KeyPair.from_seed("keys-cost/other") is not pair
    assert len(scalars) == 2
    assert pair == KeyPair.from_scalar(pair.private_scalar)


def test_seed_memo_is_bounded_and_evicts_the_oldest(monkeypatch):
    keys._SEED_CACHE.clear()
    monkeypatch.setattr(keys, "_SEED_CACHE_MAX", 2)
    first = KeyPair.from_seed("keys-cost/0")
    KeyPair.from_seed("keys-cost/1")
    assert KeyPair.from_seed("keys-cost/0") is first  # refreshed: 1 is now oldest
    KeyPair.from_seed("keys-cost/2")
    assert list(keys._SEED_CACHE) == [b"keys-cost/0", b"keys-cost/2"]
    keys._SEED_CACHE.clear()
