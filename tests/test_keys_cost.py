"""How often a key is derived and a key's table is built, counted, not timed.

Every ``KeyPair.from_seed`` is a ``k·G``, so a world that names an
identity twice (the graph builder, then the participant actor, then a
restore) must derive it once.  Every verify under a key reads that key's
table, so a run builds it once and every later verify under the key
runs the short chain.
"""

import contextlib
import sys

import pytest

from repro.crypto import ecdsa, keys
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyPair
from repro.experiment import (
    apply_overrides,
    build_environment,
    preset_spec,
    run_experiment,
    traffic_generator,
)


@contextlib.contextmanager
def recorded_calls(*watched):
    """For each ``(function, argument)`` pair, the value of ``argument`` at
    each entry into ``function``, seen the way the ledger's profile counts
    calls: by code object.  Yields one list per pair."""
    seen = {function.__code__: (argument, []) for function, argument in watched}

    def hook(frame, event, _arg):
        entry = seen.get(frame.f_code) if event == "call" else None
        if entry is not None:
            entry[1].append(frame.f_locals[entry[0]])

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield [values for _, values in seen.values()]
    finally:
        sys.setprofile(previous)


def test_engine_smoke_world_derives_each_seed_once():
    spec = preset_spec("engine-smoke")
    keys._SEED_CACHE.clear()
    with recorded_calls((ecdsa.derive_public_point, "d")) as (scalars,):
        traffic = traffic_generator(spec.traffic.generator)(spec)
        env = build_environment(spec, traffic)
    names = {name for item in traffic for name, _ in item.graph.participants}
    assert set(env.participants) == names
    # Building the graphs derives ``participant/<name>`` and the
    # participant actor is handed that pair; miners are the only other
    # identities of this world (no witness key is derived before a
    # protocol driver runs).
    assert len(scalars) == len(set(scalars)) == len(names) + len(env.miners)
    with recorded_calls((ecdsa.derive_public_point, "d")) as (scalars,):
        for name, actor in env.participants.items():
            assert KeyPair.from_seed(f"participant/{name}") is actor.keypair
    assert scalars == []


@pytest.mark.parametrize("swaps", [6, 24])
def test_a_world_derives_each_key_once_whatever_the_memo_size(monkeypatch, swaps):
    # A memo of two keys evicts every participant's key long before the
    # world is assembled; the graphs carry the pairs, so nothing derives
    # one again.
    spec = apply_overrides(preset_spec("engine-smoke"), {"traffic.num_swaps": swaps})
    keys._SEED_CACHE.clear()
    monkeypatch.setattr(keys, "_SEED_CACHE_MAX", 2)
    with recorded_calls((ecdsa.derive_public_point, "d")) as (scalars,):
        traffic = traffic_generator(spec.traffic.generator)(spec)
        env = build_environment(spec, traffic)
    names = {name for item in traffic for name, _ in item.graph.participants}
    assert len(names) == 2 * swaps
    # No witness key is among them: AC3TW's Trent is derived by its
    # protocol driver, not by the world.
    assert len(scalars) == len(names) + len(env.miners)
    for item in traffic:
        for name, key in item.graph.participants:
            assert env.participant(name).keypair is item.graph.keypairs[name]
            assert env.participant(name).public_key is key
    keys._SEED_CACHE.clear()


def test_str_and_bytes_seeds_share_one_entry():
    keys._SEED_CACHE.clear()
    with recorded_calls((ecdsa.derive_public_point, "d")) as (scalars,):
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


def signed(pair, count):
    """``count`` (digest, signature) pairs under ``pair``."""
    digests = [sha256(b"keys-cost/verify-%d" % index) for index in range(count)]
    return [(digest, pair.sign(digest)) for digest in digests]


def test_a_warm_verify_runs_at_most_33_doublings():
    pair = KeyPair.from_seed("keys-cost/warm")
    point = pair.public_key.point
    messages = signed(pair, 8)
    keys.clear_verify_cache()
    assert ecdsa.verify_digest(point, *messages[0])
    for digest, signature in messages[1:]:
        with recorded_calls(
            (ecdsa._jacobian_double, "times"), (ecdsa._base_table, "point")
        ) as (doublings, builds):
            assert ecdsa.verify_digest(point, digest, signature)
        assert sum(doublings) <= 33
        assert builds == []


def test_a_cold_verify_adds_exactly_one_table_build():
    pair = KeyPair.from_seed("keys-cost/cold")
    point = pair.public_key.point
    [(digest, signature)] = signed(pair, 1)
    ecdsa._generator_table()
    keys.clear_verify_cache()
    counts = []
    for _ in ("cold", "warm"):
        with recorded_calls(
            (ecdsa._jacobian_double, "times"), (ecdsa._base_table, "point")
        ) as (doublings, builds):
            assert ecdsa.verify_digest(point, digest, signature)
        counts.append((sum(doublings), builds))
    (cold, built), (warm, rebuilt) = counts
    assert built == [point] and rebuilt == []
    # The same chain both times; the build adds its four bases' doublings.
    assert cold == warm + 100


@pytest.fixture
def inline_verifies():
    """No verifier process: every verify of a run happens in this
    process, where the profile hook counts it and its table stays."""
    keys.set_verifier(False)
    yield
    keys.set_verifier(None)


def test_engine_smoke_world_builds_one_table_per_verifying_key(inline_verifies):
    ecdsa._generator_table()
    keys.clear_verify_cache()  # a run keeps the tables an earlier one built
    with recorded_calls(
        (ecdsa.verify_digest, "public_point"), (ecdsa._base_table, "point")
    ) as (verified, builds):
        run_experiment(preset_spec("engine-smoke"))
    assert len(verified) > 2 * len(set(verified))  # signers repeat ...
    assert sorted(builds, key=lambda p: (p.x, p.y)) == sorted(
        set(verified), key=lambda p: (p.x, p.y)
    )  # ... and each one's table is built exactly once


def test_a_run_resets_the_memo_but_keeps_the_key_tables(inline_verifies):
    """A table is a pure function of its key, so the per-run reset keeps
    it: A, B, A in one process gives byte-identical A artifacts, and the
    second A builds no table the first one built."""
    spec_a = apply_overrides(preset_spec("engine-smoke"), {"traffic.num_swaps": 6})
    spec_b = apply_overrides(preset_spec("crash"), {"traffic.num_swaps": 6})
    keys.clear_verify_cache()
    first = run_experiment(spec_a).to_json()
    built = set(ecdsa._KEY_TABLES)
    assert built
    run_experiment(spec_b)
    assert built <= set(ecdsa._KEY_TABLES)
    with recorded_calls((ecdsa._base_table, "point")) as (builds,):
        again = run_experiment(spec_a).to_json()
    assert again == first
    assert not {(p.x, p.y) for p in builds} & built
