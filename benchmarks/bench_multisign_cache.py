"""Multisignature verification memo: the ROADMAP's signature-churn fix.

Every witness-contract registration re-verifies the same ``ms(D)`` at
least three times (the miner's template trial-apply, the block connect,
and every later evidence validation), and each verification used to
cost one ECDSA check per participant.  The content-keyed memo in
:mod:`repro.crypto.signatures` collapses the repeats into one dict
lookup; this benchmark pins the speedup and shows where it lands in a
real AC3WN run (same-graph validations stop re-verifying component
signatures).
"""

import time

from repro.crypto.keys import KeyPair
from repro.crypto.signatures import (
    clear_verify_cache,
    multisign,
    verify_cache_info,
)
from repro.experiment import preset_spec, run_experiment

SIGNERS = 6
REPEATS = 50

#: The cached path must beat uncached verification by at least this
#: factor.  Since PR 6 a multisig-memo miss is answered per component by
#: the ECDSA memo in ``crypto/keys.py``, so the curve never runs here;
#: the measured ratio is 17-100x.
MIN_SPEEDUP = 5.0


def _fresh_ms():
    keypairs = [KeyPair.from_seed(f"bench-{i}") for i in range(SIGNERS)]
    ms = multisign(keypairs, "bench", b"bench-graph")
    return ms, [kp.public_key for kp in keypairs]


def test_cached_verification_speedup(table_printer):
    ms, keys = _fresh_ms()

    # Uncached: clear the memo before every verification.
    start = time.perf_counter()
    for _ in range(REPEATS):
        clear_verify_cache()
        assert ms.verify(keys)
    uncached = (time.perf_counter() - start) / REPEATS

    # Cached: one miss, then pure hits.
    clear_verify_cache()
    assert ms.verify(keys)
    start = time.perf_counter()
    for _ in range(REPEATS):
        assert ms.verify(keys)
    cached = (time.perf_counter() - start) / REPEATS

    info = verify_cache_info()
    assert info["misses"] == 1
    assert info["hits"] == REPEATS
    speedup = uncached / cached if cached > 0 else float("inf")
    table_printer(
        f"Multisignature.verify memo ({SIGNERS} signers)",
        ["path", "per call", "speedup"],
        [
            ["uncached", f"{uncached * 1e6:8.1f} us", "1.0x"],
            ["cached", f"{cached * 1e6:8.1f} us", f"{speedup:.0f}x"],
        ],
    )
    assert speedup >= MIN_SPEEDUP, (
        f"memoized verify only {speedup:.1f}x faster (pin: {MIN_SPEEDUP}x)"
    )


def test_engine_run_reuses_cached_verdicts():
    """A real AC3WN workload re-validates each graph's ms(D) several
    times; with the memo, repeats are hits, not fresh ECDSA work."""
    clear_verify_cache()
    result = run_experiment(preset_spec("swap"))
    assert result.metrics.atomicity_violations == 0
    info = verify_cache_info()
    # One miss per distinct (graph, keyset); everything else is reuse.
    assert info["hits"] >= info["misses"]
    assert info["hits"] >= 1
