"""The verifier process: first-sight signature checks beside the event loop.

Inside ``keys.verifying()`` each signature is also checked by one forked
process (``repro/crypto/keys.py``).  Its contract is tested here:

* **lifetime** — no verifier exists once a public call returns, one
  whose owner is SIGKILLed exits, and one that dies mid-run leaves one
  named stderr line and a run that finishes as it would have;
* **checking** — a bad signature is refused by the verifier's own
  verdict, and a sign-only burst cannot deadlock either side;
* **invisibility** — every artifact of the smoke presets is
  byte-identical with the verifier forced on and forced off.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.crypto import ecdsa, keys
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyPair
from repro.experiment import apply_overrides, preset_spec, run_experiment

SRC = Path(__file__).resolve().parent.parent / "src"

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and os.path.exists("/proc/self/stat")),
    reason="the verifier is a forked process; its checks read /proc (Linux)",
)


@pytest.fixture
def verifier_on():
    keys.set_verifier(True)
    yield
    keys.set_verifier(None)


def alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as stat:
            state = stat.read().rpartition(b")")[2].split()[0]
    except FileNotFoundError:
        return False
    return state not in (b"Z", b"X")


def digests(label: str, count: int) -> list[bytes]:
    return [sha256(b"%s/%d" % (label.encode(), index)) for index in range(count)]


class TestLifetime:
    def test_no_verifier_outlives_its_scope_and_nesting_keeps_one(self, verifier_on):
        with keys.verifying():
            pid = keys._verifier.pid
            assert alive(pid)
            with keys.verifying():
                assert keys._verifier.pid == pid
            assert keys._verifier.pid == pid
        assert keys._verifier is None
        assert not alive(pid)

    def test_another_forked_process_drops_the_verifier(self, verifier_on):
        with keys.verifying():
            pid = os.fork()
            if pid == 0:  # a pool worker, say: it must not share the pipes
                os._exit(0 if keys._verifier is None else 1)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            assert keys._verifier is not None  # the owner's is untouched

    def test_forced_off_forks_nothing(self):
        keys.set_verifier(False)
        try:
            with keys.verifying():
                assert keys._verifier is None
        finally:
            keys.set_verifier(None)

    def test_a_public_call_leaves_no_verifier(self, verifier_on):
        spec = apply_overrides(preset_spec("engine-smoke"), {"traffic.num_swaps": 4})
        run_experiment(spec)
        assert keys._verifier is None and keys._scope_depth == 0

    def test_a_killed_owner_takes_its_verifier_with_it(self):
        script = (
            "import sys, time\n"
            "from repro.crypto import keys\n"
            "from repro.crypto.hashing import sha256\n"
            "keys.set_verifier(True)\n"
            "pair = keys.KeyPair.from_seed('verifier/orphan')\n"
            "with keys.verifying():\n"
            "    signed = [(d, pair.sign(d)) for d in map(sha256, (b'0', b'1', b'2'))]\n"
            "    assert all(pair.public_key.verify(d, sig) for d, sig in signed)\n"
            "    print(keys._verifier.pid, flush=True)  # idle: only EOF wakes it\n"
            "    time.sleep(60)\n"
        )
        owner = subprocess.Popen(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            pid = int(owner.stdout.readline())
            assert alive(pid)
        finally:
            owner.kill()
            owner.wait()
            owner.stdout.close()
        deadline = time.monotonic() + 5.0
        while alive(pid):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)  # no orphan outlives the failure
                pytest.fail(f"verifier {pid} outlived its owner by 5 s")
            time.sleep(0.02)

    def test_a_verifier_killed_mid_run_leaves_one_line_and_the_same_artifact(
        self, monkeypatch, capsys
    ):
        spec = apply_overrides(preset_spec("engine-smoke"), {"traffic.num_swaps": 12})
        keys.set_verifier(False)
        try:
            expected = run_experiment(spec).to_json()
        finally:
            keys.set_verifier(None)
        signs, killed = [0], []
        sign_digest = ecdsa.sign_digest

        def sign_then_kill(private_scalar, digest):
            signs[0] += 1
            if signs[0] == 20:
                killed.append(keys._verifier.pid)
                os.kill(killed[0], signal.SIGKILL)
            return sign_digest(private_scalar, digest)

        monkeypatch.setattr(ecdsa, "sign_digest", sign_then_kill)
        keys.set_verifier(True)
        try:
            got = run_experiment(spec).to_json()
        finally:
            keys.set_verifier(None)
        assert got == expected
        assert capsys.readouterr().err.splitlines() == [
            f"repro: signature verifier (pid {killed[0]}) exited; verifying inline"
        ]
        assert not alive(killed[0])

    def test_a_dead_verifier_is_seen_by_the_next_verify(self, verifier_on, capsys):
        pair = KeyPair.from_seed("verifier/dead")
        keys.clear_verify_cache()
        with keys.verifying():
            signed = [(digest, pair.sign(digest)) for digest in digests("dead", 4)]
            pid = keys._verifier.pid
            os.kill(pid, signal.SIGKILL)
            while alive(pid):
                time.sleep(0.01)
            assert all(pair.public_key.verify(digest, sig) for digest, sig in signed)
            assert keys._verifier is None
        assert capsys.readouterr().err == (
            f"repro: signature verifier (pid {pid}) exited; verifying inline\n"
        )

    def test_ten_thousand_signs_and_no_verify_return(self, verifier_on):
        pair = KeyPair.from_seed("verifier/burst")
        started = time.monotonic()
        with keys.verifying():
            signatures = [pair.sign(digest) for digest in digests("burst", 10_000)]
            assert len(keys._verifier.pending) <= keys._IN_FLIGHT_MAX
        assert time.monotonic() - started < 120
        assert len(keys._READY) <= keys._READY_MAX
        assert len(set(signatures)) == 10_000


class TestChecking:
    def test_a_bad_s_is_refused_by_the_verifier_itself(self, verifier_on, monkeypatch):
        pair = KeyPair.from_seed("verifier/forger")
        sign_digest = ecdsa.sign_digest
        good, bad = digests("forger", 2)
        keys.clear_verify_cache()
        with keys.verifying():

            def forging(private_scalar, digest):
                signature = sign_digest(private_scalar, digest)
                if digest == bad:  # s <= N/2 (low-s), so s + 1 is in range and wrong
                    return ecdsa.EcdsaSignature(signature.r, signature.s + 1)
                return signature

            monkeypatch.setattr(ecdsa, "sign_digest", forging)
            signed = {digest: pair.sign(digest) for digest in (good, bad)}
            assert len(keys._verifier.pending) + len(keys._READY) == 2

            def inline(*_args):
                raise AssertionError("verified in this process, not by the verifier")

            # The verifier forked before this patch: only it can answer.
            monkeypatch.setattr(ecdsa, "verify_digest", inline)
            assert pair.public_key.verify(good, signed[good]) is True
            assert pair.public_key.verify(bad, signed[bad]) is False
        assert keys.verify_cache_info()["misses"] == 2


def differential_commands(work: Path) -> list[list[str]]:
    """Every command of the differential, writing under ``work``."""
    commands = [
        ["run", "--preset", name, "--json", str(work / f"{name}.json")]
        for name in ("engine-smoke", "congestion", "security")
    ]
    checkpoint, log = work / "steady.ckpt", work / "steady.log"
    commands += [
        ["serve", "--preset", "serve-steady", "--json", str(work / "steady.json"),
         "--request-log", str(log)],
        ["serve", "--preset", "serve-steady", "--max-swaps", "6",
         "--checkpoint", str(checkpoint)],
        ["serve", "--restore", str(checkpoint), "--json", str(work / "restored.json")],
        ["replay", str(log), "--json", str(work / "replayed.json")],
    ]
    commands += [
        ["sweep", "--preset", "crash-matrix", "--workers", workers, "--no-progress",
         "--json", str(work / f"sweep-{workers}.json")]
        for workers in ("1", "2")
    ]
    return commands


def test_every_artifact_is_the_same_with_the_verifier_on_and_off(tmp_path, capsys):
    outputs = {}
    for enabled in (True, False):
        work = tmp_path / ("on" if enabled else "off")
        work.mkdir()
        keys.set_verifier(enabled)
        try:
            for argv in differential_commands(work):
                assert main(argv) in (0, 1), argv
        finally:
            keys.set_verifier(None)
        assert "signature verifier" not in capsys.readouterr().err
        outputs[enabled] = {path.name: path.read_bytes() for path in sorted(work.iterdir())}
    assert len(outputs[True]) == 10
    assert outputs[True] == outputs[False]
