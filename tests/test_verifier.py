"""The verifier process: first-sight signature checks beside the event loop.

Inside ``keys.verifying()`` each signature is also checked by one forked
process (``repro/crypto/keys.py``).  Its contract is tested here:

* **lifetime** — a world (a run, a session, a restore, a replay) forks
  one verifier, none exists once every open world has closed, one
  whose owner is SIGKILLed exits, and one that dies mid-run leaves one
  named stderr line and a run that finishes as it would have;
* **checking** — a bad signature is refused by the verifier's own
  verdict, and a sign-only burst cannot deadlock either side;
* **taking** — a record the verifier has not started is checked by its
  caller, which never waits behind a stopped verifier, and the verifier
  skips it; a record it has started is waited for, and no verdict is
  wrong when claim slots are reused;
* **invisibility** — every artifact of the smoke presets is
  byte-identical with the verifier forced on and forced off.
"""

import contextlib
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
from repro.experiment import apply_overrides, preset_spec, run_experiment, traffic_generator
from repro.experiment.runner import open_world
from repro.service import SwapService, service_preset_spec

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


def state(pid: int) -> bytes | None:
    """The ``/proc`` state letter of ``pid``, or ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as stat:
            return stat.read().rpartition(b")")[2].split()[0]
    except FileNotFoundError:
        return None


def alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    return state(pid) not in (None, b"Z", b"X")


@contextlib.contextmanager
def stopped(pid: int):
    """Hold ``pid`` stopped (SIGSTOP, seen in ``/proc``) for the block."""
    os.kill(pid, signal.SIGSTOP)
    try:
        deadline = time.monotonic() + 5.0
        while state(pid) != b"T":
            assert time.monotonic() < deadline, f"verifier {pid} did not stop in 5 s"
            time.sleep(0.001)
        yield
    finally:
        os.kill(pid, signal.SIGCONT)


def settle(verifier) -> None:
    """Collect until every record written to ``verifier`` is answered."""
    deadline = time.monotonic() + 30.0
    while verifier.pending:
        assert keys._verifier is verifier, "the verifier was lost"
        assert time.monotonic() < deadline, "no verdicts in 30 s"
        verifier.collect()
        time.sleep(0.001)


def digests(label: str, count: int) -> list[bytes]:
    return [sha256(b"%s/%d" % (label.encode(), index)) for index in range(count)]


def session_spec():
    return apply_overrides(service_preset_spec("serve-steady"), {"duration": 4.0})


# Each returns the public calls to count, after any set-up they need; the
# calls return what they made, which the test keeps alive while it checks.


def running(tmp_path):
    spec = apply_overrides(preset_spec("engine-smoke"), {"traffic.num_swaps": 4})
    return lambda: run_experiment(spec)


def serving_checkpointing_draining(tmp_path):
    def calls():
        service = SwapService(session_spec())
        service.serve()
        service.checkpoint(str(tmp_path / "ck.json"))
        service.drain()
        return service

    return calls


def restoring_serving_draining(tmp_path):
    path = str(tmp_path / "ck.json")
    interrupted = SwapService(session_spec())
    interrupted.serve(max_swaps=3)
    interrupted.checkpoint(path)
    interrupted.close()

    def calls():
        restored = SwapService.restore(path)
        restored.serve()
        restored.drain()
        return restored

    return calls


def replaying(tmp_path):
    spec = session_spec()
    original = SwapService(spec)
    original.run()
    return lambda: SwapService.replay(spec, original.records)


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

    def test_worlds_close_in_any_order_and_the_last_stops_the_verifier(self, verifier_on):
        spec = apply_overrides(preset_spec("engine-smoke"), {"traffic.num_swaps": 2})
        traffic = traffic_generator(spec.traffic.generator)(spec)
        first = open_world(spec, traffic)
        with open_world(spec, traffic):
            pid = keys._verifier.pid
            first.close()
            assert keys._verifier is not None and keys._verifier.pid == pid
            assert alive(pid)
        assert keys._verifier is None and keys._scope_depth == 0
        assert not alive(pid)

    @pytest.mark.parametrize(
        "calls",
        [running, serving_checkpointing_draining, restoring_serving_draining, replaying],
    )
    def test_a_public_call_leaves_no_verifier(self, verifier_on, monkeypatch, tmp_path, calls):
        """Each call sequence forks exactly one verifier, its world's."""
        call = calls(tmp_path)
        fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        made = call()
        assert len(forks) == 1
        assert keys._verifier is None and keys._scope_depth == 0, made

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


def forging(monkeypatch, forged: set) -> None:
    """Make ``ecdsa.sign_digest`` return ``s + 1`` for the digests in
    ``forged``: s <= N/2 (low-s), so s + 1 is in range and wrong."""
    sign_digest = ecdsa.sign_digest

    def sign(private_scalar, digest):
        signature = sign_digest(private_scalar, digest)
        if digest in forged:
            return ecdsa.EcdsaSignature(signature.r, signature.s + 1)
        return signature

    monkeypatch.setattr(ecdsa, "sign_digest", sign)


def counting_verifies(monkeypatch) -> list:
    """Count this process's ``ecdsa.verify_digest`` calls from now on."""
    verify_digest, calls = ecdsa.verify_digest, []

    def counting(*args):
        calls.append(args)
        return verify_digest(*args)

    monkeypatch.setattr(ecdsa, "verify_digest", counting)
    return calls


class VerdictSpy:
    """Stands in for ``keys.os``: records every byte read from ``fd``."""

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.answered = bytearray()

    def __getattr__(self, name):
        return getattr(os, name)

    def read(self, fd, size):
        data = os.read(fd, size)
        if fd == self.fd:
            self.answered += data
        return data


class TestChecking:
    def test_a_bad_s_is_refused_by_the_verifier_itself(self, verifier_on, monkeypatch):
        pair = KeyPair.from_seed("verifier/forger")
        good, bad = digests("forger", 2)
        keys.clear_verify_cache()
        with keys.verifying():
            forging(monkeypatch, {bad})
            signed = {digest: pair.sign(digest) for digest in (good, bad)}
            # Both verdicts are in before either is asked for, so neither
            # record can be taken by this process.
            settle(keys._verifier)
            assert [key[2] for key in keys._READY] == [good, bad]

            def inline(*_args):
                raise AssertionError("verified in this process, not by the verifier")

            # The verifier forked before this patch: only it can answer.
            monkeypatch.setattr(ecdsa, "verify_digest", inline)
            assert pair.public_key.verify(good, signed[good]) is True
            assert pair.public_key.verify(bad, signed[bad]) is False
        assert keys.verify_cache_info()["misses"] == 2


class TestTaking:
    def test_a_stopped_verifier_leaves_every_check_to_the_caller(
        self, verifier_on, monkeypatch, capsys
    ):
        pair = KeyPair.from_seed("verifier/stopped")
        keys.clear_verify_cache()
        with keys.verifying():
            verifier = keys._verifier
            spy = VerdictSpy(verifier.verdicts)
            calls = counting_verifies(monkeypatch)  # this process only
            monkeypatch.setattr(keys, "os", spy)
            with stopped(verifier.pid):
                signed = [(digest, pair.sign(digest)) for digest in digests("stopped", 8)]
                for digest, signature in signed:
                    started = time.monotonic()
                    assert pair.public_key.verify(digest, signature) is True
                    assert time.monotonic() - started < 5.0
                assert len(calls) == 8
                assert list(verifier.pending.values()) == [None] * 8
            settle(verifier)
            assert bytes(spy.answered) == b"\x02" * 8
            assert not keys._READY  # a skip byte is never a verdict
        assert capsys.readouterr().err == ""

    def test_a_forged_s_taken_by_the_caller_is_refused_by_its_own_verify(
        self, verifier_on, monkeypatch
    ):
        pair = KeyPair.from_seed("verifier/forged-taken")
        (bad,) = digests("forged-taken", 1)
        keys.clear_verify_cache()
        forging(monkeypatch, {bad})
        with keys.verifying():
            verifier = keys._verifier
            calls = counting_verifies(monkeypatch)
            with stopped(verifier.pid):
                signature = pair.sign(bad)
                assert pair.public_key.verify(bad, signature) is False
                assert len(calls) == 1 and list(verifier.pending.values()) == [None]
            settle(verifier)
        assert not keys._READY

    def test_a_record_the_verifier_has_started_is_waited_for(self, verifier_on, monkeypatch):
        pair = KeyPair.from_seed("verifier/started")
        (digest,) = digests("started", 1)
        keys.clear_verify_cache()
        verify_digest = ecdsa.verify_digest

        def slow(*args):  # the verifier's copy: long enough to be seen at work
            time.sleep(0.5)
            return verify_digest(*args)

        monkeypatch.setattr(ecdsa, "verify_digest", slow)
        with keys.verifying():

            def inline(*_args):
                raise AssertionError("verified in this process, not by the verifier")

            monkeypatch.setattr(ecdsa, "verify_digest", inline)
            signature = pair.sign(digest)
            verifier = keys._verifier
            deadline = time.monotonic() + 5.0
            while verifier.claims[0] != keys._STARTED:
                assert time.monotonic() < deadline, "the verifier never started the record"
                time.sleep(0.001)
            assert pair.public_key.verify(digest, signature) is True
            assert not verifier.pending

    def test_reused_slots_give_every_verdict_its_inline_value(
        self, verifier_on, monkeypatch, capsys
    ):
        pair = KeyPair.from_seed("verifier/slots")
        batches = [digests(f"slots/{batch}", 60) for batch in range(10)]
        forged = {digest for batch in batches for digest in batch[::5]}
        keys.clear_verify_cache()
        forging(monkeypatch, forged)
        signed, verdicts = {}, {}
        with keys.verifying():
            verifier = keys._verifier
            for batch in batches:
                with stopped(verifier.pid):
                    signed.update((digest, pair.sign(digest)) for digest in batch)
                    for digest in batch[::3]:  # taken: the verifier cannot start them
                        verdicts[digest] = pair.public_key.verify(digest, signed[digest])
                settle(verifier)
                for digest in batch:
                    if digest not in verdicts:  # answered by the verifier
                        verdicts[digest] = pair.public_key.verify(digest, signed[digest])
            assert verifier.written == 600 and keys._verifier is verifier
        point = pair.public_key.point
        inline = {
            digest: ecdsa.verify_digest(point, digest, signature)
            for digest, signature in signed.items()
        }
        assert verdicts == inline
        assert sorted(inline.values()).count(False) == len(forged) == 120
        assert capsys.readouterr().err == ""

    def test_fifty_scopes_leak_no_descriptor_and_close_their_claim_map(self, verifier_on):
        pair = KeyPair.from_seed("verifier/scopes")
        descriptors = len(os.listdir("/proc/self/fd"))
        for digest in digests("scopes", 50):
            with keys.verifying():
                claims = keys._verifier.claims
                assert pair.public_key.verify(digest, pair.sign(digest))
            assert claims.closed
        assert len(os.listdir("/proc/self/fd")) == descriptors


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
