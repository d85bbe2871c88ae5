"""CLI surface of service mode: repro serve / repro replay.

Pins the full operator loop: serve a session to a request log,
checkpoint a second run mid-flight, restore it, replay the log — and
byte-compare everything against the uninterrupted original.
"""

import json

import pytest

from repro.cli import main
from tests.test_service import make_spec


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "svc.json"
    path.write_text(make_spec(seed=50).to_json())
    return str(path)


class TestListPresetsKinds:
    def test_text_catalog_merges_service_presets(self, capsys):
        assert main(["run", "--list-presets"]) == 0
        out = capsys.readouterr().out
        for name in ("serve-steady", "serve-diurnal", "serve-flash-crowd"):
            assert name in out
        assert "[service]" in out and "[experiment]" in out

    def test_json_catalog_has_kind_field(self, capsys):
        assert main(["run", "--list-presets", "--json"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        kinds = {entry["name"]: entry["kind"] for entry in catalog}
        assert kinds["serve-steady"] == "service"
        assert kinds["engine-smoke"] == "experiment"
        assert all(entry["description"] for entry in catalog)


class TestServeCli:
    def test_serve_restore_replay_byte_identity(self, tmp_path, spec_path, capsys):
        full_log = tmp_path / "full.log"
        full_json = tmp_path / "full.json"
        assert (
            main(
                [
                    "serve",
                    "--spec",
                    spec_path,
                    "--request-log",
                    str(full_log),
                    "--json",
                    str(full_json),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "service 'svc-test'" in out
        assert "wrote request log" in out

        accepted = json.loads(full_json.read_text())["accepted"]
        assert accepted > 4

        ckpt = tmp_path / "ck.json"
        assert (
            main(
                [
                    "serve",
                    "--spec",
                    spec_path,
                    "--max-swaps",
                    str(accepted // 2),
                    "--checkpoint",
                    str(ckpt),
                ]
            )
            == 0
        )
        capsys.readouterr()

        restored_log = tmp_path / "restored.log"
        restored_json = tmp_path / "restored.json"
        assert (
            main(
                [
                    "serve",
                    "--restore",
                    str(ckpt),
                    "--request-log",
                    str(restored_log),
                    "--json",
                    str(restored_json),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert restored_log.read_bytes() == full_log.read_bytes()
        assert restored_json.read_bytes() == full_json.read_bytes()

        replayed_log = tmp_path / "replayed.log"
        replayed_json = tmp_path / "replayed.json"
        assert (
            main(
                [
                    "replay",
                    str(full_log),
                    "--request-log",
                    str(replayed_log),
                    "--json",
                    str(replayed_json),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert replayed_log.read_bytes() == full_log.read_bytes()
        assert replayed_json.read_bytes() == full_json.read_bytes()

    def test_serve_preset_with_duration_override(self, tmp_path, capsys):
        log = tmp_path / "reqs.log"
        assert (
            main(
                [
                    "serve",
                    "--preset",
                    "serve-steady",
                    "--duration",
                    "5",
                    "--request-log",
                    str(log),
                ]
            )
            == 0
        )
        capsys.readouterr()
        header = json.loads(log.read_text().splitlines()[0])
        # --duration is baked into the spec echo so replay reproduces it.
        assert header["spec"]["duration"] == 5.0

    def test_serve_periodic_checkpoint_and_store(self, tmp_path, spec_path, capsys):
        ckpt = tmp_path / "ck.json"
        db = tmp_path / "camp.db"
        assert (
            main(
                [
                    "serve",
                    "--spec",
                    spec_path,
                    "--checkpoint",
                    str(ckpt),
                    "--checkpoint-every",
                    "5",
                    "--store",
                    str(db),
                ]
            )
            == 0
        )
        capsys.readouterr()
        document = json.loads(ckpt.read_text())
        assert document["epoch"] >= 1
        from repro.store import CampaignStore

        with CampaignStore(str(db)) as store:
            campaigns = store.campaigns()
            assert len(campaigns) == 1
            assert campaigns[0].kind == "service"

    def test_serve_json_stdout_stays_parseable(self, spec_path, capsys):
        assert main(["serve", "--spec", spec_path, "--json"]) == 0
        out = capsys.readouterr().out
        result = json.loads(out)
        assert result["accepted"] > 0
        assert "epochs" not in result  # operator metadata never exported

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve"],
            ["serve", "--preset", "no-such-preset"],
            ["serve", "--spec", "/nonexistent/svc.json"],
            ["serve", "--preset", "serve-steady", "--checkpoint-every", "5"],
            ["serve", "--restore", "/nonexistent/ck.json"],
            ["serve", "--restore", "ck.json", "--preset", "serve-steady"],
            ["replay", "/nonexistent/reqs.log"],
        ],
    )
    def test_errors_exit_two(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro serve:") or err.startswith("repro replay:")

    @pytest.mark.parametrize(
        "flag, value, said",
        [
            ("--duration", "-5", "--duration must be positive, got -5.0"),
            ("--duration", "inf", "--duration: expected a finite number, got inf"),
            ("--max-swaps", "0", "--max-swaps must be at least 1, got 0"),
            ("--max-swaps", "-2", "--max-swaps must be at least 1, got -2"),
            ("--checkpoint-every", "0", "--checkpoint-every must be at least 1, got 0"),
            ("--checkpoint-every", "-3", "--checkpoint-every must be at least 1, got -3"),
        ],
    )
    @pytest.mark.parametrize("restored", [False, True], ids=["fresh", "restored"])
    def test_per_call_limits_keep_the_spec_rules(
        self, tmp_path, spec_path, capsys, flag, value, said, restored
    ):
        """``--max-swaps``, ``--checkpoint-every`` and ``--duration`` skip
        the spec file, so ``serve`` holds them to the rules their
        ``ServiceSpec`` fields declare: a zero cadence was a
        ``ZeroDivisionError``, a negative cap served nothing and exit 0,
        and a restored session ignored a negative horizon."""
        ckpt = tmp_path / "ck.json"
        if restored:
            assert main(["serve", "--spec", spec_path, "--max-swaps", "2",
                         "--checkpoint", str(ckpt)]) == 0
            before = ckpt.read_bytes()
            argv = ["serve", "--restore", str(ckpt)]
        else:
            argv = ["serve", "--spec", spec_path, "--max-swaps", "5"]
        argv += ["--checkpoint", str(ckpt), flag, value]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"repro serve: {said}\n"
        assert ckpt.read_bytes() == before if restored else not ckpt.exists()

    def test_mistyped_checkpoint_exits_two_without_traceback(
        self, tmp_path, spec_path, capsys
    ):
        ckpt = tmp_path / "ck.json"
        assert (
            main(["serve", "--spec", spec_path, "--max-swaps", "2",
                  "--checkpoint", str(ckpt)])
            == 0
        )
        ckpt.write_text(json.dumps({**json.loads(ckpt.read_text()), "clock": None}))
        capsys.readouterr()
        assert main(["serve", "--restore", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro serve:") and "checkpoint.clock: expected a number" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1
