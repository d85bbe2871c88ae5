"""The reproduction scorecard (repro.sweeps.scorecard) as the CLI prints it.

``docs/reproduction.md`` is output: under each ``<!-- repro sweep
--preset NAME -->`` marker it holds the claim rows ``repro sweep
--preset NAME`` prints after its table.  When a row changes, paste the
command's rows (the failure shows them) — never edit a row by hand.
"""

import contextlib
import dataclasses
import difflib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.sweeps import sweep_spec
from repro.sweeps.scorecard import CLAIMS

ROOT = Path(__file__).resolve().parent.parent
DOC = ROOT / "docs" / "reproduction.md"
MARKER = re.compile(r"^<!-- repro sweep --preset (\S+) -->\n((?:\|.*\n)+)", re.M)
#: The campaigns the doc holds: the paper's figures and tables at full
#: size (``security-smoke`` is the tier-1 slice of ``security-matrix``).
DOCUMENTED = ("figure10", "crash-matrix", "security-matrix", "table1")


def printed_rows(argv: list[str]) -> tuple[int, str]:
    """Run ``repro`` and return its exit status and the claim rows it
    printed (everything from the rows' header line on)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    assert "Traceback" not in err.getvalue()
    text = out.getvalue()
    start = text.find("| claim |")
    return status, text[start:] if start >= 0 else ""


def test_the_doc_holds_each_campaigns_printed_rows():
    committed = dict(MARKER.findall(DOC.read_text(encoding="utf-8")))
    assert list(committed) == list(DOCUMENTED)
    for name in DOCUMENTED:
        status, rows = printed_rows(["sweep", "--preset", name, "--workers", "1", "--no-progress"])
        assert status == (1 if name == "crash-matrix" else 0)  # its HTLC cells
        diff = "".join(
            difflib.unified_diff(
                committed[name].splitlines(True),
                rows.splitlines(True),
                f"docs/reproduction.md ({name}, committed)",
                f"repro sweep --preset {name}",
            )
        )
        assert not diff, f"docs/reproduction.md is stale; paste the command's rows:\n{diff}"


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_a_campaign_trimmed_to_its_first_point_prints_not_measured_rows(tmp_path, name):
    """The reachability drive's run of a campaign: first value of every
    axis, four swaps a point.  Every claim keeps its row, and a claim the
    one point cannot back reads ``not measured``."""
    spec = sweep_spec(name)
    first = dataclasses.replace(
        spec,
        axes=tuple(
            dataclasses.replace(axis, values=axis.values[:1], labels=axis.labels[:1])
            for axis in spec.axes
        ),
    )
    path = tmp_path / f"{name}.json"
    path.write_text(first.to_json())
    status, rows = printed_rows(
        ["sweep", "--spec", str(path), "--set", "base.traffic.num_swaps=4",
         "--workers", "1", "--no-progress"]
    )
    assert status in (0, 1)
    assert len(rows.splitlines()) == 2 + len(CLAIMS[name])
    assert "| not measured |" in rows


def test_importing_sweeps_loads_no_scorecard():
    """Only ``repro sweep`` imports the scorecard; a plain ``import
    repro.sweeps`` (the library path) does not.  A fresh interpreter,
    so no other test's import can hide it."""
    probe = "import json, sys\nimport repro.sweeps\nprint(json.dumps(sorted(sys.modules)))\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    modules = json.loads(done.stdout)
    assert "repro.sweeps" in modules
    assert "repro.sweeps.scorecard" not in modules
