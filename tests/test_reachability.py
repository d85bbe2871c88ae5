"""The reachability ratchet: what no command, preset or example reaches.

Every function defined under ``src/repro`` is either executed by the
drive below — every run preset, every service preset (serve →
checkpoint → restore → replay), the first point of every sweep preset,
the read-only commands over what those wrote, and every file in
``examples/``, all at smoke size — or listed in
``tests/data/unreached.txt`` (sorted ``module:qualname`` lines).  The
file may only shrink:

* a listed name that is now reached, or no longer exists, fails:
  *delete the line*;
* a function that is neither reached nor listed fails: *reach it from a
  command, a preset or an example, or remove it* — do not add a line
  (CI rejects a PR whose diff adds one).

The drive runs in a fresh interpreter with the profile hook installed
before ``repro`` is imported (the ``tests/test_wire_cost.py`` technique;
no coverage dependency), so import-time calls count and nothing another
test cached or imported first can hide a call.
"""

import contextlib
import dataclasses
import io
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
UNREACHED = ROOT / "tests" / "data" / "unreached.txt"
#: Code objects that are not functions of their own: they run (or not)
#: with the function that holds them.
ANONYMOUS = {"<lambda>", "<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}
CO_OPTIMIZED = 0x1  # set on function bodies, clear on class and module bodies


def name_of(code) -> str:
    """``module:qualname`` of a code object compiled from under ``src/``."""
    module = ".".join(Path(code.co_filename).relative_to(SRC).with_suffix("").parts)
    return f"{module.removesuffix('.__init__')}:{code.co_qualname}"


def defined_functions() -> set[str]:
    """The name of every function defined under ``src/repro``."""
    names = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while pending:
            code = pending.pop()
            pending.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            if code.co_flags & CO_OPTIMIZED and code.co_name not in ANONYMOUS:
                names.add(name_of(code))
    return names


# ---------------------------------------------------------------------------
# The drive (runs in the child interpreter)
# ---------------------------------------------------------------------------


def drive(work: Path) -> None:
    from repro.cli import main
    from repro.experiment import preset_names
    from repro.service import service_preset_names
    from repro.sweeps import sweep_names, sweep_spec

    def repro(*argv: str, ok=(0,)) -> None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = main([str(arg) for arg in argv])
        assert status in ok, f"repro {' '.join(map(str, argv))} exited {status}"

    repro("run", "--list-presets")
    for name in preset_names():
        trace = work / f"{name}.trace"
        repro(
            "run", "--preset", name, "--set", "traffic.num_swaps=6",
            "--json", work / f"{name}.json", "--trace", trace,
            "--metrics", work / f"{name}.metrics.json",
            ok=(0, 1),
        )
        repro("trace", trace)
        repro("trace", trace, "--swap", "0", "--series", work / f"{name}.series.csv")
        repro("alerts", trace)
    repro("run", "--preset", "swap", "--metrics", work / "swap.prom")

    for name in service_preset_names():
        checkpoint, log = work / f"{name}.ckpt", work / f"{name}.log"
        repro(
            "serve", "--preset", name, "--duration", "4", "--max-swaps", "4",
            "--checkpoint", checkpoint, "--request-log", log,
            "--store", work / "sessions.db", "--json", work / f"{name}.json",
            ok=(0, 1),
        )
        repro("serve", "--restore", checkpoint, "--json", work / f"{name}.restored.json", ok=(0, 1))
        repro("replay", log, "--request-log", work / f"{name}.replayed.log", ok=(0, 1))

    repro("sweep", "--list-presets")
    campaigns = work / "campaigns.db"
    for name in sweep_names():
        spec = sweep_spec(name)
        first = dataclasses.replace(
            spec,
            axes=tuple(
                dataclasses.replace(axis, values=axis.values[:1], labels=axis.labels[:1])
                for axis in spec.axes
            ),
        )
        path = work / f"sweep-{name}.json"
        path.write_text(first.to_json())
        for _twice in range(2):  # the second run resumes from the store
            repro(
                "sweep", "--spec", path, "--set", "base.traffic.num_swaps=4",
                "--workers", "1", "--no-progress", "--store", campaigns,
                "--csv", work / f"sweep-{name}.csv", "--json", work / f"sweep-{name}.out.json",
                ok=(0, 1),
            )
    repro("query", "commit_rate >= 0 AND NOT protocol = 'nolan'", "--db", campaigns)
    repro("compare", campaigns, ok=(0, 1))
    repro("store", "list", "--db", campaigns)

    for topic in ("run", "serve", "sweep"):
        repro("describe", topic)
    repro("describe", "run", "traffic.crash")
    repro("figure10")
    repro("table1")
    repro("witness-depth")

    for example in sorted((ROOT / "examples").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(example), run_name="__main__")


def child(work: str, out: str) -> None:
    root = str(SRC / "repro") + os.sep
    reached = set()

    def hook(frame, event, _arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.setprofile(hook)
    try:
        drive(Path(work))
    finally:
        sys.setprofile(None)
    names = {
        name_of(code)
        for code in reached
        if code.co_filename.startswith(root) and code.co_name not in ANONYMOUS
    }
    Path(out).write_text(json.dumps(sorted(names)))


# ---------------------------------------------------------------------------
# The ratchet
# ---------------------------------------------------------------------------


def test_unreached_functions_are_exactly_the_committed_list(tmp_path):
    out = tmp_path / "reached.json"
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
    done = subprocess.run(
        [sys.executable, __file__, str(tmp_path), str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    defined = defined_functions()
    unreached = defined - set(json.loads(out.read_text()))
    listed = UNREACHED.read_text(encoding="utf-8").split()
    assert listed == sorted(set(listed)), "tests/data/unreached.txt must stay sorted and unique"
    gone = sorted(set(listed) - defined)
    assert not gone, f"no longer defined; delete the line from {UNREACHED.name}: {gone}"
    now_reached = sorted(set(listed) - unreached)
    assert not now_reached, f"now reached; delete the line from {UNREACHED.name}: {now_reached}"
    new = sorted(unreached - set(listed))
    assert not new, (
        f"reached by no command, preset or example; reach it or remove it "
        f"(do not add it to {UNREACHED.name}): {new}"
    )


if __name__ == "__main__":
    child(*sys.argv[1:])
