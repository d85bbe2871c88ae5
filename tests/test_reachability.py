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

The same rule holds for package re-exports: a name in a
``src/repro/**/__init__.py`` ``__all__`` must be imported through that
package (``from repro.chain import X``, ``from ..chain import X``) by
something outside it — ``src/``, ``tests/``, ``examples/``,
``benchmarks/`` or a code block in ``docs/``.
"""

import ast
import contextlib
import dataclasses
import io
import json
import os
import re
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


def module_of(path: Path) -> str:
    """Dotted module name of a file under ``src/`` (a package is its ``__init__``)."""
    return ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")


def name_of(code) -> str:
    """``module:qualname`` of a code object compiled from under ``src/``."""
    return f"{module_of(Path(code.co_filename))}:{code.co_qualname}"


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
    from repro.crypto import keys
    from repro.experiment import preset_names
    from repro.service import service_preset_names
    from repro.sweeps import sweep_names, sweep_spec

    def repro(*argv: str, ok=(0,)) -> None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = main([str(arg) for arg in argv])
        assert status in ok, f"repro {' '.join(map(str, argv))} exited {status}"

    # The verifier process is forced on for the commands and off for the
    # examples, so the reached set does not depend on the host's CPU
    # count (by default it needs two) and inline verifies are reached too.
    keys.set_verifier(True)
    repro("run", "--list-presets")
    for name in preset_names():
        trace = work / f"{name}.trace"
        repro(
            "run", "--preset", name, "--set", "traffic.num_swaps=6",
            "--json", work / f"{name}.json", "--trace", trace,
            "--metrics", work / f"{name}.metrics.json", "--alert-stderr",
            ok=(0, 1),
        )
        repro("trace", trace)
        repro("trace", trace, "--swap", "0")
        repro("trace", trace, "--series", work / f"{name}.series.csv")
        repro("alerts", trace)
    repro("run", "--preset", "swap", "--metrics", work / "swap.prom")
    repro("run", "--preset", "swap", "--profile")

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
    repro("serve", "--preset", "serve-steady", "--max-swaps", "2", "--profile")

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
    # A metered sweep, progress lines on: each point's registry snapshot
    # is indexed into the store as metric rows.  Its smaller points give
    # the two-database compare below metrics that moved.
    metered, first = work / "metered.db", sweep_names()[0]
    repro(
        "sweep", "--spec", work / f"sweep-{first}.json",
        "--set", "base.traffic.num_swaps=3", "--set", "base.obs.metrics.enabled=true",
        "--store", metered, ok=(0, 1),
    )
    for fmt in ("table", "csv", "json"):
        repro(
            "query", "commit_rate >= 0 AND NOT protocol = 'nolan'",
            "--db", campaigns, "--format", fmt,
        )
    repro(
        "compare", campaigns, "--csv", work / "compare.csv", "--json", work / "compare.json",
        ok=(0, 1),
    )
    repro("compare", campaigns, metered, "--a", first, "--b", first, ok=(0, 1))
    repro("store", "list", "--db", campaigns)
    repro("store", "list", "--db", campaigns, "--json")
    ingested = work / "ingested.db"
    repro("store", "ingest", work / "engine-smoke.json", "--db", ingested)
    repro("store", "artifact", "--db", ingested, "--point", "0")

    for topic in ("run", "serve", "sweep"):
        repro("describe", topic)
    repro("describe", "run", "traffic.crash")
    repro("paper")

    keys.set_verifier(False)
    for example in sorted((ROOT / "examples").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(example), run_name="__main__")


def child(work: str, out: str) -> None:
    root = str(SRC / "repro") + os.sep
    # Keyed by identity: code objects compare equal by content, so a set
    # would fold two identical methods that start on the same line of two
    # files into one, and report the second as never called.
    reached = {}

    def hook(frame, event, _arg):
        if event == "call":
            reached[id(frame.f_code)] = frame.f_code

    sys.setprofile(hook)
    try:
        drive(Path(work))
    finally:
        sys.setprofile(None)
    names = {
        name_of(code)
        for code in reached.values()
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


# ---------------------------------------------------------------------------
# The re-export rule
# ---------------------------------------------------------------------------

#: The body of a fenced code block in a markdown file.
CODE_BLOCK = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)


def from_imports(tree: ast.AST, package: str) -> set[tuple[str, str]]:
    """``(module, name)`` of every ``from module import name`` in ``tree``,
    a relative module resolved against ``package``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                parts = package.split(".")
                base = parts[: len(parts) - node.level + 1]
                module = ".".join(base + [module] if module else base)
            found.update((module, alias.name) for alias in node.names)
    return found


def importers() -> dict[tuple[str, str], set[Path]]:
    """The files that import each ``(module, name)``: every python file
    under ``src/``, ``tests/``, ``examples/`` and ``benchmarks/``, and
    every code block in ``docs/`` that parses as python."""
    sources = []
    for top in ("src", "tests", "examples", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            package = ""
            if SRC in path.parents:
                module = module_of(path)
                package = module if path.name == "__init__.py" else module.rpartition(".")[0]
            sources.append((path, path.read_text(encoding="utf-8"), package))
    for path in sorted((ROOT / "docs").glob("*.md")):
        text = path.read_text(encoding="utf-8")
        sources += [(path, block, "") for block in CODE_BLOCK.findall(text)]
    found: dict[tuple[str, str], set[Path]] = {}
    for path, text, package in sources:
        try:
            tree = ast.parse(text)
        except SyntaxError:  # a shell, JSON or text block
            continue
        for key in from_imports(tree, package):
            found.setdefault(key, set()).add(path)
    return found


def test_module_of_names_a_package_by_its_init():
    assert module_of(SRC / "repro" / "chain" / "__init__.py") == "repro.chain"
    assert module_of(SRC / "repro" / "chain" / "block.py") == "repro.chain.block"
    assert module_of(SRC / "repro" / "__init__.py") == "repro"


def test_from_imports_resolves_relative_imports():
    """A relative import counts against the package it names, whether it
    sits in a package ``__init__`` or in a module of that package."""
    tree = ast.parse(
        "from . import block\n"
        "from .. import serde\n"
        "from ..crypto import sha256, tagged_hash\n"
        "from repro.sim import Simulator\n"
    )
    expected = {
        ("repro.chain", "block"),
        ("repro", "serde"),
        ("repro.crypto", "sha256"),
        ("repro.crypto", "tagged_hash"),
        ("repro.sim", "Simulator"),
    }
    # In src/repro/chain/__init__.py and in src/repro/chain/chain.py the
    # enclosing package is the same, so the same import means the same.
    assert from_imports(tree, "repro.chain") == expected
    assert from_imports(ast.parse("from ...x import y\n"), "repro.a.b") == {("repro.x", "y")}


def test_every_reexport_is_imported_through_its_package():
    found = importers()
    unused = []
    for init in sorted((SRC / "repro").rglob("__init__.py")):
        package = module_of(init)
        exported = [
            name
            for node in ast.parse(init.read_text(encoding="utf-8")).body
            if isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__all__" for target in node.targets)
            for name in ast.literal_eval(node.value)
        ]
        unused += [
            f"{package}.{name}"
            for name in exported
            if all(init.parent in path.parents for path in found.get((package, name), ()))
        ]
    assert not unused, (
        f"re-exported, but nothing outside the package imports it through the package; "
        f"drop it from __all__ and the import: {unused}"
    )


if __name__ == "__main__":
    child(*sys.argv[1:])
