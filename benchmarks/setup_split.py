"""Where a world's set-up time goes: import / derive / genesis / wiring.

For each of the ledger's three world-building workloads (``engine_mixed``,
``service_obs``, ``large_world``; specs from
``benchmarks/ledger/workloads.py``) this runs the program's own entry
point in a fresh interpreter, ``--reps`` times, and splits the wall time
before the first swap can run:

* ``import``: loading ``repro`` (the interpreter's own start excluded);
* ``derive``: inside the outermost ``KeyPair.from_seed`` / ``from_seeds``
  call, waits for the helper process included;
* ``genesis``: inside ``build_genesis``;
* ``wiring``: the rest of the set-up (the helper's fork, traffic,
  warm-up, engine, observability).

``engine_mixed`` is ``run_experiment`` up to ``SwapEngine.run``; the two
sessions are ``SwapService(spec)``.  The medians print as one table::

    python3 benchmarks/setup_split.py [--reps 5] [--seed 1] [--src DIR]

``--src`` measures another checkout's ``src/`` (a parent commit) with
this checkout's workload specs, so two trees print comparable tables.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("engine_mixed", "service_obs", "large_world")
PHASES = ("import", "derive", "genesis", "wiring", "setup")

#: One repetition, run as ``python -c CHILD SRC LEDGER WORKLOAD SEED``.
CHILD = r"""
import json, sys, time
started = time.perf_counter()
src, ledger, workload, seed = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
sys.path[:0] = [src, ledger]
from repro.chain import chain
from repro.crypto import keys
from repro.engine import SwapEngine
from repro.experiment import ExperimentSpec, run_experiment
from repro.service import ServiceSpec, SwapService
from repro.workloads import scenarios
imported = time.perf_counter()
import workloads

spent = {"derive": 0.0, "genesis": 0.0}
depth = [0]


def timed(owner, name, phase, wrap=lambda f: f):
    real = getattr(owner, name)
    real = getattr(real, "__func__", real)

    def call(*args, **kwargs):
        depth[0] += 1
        start = time.perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            depth[0] -= 1
            if depth[0] == 0:
                spent[phase] += time.perf_counter() - start

    setattr(owner, name, wrap(call))


for name in ("from_seed", "from_seeds"):
    if hasattr(keys.KeyPair, name):
        timed(keys.KeyPair, name, "derive", classmethod)
timed(chain, "build_genesis", "genesis")
scenarios.build_genesis = chain.build_genesis


class SetUp(Exception):
    pass


def stop_at_run(engine, *args, **kwargs):
    raise SetUp


text = workloads.generate(workload, seed, workloads.FULL)["spec"]
start = time.perf_counter()
if workload == "engine_mixed":
    SwapEngine.run = stop_at_run
    try:
        run_experiment(ExperimentSpec.from_json(text))
    except SetUp:
        pass
else:
    SwapService(ServiceSpec.from_json(text)).close()
setup = time.perf_counter() - start
wiring = setup - spent["derive"] - spent["genesis"]
print(json.dumps({"import": imported - started, **spent, "wiring": wiring, "setup": setup}))
"""


def measure(src: str, workload: str, seed: int) -> dict:
    ledger = os.path.join(ROOT, "benchmarks", "ledger")
    done = subprocess.run(
        [sys.executable, "-c", CHILD, src, ledger, workload, str(seed)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = parser.parse_args(argv)
    print(f"| workload | {' | '.join(PHASES)} |")
    print(f"| --- |{' --- |' * len(PHASES)}")
    for workload in WORKLOADS:
        reps = [measure(args.src, workload, args.seed) for _ in range(args.reps)]
        cells = [f"{statistics.median(rep[phase] for rep in reps):.3f}" for phase in PHASES]
        print(f"| `{workload}` | {' | '.join(cells)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
