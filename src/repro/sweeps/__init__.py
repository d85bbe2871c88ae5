"""Sweep campaigns: parallel experiment orchestration from one spec.

The paper's headline results are parameter sweeps — Table 1's
throughput scaling, Figure 10's latency vs swap diameter, the crash
matrices.  This subsystem turns each of them into one declarative
:class:`SweepSpec` (a base :class:`~repro.experiment.ExperimentSpec`
plus named axes of dotted-path overrides), expands it deterministically
into N experiment points, executes the points across a worker-process
pool (:class:`SweepRunner` — serialized specs in, serialized artifacts
out), and joins the per-point metrics into one
:class:`~repro.sweeps.result.SweepResult`
table with CSV/JSON export.

The public surface:

* :class:`SweepSpec` / :class:`SweepAxis` — the schema
  (:mod:`repro.sweeps.spec`);
* :class:`SweepRunner` / :func:`run_sweep` — execution
  (:mod:`repro.sweeps.runner`);
* ``SweepResult`` / ``PointResult`` — aggregation and export
  (:mod:`repro.sweeps.result`);
* :func:`sweep_spec` — the named campaign catalog
  (:mod:`repro.sweeps.presets`).

The reproduction scorecard (:mod:`repro.sweeps.scorecard`: one row per
paper claim a stock campaign measures) is imported by ``repro sweep``
alone, so ``import repro.sweeps`` does not load it.
"""

from .presets import sweep_names, sweep_spec
from .runner import SweepRunner, run_sweep
from .spec import SweepAxis, SweepSpec

__all__ = [
    "SweepAxis",
    "SweepRunner",
    "SweepSpec",
    "run_sweep",
    "sweep_names",
    "sweep_spec",
]
