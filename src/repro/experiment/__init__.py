"""Declarative experiments: one typed, serializable spec drives every run.

The public surface:

* :class:`ExperimentSpec` and its nested section dataclasses — the
  schema (:mod:`repro.experiment.spec`);
* :func:`apply_overrides` / :func:`parse_set_args` — dotted-path spec
  edits, the CLI's ``--set key=value``;
* :func:`preset_spec` — the named preset catalog
  (:mod:`repro.experiment.presets`);
* :func:`traffic_generator` — the workload generator catalog
  (:mod:`repro.experiment.registry`);
* :func:`run_experiment` → :class:`ExperimentResult` — the single entry
  point that executes a spec end to end
  (:mod:`repro.experiment.runner`).
"""

from .presets import preset_names, preset_spec
from .registry import traffic_generator
from .runner import (
    ExperimentResult,
    build_environment,
    build_observability,
    run_experiment,
)
from .spec import (
    ChainOverride,
    ChainsSpec,
    CrashSpec,
    EngineSpec,
    ExperimentSpec,
    FeeBudgetSpec,
    FeeMarketSpec,
    FeeShockSpec,
    ObsSpec,
    TrafficSpec,
    apply_overrides,
    parse_set_args,
)

__all__ = [
    "ChainOverride",
    "ChainsSpec",
    "CrashSpec",
    "EngineSpec",
    "ExperimentResult",
    "ExperimentSpec",
    "FeeBudgetSpec",
    "FeeMarketSpec",
    "FeeShockSpec",
    "ObsSpec",
    "TrafficSpec",
    "apply_overrides",
    "build_environment",
    "build_observability",
    "parse_set_args",
    "preset_names",
    "preset_spec",
    "run_experiment",
    "traffic_generator",
]
