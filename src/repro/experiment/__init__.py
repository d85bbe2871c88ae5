"""Declarative experiments: one typed, serializable spec drives every run.

The public surface:

* :class:`ExperimentSpec` and its nested section dataclasses — the
  schema (:mod:`repro.experiment.spec`);
* :func:`apply_overrides` / :func:`parse_set_args` — dotted-path spec
  edits, the CLI's ``--set key=value``;
* :func:`preset_spec` / :func:`register_preset` — the named preset
  catalog (:mod:`repro.experiment.presets`);
* :func:`register_traffic` — pluggable workload generators
  (:mod:`repro.experiment.registry`);
* :func:`run_experiment` → :class:`ExperimentResult` — the single entry
  point that executes a spec end to end
  (:mod:`repro.experiment.runner`).
"""

from .presets import (
    preset_description,
    preset_names,
    preset_spec,
    register_preset,
)
from .registry import (
    register_traffic,
    registered_traffic,
    traffic_generator,
    unregister_traffic,
)
from .runner import (
    ExperimentResult,
    build_environment,
    build_observability,
    run_experiment,
)
from .spec import (
    ChainOverride,
    AlertRulesSpec,
    ChainsSpec,
    CrashSpec,
    EngineSpec,
    ExperimentSpec,
    FeeBudgetSpec,
    FeeMarketSpec,
    FeeShockSpec,
    MetricsSpec,
    MonitorSpec,
    ObsSpec,
    TrafficSpec,
    apply_overrides,
    parse_set_args,
)

__all__ = [
    "ChainOverride",
    "AlertRulesSpec",
    "ChainsSpec",
    "CrashSpec",
    "EngineSpec",
    "ExperimentResult",
    "ExperimentSpec",
    "FeeBudgetSpec",
    "FeeMarketSpec",
    "FeeShockSpec",
    "MetricsSpec",
    "MonitorSpec",
    "ObsSpec",
    "TrafficSpec",
    "apply_overrides",
    "build_environment",
    "build_observability",
    "parse_set_args",
    "preset_description",
    "preset_names",
    "preset_spec",
    "register_preset",
    "register_traffic",
    "registered_traffic",
    "run_experiment",
    "traffic_generator",
    "unregister_traffic",
]
