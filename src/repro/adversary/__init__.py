"""Adversary subsystem: declarative attacks as experiment inputs.

Section 6.3 argues AC3WN's atomicity holds as long as no attacker can
fork the witness chain deeper than ``d``; this package makes that claim
*measurable*.  An :class:`AdversarySpec` (a strict-serde node on
:class:`~repro.experiment.ExperimentSpec`) declares a roster of
adversarial actors — a budgeted reorg attacker, a censoring miner, a
Byzantine participant, and a phase-keyed eclipse — and
:func:`build_roster` wires them into a live
:class:`~repro.engine.SwapEngine` run.  Attack exposure is attributed
per swap into :class:`~repro.core.protocol.SwapOutcome` /
:class:`~repro.engine.EngineMetrics`, and the ``security-matrix`` sweep
preset turns the whole thing into the paper's empirical depth-vs-cost
trade-off surface.

The public surface:

* :class:`AdversarySpec` and the per-actor spec nodes
  (:mod:`repro.adversary.spec`);
* the live actors and :class:`AdversaryRoster`
  (:mod:`repro.adversary.actors`);
* :func:`build_roster` — spec + environment + engine -> armed roster.
"""

from .actors import build_roster, decision_chain
from .spec import AdversarySpec, ByzantineSpec, CensorSpec, EclipseSpec, ReorgAttackSpec

__all__ = [
    "AdversarySpec",
    "ByzantineSpec",
    "CensorSpec",
    "EclipseSpec",
    "ReorgAttackSpec",
    "build_roster",
    "decision_chain",
]
