"""The sweep schema: one serializable spec describing N experiments.

A :class:`SweepSpec` is a base :class:`~repro.experiment.ExperimentSpec`
plus named *axes* of dotted-path overrides.  Expansion is deterministic:
``grid`` mode takes the cartesian product of the axes (first axis
outermost), ``zip`` mode pairs them position-wise, and every expanded
point gets a derived seed (``base.seed + index * seed_stride`` unless an
axis sets ``seed`` explicitly).  The expansion is a pure function of the
sweep spec, so the same spec always yields the identical point list —
the invariant that makes multi-process execution byte-reproducible.

Axes come in two shapes:

* **scalar axes** — ``path`` names one dotted spec field and ``values``
  lists its settings (``SweepAxis(name="rate", path="traffic.rate",
  values=(6.0, 12.0))``);
* **override axes** — ``path`` is empty and every value is a dict of
  dotted-path overrides applied together, for coordinates that touch
  several fields at once (a Figure 10 "diameter" moves ``chains.ids``
  and ``traffic.participants_per_swap`` in lockstep).

Unknown paths and ill-typed values are rejected through the same strict
serde as the experiment layer, naming the full dotted path.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from typing import Any

from .. import serde
from ..errors import SpecError
from ..experiment.spec import ExperimentSpec, apply_overrides

SWEEP_MODES = ("grid", "zip")


@dataclass(frozen=True)
class SweepAxis:
    """One named dimension of a sweep (see module docstring)."""

    name: str = serde.field(
        nonempty=True, doc="the label in point names, coordinates and CSV columns"
    )
    path: str = serde.field(
        "", doc='dotted spec path of a scalar axis; "" for an override axis'
    )
    values: tuple[Any, ...] = serde.field(
        (), doc="scalars, or {dotted.path: value} dicts for an override axis"
    )
    labels: tuple[str, ...] = serde.field(
        (), doc="display labels parallel to values (default: the value, compact JSON)"
    )

    def coordinate(self, index: int) -> Any:
        """The coordinate recorded for ``values[index]`` (label first)."""
        if self.labels:
            return self.labels[index]
        if self.path:
            return self.values[index]
        return json.dumps(self.values[index], sort_keys=True)

    def overrides_at(self, index: int) -> dict:
        """The dotted-path overrides ``values[index]`` contributes."""
        value = self.values[index]
        if self.path:
            return {self.path: value}
        return dict(value)


@dataclass(frozen=True)
class SweepPoint:
    """One expanded experiment of a sweep (a runtime artifact, not serde)."""

    index: int
    name: str
    coords: dict[str, Any]
    overrides: dict[str, Any]
    spec: ExperimentSpec


@dataclass(frozen=True)
class SkippedPoint:
    """A grid combination dropped by ``drop_invalid`` (e.g. Nolan at
    diameter > 2), kept in the artifact so coverage gaps are explicit."""

    index: int
    coords: dict[str, Any]
    reason: str


@dataclass(frozen=True)
class SweepExpansion:
    """The deterministic result of :meth:`SweepSpec.expand`."""

    points: tuple[SweepPoint, ...]
    skipped: tuple[SkippedPoint, ...]


@dataclass(frozen=True)
class SweepSpec(serde.Serializable):
    """A campaign: one base experiment swept along named axes."""

    name: str = serde.field("sweep", doc="echoed into artifacts and point names")
    base: ExperimentSpec = serde.field(
        default_factory=ExperimentSpec, doc="the experiment every point starts from"
    )
    axes: tuple[SweepAxis, ...] = serde.field((), doc="outermost first")
    mode: str = serde.field(
        "grid",
        choices=SWEEP_MODES,
        doc="cartesian product, or position-wise over equal-length axes",
    )
    derive_seeds: bool = serde.field(
        True,
        doc="point seed = base.seed + index * seed_stride unless an axis sets seed",
    )
    seed_stride: int = serde.field(1, ge=1)
    drop_invalid: bool = serde.field(
        False,
        doc="record points whose spec fails validation as skipped instead of raising",
    )

    # -- validation --------------------------------------------------------

    def validate(self) -> "SweepSpec":
        """Check the sweep's own structure; returns self for chaining.

        Point-level semantic validity is checked during :meth:`expand`
        (so ``drop_invalid`` can skip, not fail); this method rejects
        everything that would make the expansion itself ill-defined.
        """

        def fail(message: str) -> None:
            raise SpecError(f"invalid sweep {self.name!r}: {message}")

        serde.check(self, fail=fail)
        if not self.axes:
            fail("a sweep needs at least one axis")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            fail(f"axis names must be unique, got {names}")
        # Axis names become row/CSV columns; colliding with the fixed
        # identity or metric columns would silently clobber coordinates.
        # The one self-consistent case: an axis literally sweeping the
        # spec's seed (name == path == "seed") matches its row column.
        from .result import ROW_METRICS

        reserved = {"index", "name", "seed", "status", "skip_reason"} | set(
            ROW_METRICS
        )
        for axis in self.axes:
            if axis.name in reserved and not (
                axis.name == "seed" and axis.path == "seed"
            ):
                fail(
                    f"axis name {axis.name!r} collides with a reserved "
                    f"result column; pick another label"
                )
        for axis in self.axes:
            if not axis.values:
                fail(f"axis {axis.name!r} has no values")
            if axis.labels and len(axis.labels) != len(axis.values):
                fail(
                    f"axis {axis.name!r} has {len(axis.labels)} labels for "
                    f"{len(axis.values)} values"
                )
            if not axis.path:
                for i, value in enumerate(axis.values):
                    if not isinstance(value, dict):
                        fail(
                            f"axis {axis.name!r} has no path, so values must "
                            f"be override dicts; values[{i}] is "
                            f"{type(value).__name__}"
                        )
        if self.mode == "zip":
            lengths = {len(axis.values) for axis in self.axes}
            if len(lengths) > 1:
                fail(
                    f"zip mode needs equal-length axes, got "
                    f"{[len(a.values) for a in self.axes]}"
                )
        paths: dict[str, str] = {}
        for axis in self.axes:
            for path in self._axis_paths(axis):
                if path in paths:
                    fail(
                        f"axes {paths[path]!r} and {axis.name!r} both "
                        f"override {path!r}"
                    )
                paths[path] = axis.name
        return self

    @staticmethod
    def _axis_paths(axis: SweepAxis) -> set[str]:
        if axis.path:
            return {axis.path}
        paths: set[str] = set()
        for value in axis.values:
            if isinstance(value, dict):
                paths.update(str(key) for key in value)
        return paths

    # -- expansion ---------------------------------------------------------

    def num_points(self) -> int:
        """Points the expansion will enumerate (before drop_invalid)."""
        if self.mode == "zip":
            return len(self.axes[0].values) if self.axes else 0
        count = 1
        for axis in self.axes:
            count *= len(axis.values)
        return count

    def _combinations(self):
        """Per-axis value indices of every point, expansion order."""
        if self.mode == "zip":
            return (
                tuple([i] * len(self.axes))
                for i in range(len(self.axes[0].values))
            )
        return itertools.product(*(range(len(a.values)) for a in self.axes))

    def expand(self) -> SweepExpansion:
        """Deterministically expand into concrete experiment points.

        Unknown override paths and ill-typed values raise
        :class:`~repro.errors.SpecError` naming the full dotted path;
        semantically invalid combinations raise too, unless
        ``drop_invalid`` turns them into :class:`SkippedPoint` records.
        Skipping never renumbers the surviving points, so per-point
        derived seeds are stable under catalog changes.
        """
        self.validate()
        points: list[SweepPoint] = []
        skipped: list[SkippedPoint] = []
        for index, picks in enumerate(self._combinations()):
            coords = {
                axis.name: axis.coordinate(pick)
                for axis, pick in zip(self.axes, picks)
            }
            overrides: dict[str, Any] = {}
            for axis, pick in zip(self.axes, picks):
                overrides.update(axis.overrides_at(pick))
            spec = apply_overrides(self.base, overrides)
            if self.derive_seeds and "seed" not in overrides:
                spec = replace(spec, seed=self.base.seed + index * self.seed_stride)
            label = ",".join(f"{k}={coords[k]}" for k in coords)
            spec = replace(spec, name=f"{self.name}[{index:03d}] {label}")
            try:
                spec.validate()
            except SpecError as exc:
                if not self.drop_invalid:
                    raise SpecError(
                        f"sweep {self.name!r} point {index} ({label}): {exc}"
                    ) from exc
                skipped.append(
                    SkippedPoint(index=index, coords=coords, reason=str(exc))
                )
                continue
            points.append(
                SweepPoint(
                    index=index,
                    name=spec.name,
                    coords=coords,
                    overrides=overrides,
                    spec=spec,
                )
            )
        return SweepExpansion(points=tuple(points), skipped=tuple(skipped))
