"""Sweep aggregation: per-point artifacts joined into one table.

A :class:`SweepResult` holds, for every executed point, the full
serialized :class:`~repro.experiment.ExperimentResult` artifact plus a
flat summary row, and exports the whole campaign as JSON (artifact of
record) or CSV (the figure-plotting table).  Aggregation is a pure
function of the per-point artifacts sorted by point index, so the
export is byte-identical regardless of how many workers produced the
points or in which order they finished.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import Any

from .. import serde
from .spec import SkippedPoint, SweepSpec

#: The flat metric columns every summary row carries, CSV order.
ROW_METRICS = (
    "total",
    "committed",
    "aborted",
    "mixed",
    "undecided",
    "commit_rate",
    "atomicity_violations",
    "mean_latency",
    "p50_latency",
    "p99_latency",
    "swaps_per_second",
    "makespan",
    "max_in_flight",
    "total_fees",
    "fee_per_commit",
    "priced_out",
    "evictions",
    "fee_bumps",
    "injected_crashes",
    "attacked",
    "attacks_launched",
    "reorgs_won",
    "reorgs_lost",
    "attack_cost",
)


@dataclass(frozen=True)
class PointResult:
    """One executed sweep point: identity, coordinates, and artifact."""

    index: int
    name: str
    coords: dict[str, Any]
    overrides: dict[str, Any]
    seed: int
    #: The point's full ExperimentResult artifact (a plain dict — it
    #: crossed a process boundary as JSON).
    artifact: dict

    @property
    def metrics(self) -> dict:
        return self.artifact["metrics"]

    @property
    def outcomes(self) -> list[dict]:
        return self.artifact["outcomes"]

    @property
    def spec(self) -> dict:
        return self.artifact["spec"]

    def row(self) -> dict:
        """The flat summary row: identity + coords + headline metrics."""
        row: dict[str, Any] = {"index": self.index, "name": self.name}
        row.update(self.coords)
        row["seed"] = self.seed
        for key in ROW_METRICS:
            row[key] = self.metrics[key]
        return row


@dataclass
class SweepResult:
    """Everything one sweep campaign produced, as one artifact.

    Attributes:
        spec: the sweep spec that ran (echoed, so the artifact is
            reproducible from itself).
        points: executed points in index order.
        skipped: combinations dropped by ``drop_invalid``.
    """

    spec: SweepSpec
    points: list[PointResult]
    skipped: list[SkippedPoint] = field(default_factory=list)

    # -- joins -------------------------------------------------------------

    def rows(self) -> list[dict]:
        """The summary table, one flat dict per point, index order."""
        return [point.row() for point in self.points]

    @property
    def atomicity_violations(self) -> int:
        """Total violations across every point — the CI gate."""
        return sum(point.metrics["atomicity_violations"] for point in self.points)

    # -- exports -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "sweep": self.spec.to_dict(),
            "rows": self.rows(),
            "skipped": serde.dump(self.skipped),
            "points": [
                {
                    "index": p.index,
                    "name": p.name,
                    "coords": p.coords,
                    "overrides": p.overrides,
                    "seed": p.seed,
                    "result": p.artifact,
                }
                for p in self.points
            ],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def csv_columns(self) -> list[str]:
        """The pinned CSV header, in order: ``index``, ``name``,
        ``status``, one column per axis (declaration order), ``seed``,
        the :data:`ROW_METRICS` in their declared order, and
        ``skip_reason``.

        The order is part of the artifact contract — it depends only on
        the sweep spec (never on dict iteration, locale, or Python
        version), so ``repro compare --csv`` diffs and CI ``cmp`` checks
        stay stable across runs and interpreter upgrades.
        """
        return (
            ["index", "name", "status"]
            + [axis.name for axis in self.spec.axes]
            + ["seed"]
            + list(ROW_METRICS)
            + ["skip_reason"]
        )

    def to_csv(self) -> str:
        """The summary table as CSV (deterministic: executed *and*
        skipped points merged in index order, the pinned
        :meth:`csv_columns` order, repr-style floats).

        Skipped combinations appear as ``status=skipped`` rows carrying
        their coordinates and reason with empty metric cells, so the
        table covers every enumerated grid cell and coverage gaps are
        visible in the export itself.
        """
        buffer = io.StringIO()
        columns = self.csv_columns()
        buffer.write(serde.csv_line(columns) + "\n")
        merged: list[dict] = [dict(row, status="ok") for row in self.rows()]
        merged += [
            {
                "index": skip.index,
                "status": "skipped",
                **skip.coords,
                "skip_reason": skip.reason,
            }
            for skip in self.skipped
        ]
        for row in sorted(merged, key=lambda r: r["index"]):
            values = (row.get(column, "") for column in columns)
            buffer.write(
                serde.csv_line(repr(v) if isinstance(v, float) else str(v) for v in values)
                + "\n"
            )
        return buffer.getvalue()
