"""Cross-run comparison: join two campaigns, flag metric regressions.

``repro compare`` joins the points of two campaigns (from two
databases, or two campaign ids in one) by their expansion coordinates
and diffs every shared numeric metric.  Known metrics carry a
direction — a commit-rate drop or a latency rise is a *regression*, the
opposite an *improvement* — so the benchmark suite becomes a tracked
perf trajectory: run a bench campaign per commit, then one command
diffs this run against the previous one and exits non-zero when
anything got worse beyond the threshold.

Neutral metrics (no known direction) are reported as plain changes and
never fail the comparison.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

from .. import serde
from ..errors import StoreError
from .store import CampaignInfo, CampaignStore

#: Metrics where a larger value is an improvement.
HIGHER_IS_BETTER = frozenset(
    {
        "commit_rate",
        "committed",
        "swaps_per_second",
        "swaps_per_second_wall",
        "points_per_second",
    }
)

#: Metrics where a larger value is a regression.
LOWER_IS_BETTER = frozenset(
    {
        "atomicity_violations",
        "violation_rate",
        "mean_latency",
        "p50_latency",
        "p99_latency",
        "makespan",
        "fee_per_commit",
        "priced_out",
        "mixed",
        "undecided",
        "wall_seconds",
    }
)

#: Identity/row keys that are never treated as comparable metrics.
_IDENTITY_KEYS = frozenset({"index", "name", "seed", "status", "skip_reason"})

#: The pinned CSV column order of a comparison export.
COMPARE_CSV_COLUMNS = (
    "coords",
    "metric",
    "a",
    "b",
    "delta",
    "rel_change",
    "direction",
    "regression",
)


@dataclass(frozen=True)
class MetricDelta:
    """One metric of one joined point pair."""

    coords: dict
    metric: str
    a: float
    b: float

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def rel_change(self) -> float:
        """Relative change vs A (``inf`` when A is zero and B is not)."""
        if self.a == 0:
            return 0.0 if self.delta == 0 else float("inf")
        return self.delta / abs(self.a)

    @property
    def direction(self) -> str:
        """``better`` / ``worse`` / ``changed`` / ``same``."""
        if self.delta == 0:
            return "same"
        if self.metric in HIGHER_IS_BETTER:
            return "better" if self.delta > 0 else "worse"
        if self.metric in LOWER_IS_BETTER:
            return "worse" if self.delta > 0 else "better"
        return "changed"

    def exceeds(self, threshold: float) -> bool:
        return abs(self.rel_change) > threshold

    def is_regression(self, threshold: float) -> bool:
        return self.direction == "worse" and self.exceeds(threshold)


@dataclass
class CompareReport:
    """Everything one campaign comparison produced.

    ``deltas`` holds every shared numeric metric of every joined point
    pair (including unchanged ones, so exports are complete);
    ``only_in_a`` / ``only_in_b`` list coordinates present on one side
    only.
    """

    campaign_a: CampaignInfo
    campaign_b: CampaignInfo
    threshold: float
    deltas: list[MetricDelta] = field(default_factory=list)
    only_in_a: list[dict] = field(default_factory=list)
    only_in_b: list[dict] = field(default_factory=list)
    joined_points: int = 0

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.is_regression(self.threshold)]

    @property
    def improvements(self) -> list[MetricDelta]:
        return [
            d
            for d in self.deltas
            if d.direction == "better" and d.exceeds(self.threshold)
        ]

    @property
    def changes(self) -> list[MetricDelta]:
        """Direction-less metrics that moved beyond the threshold."""
        return [
            d
            for d in self.deltas
            if d.direction == "changed" and d.exceeds(self.threshold)
        ]

    def to_dict(self) -> dict:
        return {
            "campaign_a": self.campaign_a.to_dict(),
            "campaign_b": self.campaign_b.to_dict(),
            "threshold": self.threshold,
            "joined_points": self.joined_points,
            "only_in_a": self.only_in_a,
            "only_in_b": self.only_in_b,
            "deltas": [
                {
                    "coords": d.coords,
                    "metric": d.metric,
                    "a": d.a,
                    "b": d.b,
                    "delta": d.delta,
                    "rel_change": d.rel_change,
                    "direction": d.direction,
                    "regression": d.is_regression(self.threshold),
                }
                for d in self.deltas
            ],
        }

    def to_csv(self) -> str:
        """Every metric delta as CSV in the pinned column order
        (:data:`COMPARE_CSV_COLUMNS`), rows sorted by (coords, metric)
        — deterministic for diffing across runs and Python versions."""
        import json as _json

        buffer = io.StringIO()
        buffer.write(",".join(COMPARE_CSV_COLUMNS) + "\n")
        rows = sorted(
            self.deltas,
            key=lambda d: (_json.dumps(d.coords, sort_keys=True), d.metric),
        )
        for d in rows:
            cells = [
                _json.dumps(d.coords, sort_keys=True),
                d.metric,
                repr(float(d.a)),
                repr(float(d.b)),
                repr(float(d.delta)),
                repr(float(d.rel_change)),
                d.direction,
                str(d.is_regression(self.threshold)),
            ]
            buffer.write(serde.csv_line(cells) + "\n")
        return buffer.getvalue()


def _points_by_coords(store: CampaignStore, campaign_id: int) -> dict[str, list[dict]]:
    """Executed points grouped by their canonical coordinate key."""
    import json as _json

    grouped: dict[str, list[dict]] = {}
    for point in store.points(campaign_id):
        key = _json.dumps(point["coords"], sort_keys=True)
        grouped.setdefault(key, []).append(point)
    return grouped


def compare_campaigns(
    store_a: CampaignStore,
    campaign_a: CampaignInfo,
    store_b: CampaignStore,
    campaign_b: CampaignInfo,
    threshold: float = 0.05,
) -> CompareReport:
    """Join two campaigns by expansion coordinates and diff metrics.

    Points pair by identical coordinate dicts (duplicates pair in index
    order); every numeric metric present in both rows of a pair becomes
    a :class:`MetricDelta`.  ``threshold`` is the relative-change bar a
    directed metric must clear to count as a regression/improvement;
    one that is not a finite number >= 0 would turn the gate off (no
    change exceeds NaN or infinity) and is refused.
    """
    if not 0 <= threshold < math.inf:
        raise StoreError(f"threshold must be a finite number >= 0, got {threshold!r}")
    report = CompareReport(
        campaign_a=campaign_a, campaign_b=campaign_b, threshold=threshold
    )
    a_groups = _points_by_coords(store_a, campaign_a.campaign_id)
    b_groups = _points_by_coords(store_b, campaign_b.campaign_id)
    for key in sorted(set(a_groups) | set(b_groups)):
        a_list = a_groups.get(key, [])
        b_list = b_groups.get(key, [])
        for a_point, b_point in zip(a_list, b_list):
            report.joined_points += 1
            coords = a_point["coords"]
            coord_keys = set(coords)
            row_a, row_b = a_point["row"], b_point["row"]
            for metric in sorted(set(row_a) & set(row_b)):
                if metric in _IDENTITY_KEYS or metric in coord_keys:
                    continue
                va, vb = row_a[metric], row_b[metric]
                if isinstance(va, bool) or isinstance(vb, bool):
                    va, vb = float(va), float(vb)
                if not isinstance(va, (int, float)) or not isinstance(
                    vb, (int, float)
                ):
                    continue
                report.deltas.append(
                    MetricDelta(coords=coords, metric=metric, a=va, b=vb)
                )
        for point in a_list[len(b_list):]:
            report.only_in_a.append(point["coords"])
        for point in b_list[len(a_list):]:
            report.only_in_b.append(point["coords"])
    return report
