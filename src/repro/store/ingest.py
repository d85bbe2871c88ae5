"""Importers: existing artifacts → campaign database rows.

``repro store ingest`` recognizes three shapes and files each under a
campaign of the matching kind:

* a **point directory** of ``point-NNNNN.json`` files (the per-point
  archive ``repro sweep --resume DIR`` wrote before ``--store`` replaced
  it) — each file is one serialized ``ExperimentResult``; the bytes are
  stored verbatim, so recovery stays byte-exact and a later ``--store``
  resume of the same sweep can reuse the imported points;
* a single **ExperimentResult JSON** file (``repro run --json OUT``) —
  a one-point campaign;
* a **bench timing JSON** (the ``ENGINE_SCALE_JSON`` artifact of
  ``bench_engine_scale.py``: a dict of per-point timing dicts) — a
  ``bench`` campaign whose points carry the timing metrics.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass

from .. import serde
from ..errors import StoreError
from .store import CampaignStore

_POINT_FILE = re.compile(r"^point-(\d+)\.json$")


@dataclass(frozen=True)
class IngestReport:
    """What one ingest call filed: the campaign and its point count."""

    campaign_id: int
    campaign: str
    kind: str
    points: int


def _artifact_row(artifact: dict, index: int) -> tuple[dict, dict]:
    """(coords, flat row) distilled from one ExperimentResult dict."""
    spec = artifact.get("spec") or {}
    metrics = artifact.get("metrics") or {}
    coords = {"protocol": spec.get("protocol")}
    row: dict = {"index": index, "name": spec.get("name", ""), **coords}
    row["seed"] = spec.get("seed")
    for key, value in sorted(metrics.items()):
        if isinstance(value, (int, float, str)) or value is None:
            row[key] = value
    return coords, row


def _ingest_result_text(
    store: CampaignStore, campaign_id: int, index: int, text: str, origin: str
) -> None:
    artifact = serde.parse(text, StoreError, origin)
    if not isinstance(artifact, dict) or "spec" not in artifact or "metrics" not in artifact:
        raise StoreError(
            f"{origin}: not an ExperimentResult artifact (no spec/metrics)"
        )
    coords, row = _artifact_row(artifact, index)
    store.append_point(
        campaign_id,
        index,
        name=row.get("name", ""),
        coords=coords,
        seed=row.get("seed"),
        spec=artifact["spec"],
        row=row,
        artifact=text,
    )


def _ingest_point_dir(store: CampaignStore, path: str, campaign: str) -> IngestReport:
    entries = []
    for entry in sorted(os.listdir(path)):
        match = _POINT_FILE.match(entry)
        if match is not None:
            entries.append((int(match.group(1)), entry))
    if not entries:
        raise StoreError(
            f"{path!r} holds no point-NNNNN.json files to ingest"
        )
    campaign_id = store.create_campaign(campaign, kind="ingest")
    for index, entry in entries:
        origin = os.path.join(path, entry)
        text = serde.read_text(origin, StoreError, "point file")
        _ingest_result_text(store, campaign_id, index, text, origin)
    return IngestReport(
        campaign_id=campaign_id, campaign=campaign, kind="ingest",
        points=len(entries),
    )


def _looks_like_timings(data: dict) -> bool:
    return bool(data) and all(
        isinstance(value, dict) and "wall_seconds" in value
        for value in data.values()
    )


def _ingest_timings(
    store: CampaignStore, data: dict, campaign: str
) -> IngestReport:
    campaign_id = store.create_campaign(campaign, kind="bench")

    def sort_key(item):
        key = item[0]
        return (0, int(key)) if key.isdigit() else (1, key)

    for index, (key, entry) in enumerate(sorted(data.items(), key=sort_key)):
        coords = {"num_swaps": int(key)} if key.isdigit() else {"point": key}
        row = {"index": index, **coords}
        for name, value in sorted(entry.items()):
            if isinstance(value, (int, float, str)) or value is None:
                row[name] = value
        store.append_point(
            campaign_id,
            index,
            name=f"{campaign}[{key}]",
            coords=coords,
            row=row,
            artifact=json.dumps(entry, sort_keys=True),
        )
    return IngestReport(
        campaign_id=campaign_id, campaign=campaign, kind="bench",
        points=len(data),
    )


def ingest_path(
    store: CampaignStore, path: str, campaign: str | None = None
) -> IngestReport:
    """Import ``path`` (see module docstring for recognized shapes).

    ``campaign`` defaults to the path's basename (without extension).
    """
    name = campaign or os.path.splitext(os.path.basename(os.path.normpath(path)))[0]
    if os.path.isdir(path):
        return _ingest_point_dir(store, path, name)
    text = serde.read_text(path, StoreError, "artifact")
    data = serde.parse(text, StoreError, path)
    if isinstance(data, dict) and "spec" in data and "metrics" in data:
        campaign_id = store.create_campaign(name, kind="ingest")
        _ingest_result_text(store, campaign_id, 0, text, path)
        return IngestReport(
            campaign_id=campaign_id, campaign=name, kind="ingest", points=1
        )
    if isinstance(data, dict) and _looks_like_timings(data):
        return _ingest_timings(store, data, name)
    raise StoreError(
        f"{path!r} is neither an ExperimentResult artifact, a bench "
        f"timing JSON, nor a point-NNNNN.json directory"
    )
