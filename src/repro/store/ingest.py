"""Importers: existing artifacts → campaign database rows.

``repro store ingest`` recognizes two shapes and files each under a
campaign of the matching kind:

* a single **ExperimentResult JSON** file (``repro run --json OUT``) —
  a one-point campaign whose bytes are stored verbatim, so recovery
  stays byte-exact;
* a **bench timing JSON** (the ``ENGINE_SCALE_JSON`` artifact of
  ``bench_engine_scale.py``: a dict of per-point timing dicts) — a
  ``bench`` campaign whose points carry the timing metrics.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .. import serde
from ..errors import StoreError
from .store import CampaignStore


@dataclass(frozen=True)
class IngestReport:
    """What one ingest call filed: the campaign and its point count."""

    campaign_id: int
    campaign: str
    kind: str
    points: int


def _artifact_row(artifact: dict) -> tuple[dict, dict]:
    """(coords, flat row) distilled from one ExperimentResult dict."""
    spec = artifact.get("spec") or {}
    metrics = artifact.get("metrics") or {}
    coords = {"protocol": spec.get("protocol")}
    row: dict = {"index": 0, "name": spec.get("name", ""), **coords}
    row["seed"] = spec.get("seed")
    for key, value in sorted(metrics.items()):
        if isinstance(value, (int, float, str)) or value is None:
            row[key] = value
    return coords, row


def _ingest_result_text(
    store: CampaignStore, name: str, text: str, artifact: dict
) -> IngestReport:
    campaign_id = store.create_campaign(name, kind="ingest")
    coords, row = _artifact_row(artifact)
    store.append_point(
        campaign_id,
        0,
        name=row.get("name", ""),
        coords=coords,
        seed=row.get("seed"),
        spec=artifact["spec"],
        row=row,
        artifact=text,
    )
    return IngestReport(campaign_id=campaign_id, campaign=name, kind="ingest", points=1)


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


def _read(path: str, campaign: str | None):
    """Read and recognize one input path; returns the call that files
    it into an open store.  A path that is unreadable, not JSON, or
    neither shape is a :class:`StoreError`."""
    name = campaign or os.path.splitext(os.path.basename(os.path.normpath(path)))[0]
    text = serde.read_text(path, StoreError, "artifact")
    data = serde.parse(text, StoreError, path)
    if isinstance(data, dict) and "spec" in data and "metrics" in data:
        return lambda store: _ingest_result_text(store, name, text, data)
    if isinstance(data, dict) and _looks_like_timings(data):
        return lambda store: _ingest_timings(store, data, name)
    raise StoreError(
        f"{path!r} is neither an ExperimentResult artifact nor a bench timing JSON"
    )


def ingest_paths(
    db: str, paths: list[str], campaign: str | None = None
) -> list[IngestReport]:
    """Import every path (see module docstring for recognized shapes)
    into the campaign database at ``db``, one campaign each.

    All or nothing: every path is read and recognized before the
    database is opened, so a refused input leaves the database as it
    was, and creates none where there was none.  ``campaign`` defaults
    to each path's basename (without extension).
    """
    filers = [_read(path, campaign) for path in paths]
    with CampaignStore(db) as store:
        return [file(store) for file in filers]
