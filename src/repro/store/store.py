"""`CampaignStore`: the typed API over the campaign database.

One store holds many campaigns; one campaign holds many points; every
executed point carries its indexed flat metrics and the byte-exact
serialized ``ExperimentResult`` artifact it produced.  The write path
is safe under concurrent multi-process appenders: every append is one
``BEGIN IMMEDIATE`` transaction over a WAL database with a 30 s busy
timeout, so distributed workers (or a local pool) can append points
keyed by a shared campaign id without losing rows.

The store is also the sweep subsystem's durable resume archive:
:meth:`stored_artifact` only returns bytes whose stored spec echo still
matches the freshly expanded point, so editing a sweep invalidates
exactly the stale points, never the whole campaign.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from dataclasses import dataclass
from typing import Any, Iterable

from .. import serde
from ..errors import StoreError
from . import schema

#: Metrics derived at append time from the stored row, so predicates
#: like ``violation_rate > 0`` work without every producer computing
#: them.  Each entry: derived key -> (numerator key, denominator key).
DERIVED_RATES = {
    "violation_rate": ("atomicity_violations", "total"),
}


@dataclass(frozen=True)
class CampaignInfo:
    """One campaign's identity row, plus its point tallies."""

    campaign_id: int
    name: str
    kind: str
    created_at: str
    points: int
    skipped: int

    def to_dict(self) -> dict:
        return {
            "campaign_id": self.campaign_id,
            "name": self.name,
            "kind": self.kind,
            "created_at": self.created_at,
            "points": self.points,
            "skipped": self.skipped,
        }


def _derive_row_metrics(row: dict) -> dict:
    """The stored row: the caller's flat row plus the derived rates."""
    out = dict(row)
    for key, (num, den) in DERIVED_RATES.items():
        if key in out or num not in out or den not in out:
            continue
        try:
            out[key] = out[num] / out[den] if out[den] else 0.0
        except TypeError:
            continue
    return out


class CampaignStore:
    """Open (creating if needed) the campaign database at ``path``.

    Usable as a context manager; every public method is safe to call
    from independent processes holding their own store instance.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._conn: sqlite3.Connection | None = schema.connect(path)

    # -- lifecycle ---------------------------------------------------------

    @property
    def conn(self) -> sqlite3.Connection:
        if self._conn is None:
            raise StoreError(f"campaign store {self.path!r} is closed")
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def schema_version(self) -> int:
        return schema.schema_version(self.conn)

    # -- campaigns ---------------------------------------------------------

    def create_campaign(
        self, name: str, kind: str = "sweep", spec_json: str | None = None
    ) -> int:
        """Always create a new campaign (one per benchmark run, so the
        same name accumulates a perf trajectory of campaigns)."""
        cursor = self.conn.execute(
            "INSERT INTO campaigns (name, kind, spec_json, created_at)"
            " VALUES (?, ?, ?, datetime('now'))",
            (name, kind, spec_json),
        )
        return int(cursor.lastrowid)

    def ensure_campaign(
        self, name: str, kind: str = "sweep", spec_json: str | None = None
    ) -> int:
        """Find the latest campaign named ``name`` of ``kind``, creating
        it if absent — the sweep runner's resume identity.

        The stored sweep-spec echo is refreshed to ``spec_json``; point
        staleness is judged per point (see :meth:`stored_artifact`), so
        an edited sweep invalidates exactly its stale points.
        """
        conn = self.conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            row = conn.execute(
                "SELECT campaign_id FROM campaigns WHERE name = ? AND kind = ?"
                " ORDER BY campaign_id DESC LIMIT 1",
                (name, kind),
            ).fetchone()
            if row is not None:
                campaign_id = int(row["campaign_id"])
                if spec_json is not None:
                    conn.execute(
                        "UPDATE campaigns SET spec_json = ? WHERE campaign_id = ?",
                        (spec_json, campaign_id),
                    )
            else:
                cursor = conn.execute(
                    "INSERT INTO campaigns (name, kind, spec_json, created_at)"
                    " VALUES (?, ?, ?, datetime('now'))",
                    (name, kind, spec_json),
                )
                campaign_id = int(cursor.lastrowid)
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        return campaign_id

    def campaigns(self) -> list[CampaignInfo]:
        """Every campaign, oldest first, with point tallies."""
        rows = self.conn.execute(
            """
            SELECT c.campaign_id, c.name, c.kind, c.created_at,
                   SUM(CASE WHEN p.status = 'ok' THEN 1 ELSE 0 END) AS points,
                   SUM(CASE WHEN p.status = 'skipped' THEN 1 ELSE 0 END) AS skipped
            FROM campaigns c LEFT JOIN points p USING (campaign_id)
            GROUP BY c.campaign_id ORDER BY c.campaign_id
            """
        ).fetchall()
        return [
            CampaignInfo(
                campaign_id=row["campaign_id"],
                name=row["name"],
                kind=row["kind"],
                created_at=row["created_at"],
                points=row["points"] or 0,
                skipped=row["skipped"] or 0,
            )
            for row in rows
        ]

    def campaign_spec_json(self, campaign_id: int) -> str | None:
        row = self.conn.execute(
            "SELECT spec_json FROM campaigns WHERE campaign_id = ?",
            (campaign_id,),
        ).fetchone()
        if row is None:
            raise StoreError(f"no campaign {campaign_id} in {self.path!r}")
        return row["spec_json"]

    def resolve_campaign(self, selector: int | str | None) -> CampaignInfo:
        """A campaign by id, by name (latest wins), or the latest overall.

        ``selector`` may be an integer id, a decimal-string id, a
        campaign name, or None (the most recently created campaign).
        """
        campaigns = self.campaigns()
        if not campaigns:
            raise StoreError(f"{self.path!r} holds no campaigns")
        if selector is None:
            return campaigns[-1]
        if isinstance(selector, int) or (
            isinstance(selector, str) and selector.isdigit()
        ):
            wanted = int(selector)
            for info in campaigns:
                if info.campaign_id == wanted:
                    return info
            raise StoreError(
                f"no campaign {wanted} in {self.path!r}; ids: "
                f"{[c.campaign_id for c in campaigns]}"
            )
        named = [info for info in campaigns if info.name == selector]
        if not named:
            names = sorted({c.name for c in campaigns})
            raise StoreError(
                f"no campaign named {selector!r} in {self.path!r}; "
                f"names: {', '.join(names)}"
            )
        return named[-1]

    def previous_campaign(self, info: CampaignInfo) -> CampaignInfo | None:
        """The campaign before ``info`` with the same name and kind —
        the other end of a perf-trajectory comparison."""
        earlier = [
            c
            for c in self.campaigns()
            if c.name == info.name
            and c.kind == info.kind
            and c.campaign_id < info.campaign_id
        ]
        return earlier[-1] if earlier else None

    # -- points ------------------------------------------------------------

    def append_point(
        self,
        campaign_id: int,
        index: int,
        *,
        name: str = "",
        status: str = "ok",
        coords: dict | None = None,
        seed: int | None = None,
        spec: dict | None = None,
        row: dict | None = None,
        artifact: str | bytes | None = None,
        skip_reason: str | None = None,
        extra_metrics: dict | None = None,
    ) -> None:
        """Durably record one point, replacing any earlier row at the
        same ``(campaign_id, index)``.

        One ``BEGIN IMMEDIATE`` transaction covers the point row, its
        indexed metric rows (from ``row``), and the artifact blob, so a
        reader never observes a half-appended point and concurrent
        appenders from separate processes serialize instead of losing
        rows.  ``artifact`` is stored byte-exactly (text is encoded as
        UTF-8) and hashed for integrity.

        ``extra_metrics`` maps names to floats indexed *only* into the
        metrics table (never merged into ``row_json``, whose key set is
        a pinned export contract) — the channel sweep campaigns use to
        file each point's final metrics-registry snapshot as queryable
        rows.
        """
        stored_row = _derive_row_metrics(row) if row is not None else {}
        coords_json = json.dumps(coords or {}, sort_keys=True)
        spec_json = None if spec is None else json.dumps(spec, sort_keys=True)
        row_json = json.dumps(stored_row, sort_keys=True)
        body: bytes | None
        if artifact is None:
            body = None
        elif isinstance(artifact, bytes):
            body = artifact
        else:
            body = artifact.encode("utf-8")
        conn = self.conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.execute(
                "DELETE FROM points WHERE campaign_id = ? AND point_index = ?",
                (campaign_id, index),
            )
            cursor = conn.execute(
                "INSERT INTO points (campaign_id, point_index, name, status,"
                " coords_json, seed, spec_json, row_json, skip_reason)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    campaign_id,
                    index,
                    name,
                    status,
                    coords_json,
                    seed,
                    spec_json,
                    row_json,
                    skip_reason,
                ),
            )
            point_id = cursor.lastrowid
            metric_rows = list(self._metric_rows(point_id, stored_row))
            metric_rows += [
                (point_id, metric, float(value), None)
                for metric, value in sorted((extra_metrics or {}).items())
            ]
            conn.executemany(
                "INSERT INTO metrics (point_id, name, value, text_value)"
                " VALUES (?, ?, ?, ?)",
                metric_rows,
            )
            if body is not None:
                conn.execute(
                    "INSERT INTO artifacts (point_id, body, sha256)"
                    " VALUES (?, ?, ?)",
                    (point_id, body, hashlib.sha256(body).hexdigest()),
                )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    @staticmethod
    def _metric_rows(point_id: int, row: dict) -> Iterable[tuple]:
        for key, value in row.items():
            if isinstance(value, bool):
                yield point_id, key, float(value), None
            elif isinstance(value, (int, float)):
                yield point_id, key, float(value), None
            elif isinstance(value, str):
                yield point_id, key, None, value
            elif value is None:
                yield point_id, key, None, None
            # Structured values stay queryable only through row_json.

    def _point_row(self, campaign_id: int, index: int) -> sqlite3.Row | None:
        return self.conn.execute(
            "SELECT * FROM points WHERE campaign_id = ? AND point_index = ?",
            (campaign_id, index),
        ).fetchone()

    def get_artifact(self, campaign_id: int, index: int) -> str:
        """The byte-exact serialized ``ExperimentResult`` the point
        stored (raises :class:`StoreError` if absent or corrupted)."""
        point = self._point_row(campaign_id, index)
        if point is None:
            raise StoreError(
                f"campaign {campaign_id} has no point {index} in {self.path!r}"
            )
        blob = self.conn.execute(
            "SELECT body, sha256 FROM artifacts WHERE point_id = ?",
            (point["point_id"],),
        ).fetchone()
        if blob is None:
            raise StoreError(
                f"campaign {campaign_id} point {index} stored no artifact"
            )
        body = blob["body"]
        if hashlib.sha256(body).hexdigest() != blob["sha256"]:
            raise StoreError(
                f"campaign {campaign_id} point {index} artifact is corrupted "
                f"(sha256 mismatch)"
            )
        return body.decode("utf-8")

    def stored_artifact(
        self, campaign_id: int, index: int, spec: dict
    ) -> str | None:
        """The stored artifact text for a point whose spec echo still
        matches ``spec``, or None (execute it): a stale, corrupt or
        missing point is re-executed alone."""
        point = self._point_row(campaign_id, index)
        if point is None or point["status"] != "ok" or point["spec_json"] is None:
            return None
        if json.loads(point["spec_json"]) != spec:
            return None
        try:
            text = self.get_artifact(campaign_id, index)
            stored_spec = serde.parse(text, StoreError, "stored artifact").get("spec")
        except (StoreError, AttributeError):
            return None
        if stored_spec != spec:
            return None
        return text

    def rows(self, campaign_id: int, status: str = "ok") -> list[dict]:
        """The flat summary rows of one campaign, index order."""
        rows = self.conn.execute(
            "SELECT point_index, row_json FROM points"
            " WHERE campaign_id = ? AND status = ? ORDER BY point_index",
            (campaign_id, status),
        ).fetchall()
        return [json.loads(row["row_json"]) for row in rows]

    def points(self, campaign_id: int, status: str = "ok") -> list[dict]:
        """Identity + coords + row per point of one campaign, index order."""
        rows = self.conn.execute(
            "SELECT point_index, name, status, coords_json, seed, row_json,"
            " skip_reason FROM points WHERE campaign_id = ? AND status = ?"
            " ORDER BY point_index",
            (campaign_id, status),
        ).fetchall()
        return [
            {
                "index": row["point_index"],
                "name": row["name"],
                "status": row["status"],
                "coords": json.loads(row["coords_json"]),
                "seed": row["seed"],
                "row": json.loads(row["row_json"]),
                "skip_reason": row["skip_reason"],
            }
            for row in rows
        ]

    # -- queries -----------------------------------------------------------

    def query(
        self, expr: str, campaign: int | str | None = None
    ) -> list[dict]:
        """Evaluate a predicate expression over stored points.

        Returns each matching point's flat row with ``campaign`` /
        ``campaign_id`` / ``index`` identity merged in, ordered by
        campaign then point index.  Unless the expression itself
        constrains ``status``, only executed (``status='ok'``) points
        are considered.  ``campaign`` optionally pins one campaign (id
        or name, latest wins).
        """
        from .query import compile_query

        fragment, params, identifiers = compile_query(expr)
        clauses = [f"({fragment})"]
        if "status" not in identifiers:
            clauses.append("p.status = 'ok'")
        if campaign is not None:
            info = self.resolve_campaign(campaign)
            clauses.append("p.campaign_id = ?")
            params = params + [info.campaign_id]
        sql = (
            "SELECT c.campaign_id AS campaign_id, c.name AS campaign,"
            " p.point_index, p.row_json"
            " FROM points p JOIN campaigns c USING (campaign_id)"
            f" WHERE {' AND '.join(clauses)}"
            " ORDER BY p.campaign_id, p.point_index"
        )
        out: list[dict] = []
        for row in self.conn.execute(sql, params):
            merged: dict[str, Any] = {
                "campaign": row["campaign"],
                "campaign_id": row["campaign_id"],
                "index": row["point_index"],
            }
            merged.update(json.loads(row["row_json"]))
            merged["index"] = row["point_index"]
            out.append(merged)
        return out
