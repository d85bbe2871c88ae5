"""Sweep execution: fan experiment points out across worker processes.

The execution contract keeps process boundaries dumb and deterministic:
workers receive a *serialized* :class:`~repro.experiment.ExperimentSpec`
(JSON) and return a *serialized* :class:`~repro.experiment.ExperimentResult`
artifact (JSON) — no simulator state, driver object, or chain ever
crosses a process boundary.  Because every experiment is a pure function
of its spec (the PR 3 invariant) and aggregation sorts by point index,
the joined :class:`~repro.sweeps.result.SweepResult` is byte-identical
whatever the worker count or completion order.

``workers=1`` is a pure in-process path: no ``multiprocessing`` import,
no pickling — the debugging mode, and the reference the parallel path
is pinned against.

Campaigns archive to ``store``, a :class:`~repro.store.CampaignStore`
SQLite database that also indexes every point's metrics for ``repro
query`` / ``repro compare``.  A re-run resumes from it point by point:
the store validates the stored spec echo before reusing a point, so
editing the sweep invalidates exactly the stale points.
"""

from __future__ import annotations

import json
import os
import time
from typing import TYPE_CHECKING, Callable

from ..crypto.keys import set_verifier
from ..errors import SpecError
from ..experiment.runner import run_experiment
from ..experiment.spec import ExperimentSpec
from .result import PointResult, SweepResult
from .spec import SweepPoint, SweepSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..store import CampaignStore


def run_point_payload(payload: tuple[int, str]) -> tuple[int, str, dict]:
    """Execute one serialized point; the worker-side entry point.

    ``payload`` is ``(index, spec_json)``; returns ``(index,
    result_json, heartbeat)`` where ``heartbeat`` carries the worker's
    wall-clock seconds and pid — pure telemetry for live progress
    rendering, never part of the artifact (which stays byte-identical
    across worker counts).  Top-level so it pickles under every start
    method.
    """
    index, spec_json = payload
    started = time.perf_counter()
    spec = ExperimentSpec.from_json(spec_json)
    result = run_experiment(spec)
    heartbeat = {"wall": time.perf_counter() - started, "pid": os.getpid()}
    return index, result.to_json(indent=None), heartbeat


class SweepRunner:
    """Executes a :class:`~repro.sweeps.spec.SweepSpec` campaign.

    Args:
        spec: the sweep to run.
        workers: worker processes; 1 (the default) runs every point
            in-process, N > 1 fans points out over a ``multiprocessing``
            pool (one point per task, so stragglers load-balance).
        on_point: optional progress callback, invoked in *completion*
            order with each finished :class:`PointResult`.
        on_progress: optional live-progress callback, invoked in
            completion order with ``(point, heartbeat)`` where
            ``heartbeat`` is a dict of ``wall`` (worker seconds, None
            for resumed points), ``pid`` (executing worker, None for
            resumed points), ``completed``, ``total``, and ``running``
            (points still in flight, capped by the worker count) — what
            ``repro sweep --progress`` renders as completed/ETA/
            per-worker throughput lines.
        store: path to (or an open) :class:`~repro.store.CampaignStore`
            campaign database.  Every executed point appends its
            serialized ``ExperimentResult`` there; on a re-run, points
            whose stored spec echo still matches the expanded point are
            loaded instead of executed — the merged :class:`SweepResult`
            is byte-identical to a fresh run because the stored bytes
            *are* the worker payloads.
    """

    def __init__(
        self,
        spec: SweepSpec,
        workers: int = 1,
        on_point: Callable[[PointResult], None] | None = None,
        on_progress: "Callable[[PointResult, dict], None] | None" = None,
        store: "str | CampaignStore | None" = None,
    ) -> None:
        if workers < 1:
            raise SpecError(f"workers must be at least 1, got {workers}")
        self.spec = spec
        self.workers = workers
        self.on_point = on_point
        self.on_progress = on_progress
        self.store = store
        #: Point indices loaded from the archive on the last run.
        self.resumed: list[int] = []

    def run(self) -> SweepResult:
        """Expand, execute every point, and join the artifacts.

        Points complete in whatever order the pool produces them; the
        join re-sorts by expansion index, which is what keeps the
        aggregate byte-identical across worker counts and schedules.
        """
        expansion = self.spec.expand()
        by_index = {point.index: point for point in expansion.points}
        finished: dict[int, PointResult] = {}
        self.resumed = []
        resumed_set: set[int] = set()
        store, campaign_id, own_store = self._open_store()
        try:
            if store is not None:
                for skip in expansion.skipped:
                    store.append_point(
                        campaign_id,
                        skip.index,
                        status="skipped",
                        coords=dict(skip.coords),
                        skip_reason=skip.reason,
                    )

            total = len(expansion.points)

            def collect(item: tuple[int, str, dict | None]) -> None:
                index, result_json, heartbeat = item
                if store is not None and index not in resumed_set:
                    self._store_point(store, campaign_id, by_index[index], result_json)
                joined = self._join(by_index[index], result_json)
                finished[index] = joined
                if self.on_point is not None:
                    self.on_point(joined)
                if self.on_progress is not None:
                    completed = len(finished)
                    beat = dict(heartbeat) if heartbeat else {"wall": None, "pid": None}
                    beat.update(
                        completed=completed,
                        total=total,
                        running=min(self.workers, total - completed),
                    )
                    self.on_progress(joined, beat)

            payloads = []
            for point in expansion.points:
                spec_json = point.spec.to_json(indent=None)
                cached = (
                    store.stored_artifact(campaign_id, point.index, point.spec.to_dict())
                    if store is not None
                    else None
                )
                if cached is not None:
                    self.resumed.append(point.index)
                    resumed_set.add(point.index)
                    collect((point.index, cached, None))
                else:
                    payloads.append((point.index, spec_json))

            if self.workers == 1 or len(payloads) <= 1:
                for payload in payloads:
                    collect(run_point_payload(payload))
            else:
                import multiprocessing

                try:
                    context = multiprocessing.get_context("fork")
                except ValueError:  # pragma: no cover - non-POSIX platforms
                    context = multiprocessing.get_context("spawn")
                workers = min(self.workers, len(payloads))
                # The pool already uses the cores: no verifier process per worker.
                with context.Pool(
                    processes=workers, initializer=set_verifier, initargs=(False,)
                ) as pool:
                    for item in pool.imap_unordered(
                        run_point_payload, payloads, chunksize=1
                    ):
                        collect(item)
        finally:
            if own_store and store is not None:
                store.close()
        points = [finished[point.index] for point in expansion.points]
        return SweepResult(
            spec=self.spec, points=points, skipped=list(expansion.skipped)
        )

    # -- store-backed campaigns --------------------------------------------

    def _open_store(self):
        """(store, campaign_id, owned) — the campaign database, if any.

        Accepts either a path (opened here, closed by ``run``) or an
        already-open :class:`~repro.store.CampaignStore` (left open for
        the caller).  The campaign identity is the sweep's name, so
        re-running the same sweep resumes its points; the sweep-spec
        echo stored on the campaign is refreshed every run.
        """
        if self.store is None:
            return None, None, False
        from ..store import CampaignStore

        if isinstance(self.store, CampaignStore):
            store, owned = self.store, False
        else:
            store, owned = CampaignStore(self.store), True
        campaign_id = store.ensure_campaign(
            self.spec.name,
            kind="sweep",
            spec_json=self.spec.to_json(indent=None),
        )
        return store, campaign_id, owned

    def _store_point(
        self,
        store: "CampaignStore",
        campaign_id: int,
        point: SweepPoint,
        result_json: str,
    ) -> None:
        """File one executed point: identity, indexed row, exact bytes.

        Points that armed the metrics registry additionally index their
        final snapshot (``reports.metrics`` in the artifact) as flat
        metric rows — queryable alongside the row metrics without ever
        widening the pinned ``row_json`` contract.
        """
        joined = self._join(point, result_json)
        store.append_point(
            campaign_id,
            point.index,
            name=point.name,
            coords=dict(point.coords),
            seed=point.spec.seed,
            spec=point.spec.to_dict(),
            row=joined.row(),
            artifact=result_json,
            extra_metrics=self._registry_metrics(joined.artifact),
        )

    @staticmethod
    def _registry_metrics(artifact: dict) -> dict | None:
        snapshot = (artifact.get("reports") or {}).get("metrics")
        if snapshot is None:
            return None
        from ..obs import MetricsRegistry

        return dict(MetricsRegistry.from_dict(snapshot).scalar_items())

    def _join(self, point: SweepPoint, result_json: str) -> PointResult:
        return PointResult(
            index=point.index,
            name=point.name,
            coords=dict(point.coords),
            overrides=dict(point.overrides),
            seed=point.spec.seed,
            artifact=json.loads(result_json),
        )


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    on_point: Callable[[PointResult], None] | None = None,
    on_progress: "Callable[[PointResult, dict], None] | None" = None,
    store: "str | CampaignStore | None" = None,
) -> SweepResult:
    """Convenience wrapper: ``SweepRunner(spec, workers).run()``."""
    return SweepRunner(
        spec,
        workers=workers,
        on_point=on_point,
        on_progress=on_progress,
        store=store,
    ).run()
