"""The engine as a long-running service: :class:`SwapService`.

A service session wraps :class:`~repro.engine.SwapEngine` in an
open-ended run: instead of a pre-scheduled traffic list with a fixed
horizon, arrivals come from live :class:`~repro.service.sources.TrafficSource`
plugins, each accepted request is appended to a replayable request log,
and the session can be checkpointed mid-flight and restored in a fresh
process with byte-identical subsequent behavior.

**The accept loop is the whole design.**  It runs *outside* the event
queue: the session keeps one pending arrival per source, picks the
earliest, advances the simulator exactly to that arrival time, and only
then submits the swap.  Live serving, request-log replay, and
checkpoint restore all drive this one code path — which is what makes
"re-execute the log" and "resume from the checkpoint" structurally
byte-identical to the original session rather than approximately so.

**Checkpoints are log-structured.**  Live engine state (drivers,
queued events) is closures all the way down and cannot be serialized;
what *can* be serialized is the session's complete causal input: the
spec, the accepted request records, each source's accept cursor, and
the clock.  ``restore`` rebuilds the world from the spec, re-drives the
records through the accept loop, advances to the checkpoint clock, and
verifies a digest of the engine's counters — deterministic replay
makes the reconstructed state *the* state, not a copy of it.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterable

from .. import serde
from ..engine.engine import SwapRequest
from ..engine.metrics import EngineMetrics
from ..errors import ServiceError
from ..experiment.runner import _artifact_dict, open_world
from ..workloads.scenarios import (
    TrafficItem,
    swap_graph,
    swap_traffic_graphs,
)
from .requestlog import RequestRecord, dump_request_log
from .sources import SOURCES, SourceItem, TrafficSource
from .spec import ServiceSpec, check_serve_limits

#: Checkpoint format identifier (bump on incompatible schema changes).
CKPT_SCHEMA = "repro-service-ckpt/1"


@serde.exact
@dataclass(frozen=True)
class _Checkpoint:
    """The checkpoint document (see :meth:`SwapService.checkpoint`)."""

    clock: float
    epoch: int
    accepted: int
    spec: ServiceSpec
    records: tuple[RequestRecord, ...]
    cursors: dict[str, int]
    digest: dict[str, int]
    schema: str = CKPT_SCHEMA


#: "Lookahead not yet filled" sentinel (None means source exhausted).
_UNSET = object()


@dataclass
class ServiceResult:
    """Everything one service session produced, as one serializable artifact.

    Mirrors :class:`~repro.experiment.ExperimentResult` where the
    concepts coincide (spec echo, aggregate/per-protocol metrics,
    per-swap outcomes, only-when-enabled observability reports) and
    adds the service-mode surfaces: the accepted count, the windowed
    metrics series, checkpoint epochs, and the quiesce stall report.
    """

    spec: ServiceSpec
    metrics: EngineMetrics
    by_protocol: dict[str, EngineMetrics]
    accepted: int
    windows: list[dict]
    epochs: int
    stall: dict | None
    chain_reorgs: dict[str, int]
    requests: list[SwapRequest] = field(repr=False, default_factory=list)
    metrics_registry: Any = field(default=None, repr=False)
    alerts: list | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            **_artifact_dict(self, self.requests, self.chain_reorgs, {}),
            "accepted": self.accepted,
            "windows": self.windows,
            # ``epochs`` is deliberately NOT exported: how often a
            # session was checkpointed is operator metadata, and
            # including it would make a restored session's artifact
            # differ from the uninterrupted one it must byte-match.
            "stall": self.stall,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


class SwapService:
    """One open-ended swap-serving session over a simulated world.

    Construction opens the world up front, as ``run_experiment`` does
    (:func:`~repro.experiment.runner.open_world`), with ``capacity`` swap
    slots pre-provisioned (a session can accept at most ``capacity``
    swaps).  The world and its one signature verifier live until
    :meth:`close`, which :meth:`drain` ends with.

    The lifecycle is serve → drain → result::

        service = SwapService(spec)
        service.serve(max_swaps=40); service.checkpoint(p)   # mid-flight
        service.drain(); result = service.result()
        SwapService.restore(p)                        # resume elsewhere, then serve
        SwapService.replay(spec, records)             # re-drive a log to its result

    :meth:`run` is the three calls in one.
    """

    def __init__(self, spec: ServiceSpec) -> None:
        spec.validate()
        self.spec = spec
        world = spec.world
        # Slot pre-provisioning: the graphs are built once with the
        # world's default amount so genesis can fund every slot's
        # participants; a slot accepted with a different amount rebuilds
        # its graph (same names, keys, chains, timestamp) on the fly.
        self._slots = swap_traffic_graphs(
            spec.capacity,
            list(world.chains.asset_ids()),
            participants_per_swap=world.traffic.participants_per_swap,
            amount=world.traffic.amount,
            prefix=world.traffic.prefix,
        )
        self._world = open_world(
            world, [TrafficItem(at=0.0, graph=graph) for graph in self._slots]
        )
        self.env, self.engine = self._world.env, self._world.engine
        self.collector = self._world.collector
        #: Session time zero: everything in the request log and the
        #: windowed series is relative to this post-warm-up instant.
        self.start = self.env.simulator.now
        self.records: list[RequestRecord] = []
        self.windows: list[dict] = []
        self.epoch = 0
        self.stall: dict | None = None
        self._sources: list[TrafficSource] | None = None
        self._lookahead: list = []
        self._next_sample_at = self.start + spec.metrics_interval
        self._accepts_by_source: dict[str, int] = {}
        self._closed = False
        self._store = None
        self._campaign_id = None
        registry = self._world.registry
        self._window_gauges = {
            name: registry.gauge(
                f"repro_service_window_{name}",
                f"service sliding-window {name.replace('_', ' ')}",
            )
            for name in (
                "total",
                "commit_rate",
                "p50_latency",
                "p99_latency",
                "priced_out_rate",
                "in_flight",
            )
            if registry is not None
        }

    # -- session state -----------------------------------------------------

    @property
    def accepted(self) -> int:
        """Requests admitted so far (== consumed slots == log length)."""
        return len(self.records)

    def metrics_window(self, window: float | None = None):
        """The live windowed metrics as of the session clock."""
        return self.engine.metrics_window(
            window if window is not None else self.spec.metrics_window,
            end=self.env.simulator.now,
        )

    def attach_store(self, store, campaign: str | None = None) -> None:
        """File every checkpoint epoch into a campaign datastore.

        ``store`` is an open :class:`~repro.store.CampaignStore`; each
        subsequent checkpoint appends one point (index = epoch) whose
        row is the windowed metrics at checkpoint time and whose
        artifact is the checkpoint document itself — byte-exact, so a
        session can be restored straight out of the database.
        """
        self._store = store
        self._campaign_id = store.ensure_campaign(
            campaign or self.spec.name, kind="service", spec_json=self.spec.to_json()
        )

    # -- the accept path (shared by live serving, replay, and restore) -----

    def _slot_graph(self, index: int, amount: int):
        traffic = self.spec.world.traffic
        if amount == traffic.amount:
            return self._slots[index]
        return swap_graph(
            index,
            list(self.spec.world.chains.asset_ids()),
            traffic.participants_per_swap,
            amount,
            traffic.prefix,
        )

    def _accept(self, source_name: str, item: SourceItem) -> None:
        seq = self.accepted
        if seq >= self.spec.capacity:
            raise ServiceError(
                f"capacity exhausted: all {self.spec.capacity} pre-provisioned "
                f"slots are taken (raise spec.capacity)"
            )
        graph = self._slot_graph(seq, item.amount)
        request = self.engine.submit(
            graph,
            protocol=item.protocol,
            at=self.start + item.at,
            fee_budget=None if item.fee_budget is None else item.fee_budget.build(),
        )
        self.records.append(
            RequestRecord(
                seq=seq,
                at=item.at,
                source=source_name,
                protocol=item.protocol,
                amount=item.amount,
                fee_budget=item.fee_budget,
            )
        )
        self._accepts_by_source[source_name] = (
            self._accepts_by_source.get(source_name, 0) + 1
        )
        collector = self.collector
        if collector is not None and collector.wants("service"):
            collector.emit(
                "service",
                "accept",
                swap_id=request.swap_id,
                source=source_name,
                protocol=item.protocol,
                amount=item.amount,
            )

    # -- time: all advancement goes through the sampling-aware step --------

    def _advance_to(self, target: float) -> None:
        """Run the simulation to ``target``, sampling windowed metrics at
        every ``metrics_interval`` boundary crossed on the way.

        This is the *only* way session code moves the clock, which is
        what makes the window series (and the gauges/alerts derived
        from it) a pure function of the accepted requests — replay and
        restore re-derive it exactly."""
        sim = self.env.simulator
        while self._next_sample_at <= target:
            boundary = self._next_sample_at
            if boundary > sim.now:
                sim.run_until(boundary)
            self._sample_window()
            self._next_sample_at = boundary + self.spec.metrics_interval
        if target > sim.now:
            sim.run_until(target)

    def _sample_window(self) -> None:
        sim = self.env.simulator
        wm = self.engine.metrics_window(self.spec.metrics_window, end=sim.now)
        sample = {
            "t": sim.now - self.start,
            "total": wm.total,
            "committed": wm.committed,
            "commit_rate": wm.commit_rate,
            "p50_latency": wm.p50_latency,
            "p99_latency": wm.p99_latency,
            "priced_out": wm.priced_out,
            "priced_out_rate": wm.priced_out_rate,
            "accepted": self.accepted,
            "in_flight": self.engine.in_flight,
        }
        self.windows.append(sample)
        for name, gauge in self._window_gauges.items():
            gauge.set(float(sample[name]))
        collector = self.collector
        if collector is not None and collector.wants("service"):
            collector.emit("service", "window", **sample)

    # -- live serving ------------------------------------------------------

    def _ensure_sources(self) -> None:
        if self._sources is not None:
            return
        world = self.spec.world
        self._sources = []
        for source_spec in self.spec.sources:
            source = SOURCES[source_spec.kind](source_spec, world.seed, world.traffic.amount)
            source.resolve_protocol(world.protocol)
            self._sources.append(source)
        self._lookahead = [_UNSET] * len(self._sources)

    def serve(
        self,
        duration: float | None = None,
        max_swaps: int | None = None,
        checkpoint_path: str | None = None,
        checkpoint_every: int | None = None,
    ) -> int:
        """Accept source arrivals until the horizon, a swap cap, or
        source exhaustion; returns the total accepted so far.

        ``duration`` (default ``spec.duration``) is measured from
        *session start*, so a restored session given the same duration
        continues toward the same absolute deadline.  ``max_swaps``
        stops mid-flight without advancing to the horizon — the
        checkpoint-then-abandon primitive.  With ``checkpoint_path``,
        a checkpoint is written every ``checkpoint_every`` (default
        ``spec.checkpoint_every``) accepted swaps.  A limit its
        :class:`ServiceSpec` field's rule refuses is a :class:`SpecError`.
        """
        if self._closed:
            raise ServiceError("session is closed; cannot serve")
        check_serve_limits(
            {"duration": duration, "max_swaps": max_swaps, "checkpoint_every": checkpoint_every}
        )
        self._ensure_sources()
        spec = self.spec
        horizon = duration if duration is not None else spec.duration
        deadline = None if horizon is None else self.start + horizon
        cap = max_swaps if max_swaps is not None else spec.max_swaps
        limit = spec.capacity if cap is None else min(cap, spec.capacity)
        every = (
            checkpoint_every if checkpoint_every is not None else spec.checkpoint_every
        )
        sources = self._sources
        lookahead = self._lookahead
        for index, source in enumerate(sources):
            if lookahead[index] is _UNSET:
                lookahead[index] = source.next()
        hit_limit = False
        while True:
            if self.accepted >= limit:
                hit_limit = True
                break
            best = None
            best_index = -1
            for index, item in enumerate(lookahead):
                if item is None:
                    continue
                if best is None or item.at < best.at:
                    best, best_index = item, index
            if best is None:
                break  # every live source exhausted
            if deadline is not None and self.start + best.at > deadline:
                break
            self._advance_to(self.start + best.at)
            self._accept(sources[best_index].name, best)
            lookahead[best_index] = sources[best_index].next()
            if (
                every is not None
                and checkpoint_path is not None
                and self.accepted % every == 0
            ):
                self.checkpoint(checkpoint_path)
        if not hit_limit and deadline is not None:
            self._advance_to(deadline)
        return self.accepted

    def drain(self, max_wall_s: float | None = 60.0) -> None:
        """Quiesce the session: wait out in-flight swaps (bounded by
        ``spec.drain_timeout`` sim-seconds), stop the miners, and run
        the queue dry under :meth:`~repro.sim.Simulator.run_until_idle`
        guards.  A non-idle stop is surfaced as a ``service/stall``
        trace event and in :attr:`stall`.  Ends with :meth:`close`.
        """
        if self._closed:
            return
        sim = self.env.simulator
        engine = self.engine
        deadline = sim.now + self.spec.drain_timeout
        while engine.completed < len(engine.requests) and sim.now < deadline:
            self._advance_to(min(deadline, sim.now + self.spec.metrics_interval))
        # Stop the perpetual reschedulers (miners, the obs sampler)
        # before running the queue dry — they are what keeps an open
        # session's queue deliberately non-empty.
        for miner in self.env.miners.values():
            miner.stop()
        if self._world.sampler is not None:
            self._world.sampler.stop()
        reason, processed = sim.run_until_idle(
            max_wall_s=max_wall_s, max_events=self.spec.world.engine.max_events
        )
        if reason != "idle":
            self.stall = {"reason": reason, "events": processed}
            collector = self.collector
            if collector is not None and collector.wants("service"):
                collector.emit("service", "stall", reason=reason, events=processed)
        # A drained queue with unfinished swaps (drain timeout hit, or a
        # stalled loop) force-finalizes those drivers, like engine.run.
        engine.finish_unfinished()
        self.close()

    def close(self) -> None:
        """End the session: close its world, which stops the sampler and
        the signature verifier.  ``serve`` and ``checkpoint`` refuse a
        closed session and ``drain`` skips it; closing twice is a no-op."""
        self._closed = True
        self._world.close()

    def run(
        self,
        duration: float | None = None,
        max_swaps: int | None = None,
        checkpoint_path: str | None = None,
        checkpoint_every: int | None = None,
    ) -> ServiceResult:
        """Serve to the horizon, drain, and aggregate in one call."""
        self.serve(
            duration=duration,
            max_swaps=max_swaps,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
        )
        self.drain()
        return self.result()

    def result(self) -> ServiceResult:
        """Aggregate the session so far (callable mid-session too)."""
        raw = self.engine.result()
        return ServiceResult(
            spec=self.spec,
            metrics=raw.metrics,
            by_protocol=raw.by_protocol,
            accepted=self.accepted,
            windows=list(self.windows),
            epochs=self.epoch,
            stall=self.stall,
            chain_reorgs=raw.chain_reorgs,
            requests=raw.requests,
            metrics_registry=self._world.registry,
            alerts=self._world.monitor.alerts if self._world.monitor is not None else None,
        )

    def request_log(self) -> str:
        """The session's replayable request log (strict JSONL)."""
        return dump_request_log(self.spec, self.records)

    # -- checkpoint / restore ----------------------------------------------

    def _digest(self) -> dict:
        metrics = self.engine._metrics
        return {
            "accepted": self.accepted,
            "completed": self.engine.completed,
            "committed": metrics.committed,
            "total_fees": metrics.total_fees,
            "events": self.env.simulator.events_processed,
        }

    def checkpoint(self, path: str | None = None) -> str:
        """Serialize the session's causal state; returns the document.

        The checkpoint is the session's complete deterministic input —
        spec, accepted records, per-source accept cursors, clock — plus
        a digest of the engine's live counters that :meth:`restore`
        verifies after replaying, so a restore that diverged (edited
        spec, wrong code version) fails loudly instead of silently
        forking the timeline.
        """
        if self._closed:
            raise ServiceError("session is closed; nothing left to checkpoint")
        self.epoch += 1
        document = _Checkpoint(
            clock=self.env.simulator.now,
            epoch=self.epoch,
            accepted=self.accepted,
            spec=self.spec,
            records=tuple(self.records),
            cursors=self._accepts_by_source,
            digest=self._digest(),
        )
        text = serde.canonical(serde.dump(document)) + "\n"
        if path is not None:
            serde.write_text(path, text)
        collector = self.collector
        if collector is not None and collector.wants("service"):
            collector.emit(
                "service", "checkpoint", epoch=self.epoch, accepted=self.accepted
            )
        if self._store is not None:
            wm = self.metrics_window()
            self._store.append_point(
                self._campaign_id,
                self.epoch,
                name=f"epoch-{self.epoch:04d}",
                coords={
                    "epoch": self.epoch,
                    "clock": self.env.simulator.now - self.start,
                    "accepted": self.accepted,
                },
                seed=self.spec.world.seed,
                row={
                    "total": wm.total,
                    "committed": wm.committed,
                    "commit_rate": wm.commit_rate,
                    "p50_latency": wm.p50_latency,
                    "p99_latency": wm.p99_latency,
                    "priced_out": wm.priced_out,
                    "completed": self.engine.completed,
                },
                artifact=text,
            )
        return text

    def _replay_records(self, records: Iterable[RequestRecord]) -> None:
        for record in records:
            if record.seq != self.accepted:
                raise ServiceError(
                    f"request records out of order: seq {record.seq} arrived "
                    f"when the session had accepted {self.accepted}"
                )
            self._advance_to(self.start + record.at)
            self._accept(
                record.source,
                SourceItem(
                    at=record.at,
                    protocol=record.protocol,
                    amount=record.amount,
                    fee_budget=record.fee_budget,
                ),
            )

    @classmethod
    def restore(cls, path: str) -> "SwapService":
        """Resume a checkpointed session in a fresh process.

        Rebuilds the world from the spec echo, re-drives the recorded
        requests through the accept loop, advances to the checkpoint
        clock, verifies the digest, and fast-forwards every live source
        past its accept cursor — leaving a session whose subsequent
        behavior is byte-identical to the uninterrupted original.
        """
        data = serde.parse(
            serde.read_text(path, ServiceError, "checkpoint"),
            ServiceError,
            f"checkpoint {path!r}",
        )
        serde.check_schema(_Checkpoint, data, ServiceError, "checkpoint")
        saved = serde.load(_Checkpoint, data, "checkpoint", ServiceError)
        if len(saved.records) != saved.accepted:
            raise ServiceError(
                f"checkpoint {path!r} declares {saved.accepted} accepted "
                f"requests but carries {len(saved.records)} records"
            )
        service = cls(saved.spec)
        try:
            service._replay_records(saved.records)
            service._advance_to(saved.clock)
            service.epoch = saved.epoch
            digest = service._digest()
            if digest != saved.digest:
                raise ServiceError(
                    f"checkpoint digest mismatch after replay: checkpoint says "
                    f"{saved.digest}, replay produced {digest} — the spec, "
                    f"code version, or checkpoint file changed"
                )
            service._ensure_sources()
            for source in service._sources:
                count = saved.cursors.get(source.name, 0)
                if count:
                    source.skip(count)
        except BaseException:
            service.close()
            raise
        return service

    @classmethod
    def replay(
        cls, spec: ServiceSpec, records: list[RequestRecord]
    ) -> ServiceResult:
        """Re-execute a recorded session to completion.

        Live sources are never consulted — the records *are* the
        arrivals — so a replayed session accepts exactly the logged
        requests, then runs out the original horizon and drains.  Since
        replay uses the same accept path as live serving, its result
        and re-dumped request log are byte-identical to the original's.
        """
        with contextlib.closing(cls(spec)) as service:
            service._replay_records(records)
            if spec.duration is not None:
                service._advance_to(service.start + spec.duration)
            service.drain()
        return service.result()
