"""Aggregate metrics over a batch of concurrently executed AC2Ts.

The paper's evaluation (Table 1, Figures 8-10) quantifies protocols by
throughput and latency under load.  :class:`MetricsAccumulator` folds
:class:`~repro.core.protocol.SwapOutcome` records in one at a time as
the :class:`~repro.engine.engine.SwapEngine` finalizes them — O(1) per
swap — and reduces them to an :class:`EngineMetrics` snapshot on demand
in a single pass.  Everything here is a pure function of the outcomes,
so metrics are exactly as deterministic as the simulation that produced
them.

Two ordering subtleties keep snapshots deterministic and pinned:

* Floating-point sums are order-sensitive, so the accumulator assigns
  every fold a sort key (the engine passes the swap id) and computes
  order-sensitive aggregates in key order.  Folding the same outcomes
  in any order therefore yields the identical ``EngineMetrics``.
* Outcomes are folded by *reference*: the adversary roster re-stamps
  attack fields and re-audits final states after completion, so the
  snapshot pass reads whatever the outcomes say at snapshot time.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from ..core.protocol import SwapOutcome


def _nearest_rank(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty list."""
    if q == 0.0:
        return ordered[0]
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    if not values:
        raise ValueError("percentile of an empty list")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be within [0, 100], got {q}")
    return _nearest_rank(sorted(values), q)


@dataclass(frozen=True)
class EngineMetrics:
    """Aggregate result of one engine run (or one protocol's slice of it).

    Attributes:
        protocol: protocol name, or "mixed" for a multi-protocol batch.
        total: number of swaps that completed (reached a terminal state).
        committed / aborted / mixed / undecided: decision counts.
        atomicity_violations: swaps whose settled contracts mixed RD and
            RF — zero for the witness-based protocols by construction.
        commit_rate: committed / total (0.0 for an empty batch).
        mean_latency / p50_latency / p99_latency: per-swap wall-clock in
            simulation seconds, from driver start to terminal state.
        swaps_per_second: total / makespan — the engine-level throughput
            Table 1's min() rule bounds from above.
        makespan: last finish minus first start over the whole batch.
        first_started_at / last_finished_at: batch boundaries.
        max_in_flight: peak number of concurrently active swaps.
        total_fees: fees spent across every swap and chain.
        priced_out: swaps that abandoned at least one message because
            their fee budget lost the block-space auction.
        evictions: mempool evictions suffered across all swaps.
        fee_bumps: successful replace-by-fee rebroadcasts across swaps.
        injected_crashes: swaps that had a participant crash injected by
            the workload's ``crash_rate`` knob.
        fee_per_commit: mean fee spend of the *committed* swaps — the
            measured counterpart of the Section 6.2 cost model.
        attacked: swaps targeted by at least one adversary actor.
        attacks_launched: reorg attacks launched against this batch.
        reorgs_won / reorgs_lost: how those fork races resolved.
        attack_blocks: private blocks the attacker mined in them.
        attack_cost: USD the attacker spent (Section 6.3 cost model) —
            compare against the per-swap value at risk to read the
            economics of the measured violation rate.
    """

    protocol: str
    total: int
    committed: int
    aborted: int
    mixed: int
    undecided: int
    atomicity_violations: int
    commit_rate: float
    mean_latency: float
    p50_latency: float
    p99_latency: float
    swaps_per_second: float
    makespan: float
    first_started_at: float
    last_finished_at: float
    max_in_flight: int
    total_fees: int
    priced_out: int = 0
    evictions: int = 0
    fee_bumps: int = 0
    injected_crashes: int = 0
    fee_per_commit: float = 0.0
    attacked: int = 0
    attacks_launched: int = 0
    reorgs_won: int = 0
    reorgs_lost: int = 0
    attack_blocks: int = 0
    attack_cost: float = 0.0

    @property
    def commits_per_second(self) -> float:
        """Committed AC2Ts per simulated second over the makespan."""
        return self.committed / self.makespan if self.makespan > 0 else 0.0

    @property
    def priced_out_rate(self) -> float:
        """Fraction of swaps congestion priced out of block space."""
        return self.priced_out / self.total if self.total > 0 else 0.0


@dataclass(frozen=True)
class WindowedMetrics:
    """Streaming view over the swaps finishing in a trailing time window.

    The service-mode counterpart of :class:`EngineMetrics`: commit rate
    and latency percentiles over the swaps whose ``finished_at`` falls in
    ``(end - window, end]``, queryable mid-run at any point.
    """

    window: float
    end: float
    total: int
    committed: int
    commit_rate: float
    p50_latency: float
    p99_latency: float
    priced_out: int = 0

    @property
    def priced_out_rate(self) -> float:
        """Fraction of the window's swaps priced out of block space."""
        return self.priced_out / self.total if self.total > 0 else 0.0


class MetricsAccumulator:
    """Folds terminal :class:`SwapOutcome` records in one at a time.

    ``fold`` is O(1) (append plus counter updates); latency digests are
    exact (reservoir-free) and sorted on demand at snapshot time, where
    the sort is shared between p50 and p99.  ``snapshot`` reduces
    everything else in a single pass over the folded outcomes in key
    order, so it is fold-order independent.
    """

    __slots__ = (
        "_records",
        "_keys_sorted",
        "_last_key",
        "total",
        "committed",
        "total_fees",
        "in_flight",
        "max_in_flight",
        "_ordered_cache",
        "_finish_cache",
    )

    def __init__(self) -> None:
        self._records: list[tuple[object, SwapOutcome]] = []
        self._keys_sorted = True
        self._last_key: object | None = None
        #: Live streaming counters, O(1) to read mid-run.
        self.total = 0
        self.committed = 0
        self.total_fees = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self._ordered_cache: list[tuple[object, SwapOutcome]] | None = None
        self._finish_cache: tuple[list[float], list[SwapOutcome]] | None = None

    # -- folding -----------------------------------------------------------

    def launched(self) -> None:
        """Record one swap entering flight (peak concurrency tracking)."""
        self.in_flight += 1
        if self.in_flight > self.max_in_flight:
            self.max_in_flight = self.in_flight

    def fold(
        self,
        outcome: SwapOutcome,
        key: object | None = None,
        completes_flight: bool = False,
    ) -> None:
        """Fold one terminal outcome in; O(1).

        ``key`` fixes the outcome's position in the canonical snapshot
        order (the engine passes the swap id); it defaults to the fold
        sequence.  Don't mix explicit and default keys in one
        accumulator.  ``completes_flight`` balances a prior
        :meth:`launched` call.
        """
        if key is None:
            key = len(self._records)
        if self._keys_sorted and self._last_key is not None and key < self._last_key:  # type: ignore[operator]
            self._keys_sorted = False
        self._last_key = key
        self._records.append((key, outcome))
        self._ordered_cache = None
        self._finish_cache = None
        if completes_flight:
            self.in_flight -= 1
        self.total += 1
        if outcome.decision == "commit":
            self.committed += 1
        self.total_fees += outcome.fees_paid

    @property
    def commit_rate(self) -> float:
        """Live commit rate over everything folded so far."""
        return self.committed / self.total if self.total else 0.0

    # -- snapshots ---------------------------------------------------------

    def _ordered(self) -> list[tuple[object, SwapOutcome]]:
        if self._ordered_cache is None:
            if self._keys_sorted:
                self._ordered_cache = self._records
            else:
                self._ordered_cache = sorted(self._records, key=lambda kv: kv[0])  # type: ignore[arg-type]
        return self._ordered_cache

    def snapshot(self, protocol: str = "mixed") -> EngineMetrics:
        """Reduce everything folded so far into an :class:`EngineMetrics`
        (one pass in key order)."""
        peak = self.max_in_flight
        if not self._records:
            return EngineMetrics(
                protocol=protocol,
                total=0,
                committed=0,
                aborted=0,
                mixed=0,
                undecided=0,
                atomicity_violations=0,
                commit_rate=0.0,
                mean_latency=0.0,
                p50_latency=0.0,
                p99_latency=0.0,
                swaps_per_second=0.0,
                makespan=0.0,
                first_started_at=0.0,
                last_finished_at=0.0,
                max_in_flight=peak,
                total_fees=0,
            )
        committed = aborted = mixed = undecided = violations = 0
        priced_out = evictions = fee_bumps = injected = attacked = 0
        attacks_launched = reorgs_won = reorgs_lost = attack_blocks = 0
        total_fees = commit_fees = 0
        latency_sum = 0.0
        attack_cost = 0.0
        latencies: list[float] = []
        first_start = math.inf
        last_finish = -math.inf
        for _, o in self._ordered():
            decision = o.decision
            fees = o.fees_paid
            if decision == "commit":
                committed += 1
                commit_fees += fees
            elif decision == "abort":
                aborted += 1
            elif decision == "mixed":
                mixed += 1
            elif decision == "undecided":
                undecided += 1
            if not o.is_atomic:
                violations += 1
            latency = o.finished_at - o.started_at
            latencies.append(latency)
            latency_sum += latency
            if o.started_at < first_start:
                first_start = o.started_at
            if o.finished_at > last_finish:
                last_finish = o.finished_at
            total_fees += fees
            if o.priced_out:
                priced_out += 1
            evictions += o.evictions
            fee_bumps += o.fee_bumps
            if o.injected_crash is not None:
                injected += 1
            if o.attacked_by:
                attacked += 1
            attacks_launched += o.attacks_launched
            reorgs_won += o.reorgs_won
            reorgs_lost += o.reorgs_lost
            attack_blocks += o.attack_blocks
            attack_cost += o.attack_cost
        total = len(latencies)
        ordered_latencies = sorted(latencies)
        makespan = last_finish - first_start
        return EngineMetrics(
            protocol=protocol,
            total=total,
            committed=committed,
            aborted=aborted,
            mixed=mixed,
            undecided=undecided,
            atomicity_violations=violations,
            commit_rate=committed / total,
            mean_latency=latency_sum / total,
            p50_latency=_nearest_rank(ordered_latencies, 50.0),
            p99_latency=_nearest_rank(ordered_latencies, 99.0),
            swaps_per_second=(total / makespan) if makespan > 0 else 0.0,
            makespan=makespan,
            first_started_at=first_start,
            last_finished_at=last_finish,
            max_in_flight=peak,
            total_fees=total_fees,
            priced_out=priced_out,
            evictions=evictions,
            fee_bumps=fee_bumps,
            injected_crashes=injected,
            fee_per_commit=(commit_fees / committed) if committed else 0.0,
            attacked=attacked,
            attacks_launched=attacks_launched,
            reorgs_won=reorgs_won,
            reorgs_lost=reorgs_lost,
            attack_blocks=attack_blocks,
            attack_cost=attack_cost,
        )

    # -- windowed streaming views ------------------------------------------

    def _finish_sorted(self) -> tuple[list[float], list[SwapOutcome]]:
        if self._finish_cache is None:
            ordered = sorted(
                (o for _, o in self._records), key=lambda o: o.finished_at
            )
            self._finish_cache = ([o.finished_at for o in ordered], ordered)
        return self._finish_cache

    def windowed(self, window: float, end: float | None = None) -> WindowedMetrics:
        """Commit rate / latency percentiles over a trailing time window.

        Covers the swaps finishing in ``(end - window, end]``; ``end``
        defaults to the latest finish folded so far.  This is the
        streaming service-mode view: cheap to query repeatedly mid-run.
        """
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        finish_times, ordered = self._finish_sorted()
        if end is None:
            end = finish_times[-1] if finish_times else 0.0
        lo = bisect_right(finish_times, end - window)
        hi = bisect_right(finish_times, end)
        selected = ordered[lo:hi]
        total = len(selected)
        if total == 0:
            return WindowedMetrics(
                window=window,
                end=end,
                total=0,
                committed=0,
                commit_rate=0.0,
                p50_latency=0.0,
                p99_latency=0.0,
                priced_out=0,
            )
        committed = sum(1 for o in selected if o.decision == "commit")
        priced_out = sum(1 for o in selected if o.priced_out)
        latencies = sorted(o.finished_at - o.started_at for o in selected)
        return WindowedMetrics(
            window=window,
            end=end,
            total=total,
            committed=committed,
            commit_rate=committed / total,
            p50_latency=_nearest_rank(latencies, 50.0),
            p99_latency=_nearest_rank(latencies, 99.0),
            priced_out=priced_out,
        )
