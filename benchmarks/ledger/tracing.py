"""Driver-side tracing: spans around public calls, and cProfile bucketed by layer.

Nothing here touches the program: spans are recorded by the benchmark
around each call into it, kept in memory, and handed back when the
repetition ends; layer attribution reads a ``cProfile`` of the run
phase and buckets each function's own time on the ``src/repro/<layer>/``
prefix of its file.
"""

from __future__ import annotations

import contextlib
import os
import pstats
import time

#: The packages under ``src/repro/`` that get a row of their own; anything
#: else (``analysis``, ``cli``, the standard library, builtins) is ``other``.
LAYERS = (
    "crypto",
    "chain",
    "economy",
    "core",
    "sim",
    "engine",
    "obs",
    "service",
    "store",
    "sweeps",
    "workloads",
    "experiment",
    "adversary",
    "other",
)

#: Exact call counts read off the profile: metric name -> (file suffix, function).
COUNTED_CALLS = {
    "crypto.scalar_mult.calls": ("crypto/ecdsa.py", "scalar_mult"),
    "crypto.verify_digest.calls": ("crypto/ecdsa.py", "verify_digest"),
    "crypto.sign_digest.calls": ("crypto/ecdsa.py", "sign_digest"),
    "chain.outpoints_of.calls": ("chain/utxo.py", "outpoints_of"),
    "chain.canonical_encode.calls": ("chain/wire.py", "canonical_encode"),
    "chain.state_clone.calls": ("chain/state.py", "clone"),
    "chain.blocks_connected": ("chain/chain.py", "add_block"),
    "sim.events_processed": ("sim/simulator.py", "step"),
    "sim.timers_cancelled": ("sim/events.py", "cancel"),
    "store.appends": ("store/store.py", "append_point"),
}


class SpanRecorder:
    """In-memory spans: id, parent, name, start, end (``perf_counter`` seconds)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def record(self, name: str, start: float, end: float | None) -> dict:
        """Add a span under whichever span is open now."""
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": start,
            "end": end,
        }
        self.spans.append(record)
        return record

    @contextlib.contextmanager
    def span(self, name: str):
        record = self.record(name, time.perf_counter(), None)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def span_duration(record: dict) -> float:
    return record["end"] - record["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per span name: duration minus the part of the interval
    its direct children cover (overlapping children are not counted twice)."""
    children: dict[int, list[dict]] = {}
    for record in spans:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append(record)
    totals: dict[str, float] = {}
    for record in spans:
        covered = 0.0
        cursor = record["start"]
        for child in sorted(children.get(record["id"], []), key=lambda c: c["start"]):
            start = max(child["start"], cursor)
            end = min(child["end"], record["end"])
            if end > start:
                covered += end - start
                cursor = end
        own = span_duration(record) - covered
        totals[record["name"]] = totals.get(record["name"], 0.0) + own
    return totals


def layer_of(filename: str) -> str:
    path = filename.replace(os.sep, "/")
    _, found, tail = path.rpartition("/repro/")
    layer = tail.split("/", 1)[0] if found and "/" in tail else "other"
    return layer if layer in LAYERS else "other"


def profile_report(profile) -> tuple[dict[str, float], dict[str, int]]:
    """(own seconds per layer, exact call counts) from a finished profile."""
    layers = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(COUNTED_CALLS, 0)
    for (filename, _line, name), (_cc, ncalls, tottime, _ct, _callers) in pstats.Stats(
        profile
    ).stats.items():
        layers[layer_of(filename)] += tottime
        path = filename.replace(os.sep, "/")
        for metric, (suffix, function) in COUNTED_CALLS.items():
            if name == function and path.endswith("/repro/" + suffix):
                calls[metric] += ncalls
    return layers, calls


def source_lines(src_root: str) -> dict[str, int]:
    """Non-blank source lines per layer under ``src/repro`` (ROADMAP #2)."""
    counts = dict.fromkeys(LAYERS, 0)
    for directory, _dirs, files in os.walk(src_root):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            with open(path, encoding="utf-8") as handle:
                lines = sum(1 for line in handle if line.strip())
            counts[layer_of(path)] += lines
    return counts
