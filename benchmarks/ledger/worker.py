"""One repetition of one workload, in a process of its own.

``run.py`` starts this file as a fresh interpreter per repetition (every
cache cold, as a user's run is), writes the job — the serialized spec
from ``workloads.generate`` — to its stdin, and reads one JSON report
from the last line of its stdout.  The program is driven through its
public functions only; the phase split is

* ``import``: loading the program (the interpreter's own start excluded),
* ``setup``: everything before the first swap can run,
* ``run``: everything up to and including the serialized result.

Every repetition returns the spans recorded around each public call; a
traced one additionally profiles the run phase with ``cProfile``.
"""

from __future__ import annotations

import cProfile
import contextlib
import hashlib
import json
import os
import resource
import sys
import tempfile
import time

_STARTED = time.perf_counter()

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(LEDGER_DIR)), "src")
for _path in (SRC_DIR, LEDGER_DIR):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.adversary import build_roster  # noqa: E402
from repro.analysis.throughput import engine_throughput_report  # noqa: E402
from repro.core.evidence import (  # noqa: E402
    evidence_cache_info,
    reset_evidence_cache_info,
)
from repro.crypto import keys, signatures  # noqa: E402
from repro.engine import PROTOCOLS, SwapEngine, percentile  # noqa: E402
from repro.experiment import (  # noqa: E402
    ExperimentResult,
    ExperimentSpec,
    build_environment,
    build_observability,
    traffic_generator,
)
from repro.service import ServiceSpec, SwapService  # noqa: E402
from repro.store import CampaignStore  # noqa: E402
from repro.sweeps import SweepSpec, run_sweep  # noqa: E402

from tracing import SpanRecorder, profile_report, span_duration  # noqa: E402

_IMPORTED = time.perf_counter()

WITNESS_PROTOCOLS = ("ac3tw", "ac3wn")

#: count metric -> the verdict memo (a key of the ``caches`` report) it reads.
HIT_RATES = {
    "crypto.ecdsa_memo.hit_rate": "ecdsa_verify",
    "crypto.multisig_memo.hit_rate": "multisig_verify",
    "core.evidence_memo.hit_rate": "evidence_memo",
}


def _with_hit_rate(counters: dict) -> dict:
    total = counters["hits"] + counters["misses"]
    return {**counters, "hit_rate": counters["hits"] / total if total else 0.0}


def _caches_report() -> dict:
    """The three verdict memos' counters, in ``run_experiment``'s report shape."""
    return {
        "ecdsa_verify": _with_hit_rate(keys.verify_cache_info()),
        "multisig_verify": _with_hit_rate(signatures.verify_cache_info()),
        "evidence_memo": _with_hit_rate(evidence_cache_info()),
    }


def _terminal(outcome: dict) -> bool:
    """Reached a decision.  A swap the fee market priced out stays
    ``undecided``: it is the sweep's measurement, not a failure, but it did
    next to no work either (all first-sight signature checks belong to
    decided swaps), so it does not count toward ``swaps_per_s`` — which
    keeps that metric the same across seeds that price out different shares."""
    return outcome["decision"] != "undecided"


def _failures(outcomes: list[dict], fault_free: bool) -> list[str]:
    """Why each failed swap failed, by the ISSUE's three rules."""
    found = []
    for outcome in outcomes:
        swap = f"swap {outcome['swap_id']} ({outcome['protocol']})"
        if not _terminal(outcome) and not outcome["priced_out"]:
            found.append(f"{swap}: not terminal after the run")
        elif outcome["protocol"] in WITNESS_PROTOCOLS and not outcome["atomic"]:
            found.append(f"{swap}: witness-protocol atomicity violation (Lemma 5.3)")
        elif fault_free and outcome["decision"] != "commit":
            found.append(f"{swap}: {outcome['decision']} on a fault-free workload")
    return found


def _peak_rss_kb() -> int:
    """High-water RSS of this process and of the pool workers it waited for.

    ``ru_maxrss`` of a freshly exec'ed process starts at its *parent's*
    RSS (Linux carries the old image's high-water mark across exec), so
    the benchmark driver's own size would leak into the metric; ``VmHWM``
    belongs to this process's memory image alone.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
    except OSError:
        pass
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _sim_metrics(metrics: dict) -> dict:
    """The simulated results a host-side change must leave bit-identical."""
    return {
        "sim.p50_latency_s": metrics["p50_latency"],
        "sim.p99_latency_s": metrics["p99_latency"],
        "sim.commit_rate": metrics["commit_rate"],
    }


def drive_experiment(spec: ExperimentSpec, rec: SpanRecorder, run_phase):
    """``run_experiment`` unrolled so each public call gets a span and the
    setup/run boundary can be timed; ``test_ledger.py`` pins it to the
    program's own entry point.  Returns ``(result, json_text)``."""
    if spec.fee_shocks:
        raise ValueError("the mirrored finite-run driver does not schedule fee shocks")
    with rec.span("setup"):
        spec.validate()
        keys.clear_verify_cache()
        signatures.clear_verify_cache()
        reset_evidence_cache_info()
        with rec.span("traffic"):
            traffic = traffic_generator(spec.traffic.generator)(spec)
        with rec.span("build_environment"):
            env = build_environment(spec, traffic)
        with rec.span("wiring"):
            engine = SwapEngine(
                env,
                default_protocol="ac3wn" if spec.protocol == "mixed" else spec.protocol,
                witness_chain_id=spec.chains.witness,
                eager=spec.engine.eager,
                jitter_span=spec.engine.jitter,
            )
            collector, registry, monitor, sampler = build_observability(
                spec, env, engine
            )
            build_roster(spec, env, engine)
        with rec.span("submit"):
            offset = env.simulator.now
            if spec.protocol == "mixed":
                for index, item in enumerate(traffic):
                    engine.submit(
                        item.graph,
                        protocol=PROTOCOLS[index % len(PROTOCOLS)],
                        at=offset + item.at,
                        fee_budget=item.fee_budget,
                        crash=item.crash,
                    )
            else:
                engine.submit_many(traffic, offset=offset)
    with rec.span("run"), run_phase:
        with rec.span("engine_run"):
            raw = engine.run(max_events=spec.engine.max_events)
        if sampler is not None:
            sampler.stop()
        with rec.span("result"):
            result = ExperimentResult(
                spec=spec,
                metrics=raw.metrics,
                by_protocol=raw.by_protocol,
                outcomes=raw.outcomes,
                throughput=engine_throughput_report(raw),
                congestion_cost=None,
                engine_result=raw,
                env=env,
                caches=_caches_report(),
                trace_collector=collector if spec.obs.enabled else None,
                metrics_registry=registry,
                alerts=monitor.alerts if monitor is not None else None,
            )
        with rec.span("to_json"):
            text = result.to_json(indent=None)
    return result, text


def run_engine(job: dict, rec: SpanRecorder, run_phase, workdir: str) -> dict:
    spec = ExperimentSpec.from_json(job["spec"])
    result, text = drive_experiment(spec, rec, run_phase)
    artifact = json.loads(text)
    return {
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "attempted": spec.traffic.num_swaps,
        "outcomes": artifact["outcomes"],
        "sim": _sim_metrics(artifact["metrics"]),
        "counts": {"sim.max_pending": result.env.simulator.queue_stats()["max_pending"]},
        "caches": artifact["reports"]["caches"],
    }


def _finish_session(service: SwapService, rec: SpanRecorder) -> str:
    with rec.span("drain"):
        service.drain()
    with rec.span("result"):
        result = service.result()
    with rec.span("to_json"):
        return result.to_json(indent=None)


def _service_report(service: SwapService, text: str) -> dict:
    artifact = json.loads(text)
    collector = service.collector
    return {
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "attempted": artifact["accepted"],
        "outcomes": artifact["outcomes"],
        "sim": _sim_metrics(artifact["metrics"]),
        "counts": {
            "sim.max_pending": service.env.simulator.queue_stats()["max_pending"],
            "obs.trace_events": len(collector) if collector is not None else 0,
        },
        "caches": _caches_report(),
    }


def run_service(job: dict, rec: SpanRecorder, run_phase, workdir: str) -> dict:
    """``service_obs`` and ``large_world``: init | serve, checkpoint, drain."""
    spec = ServiceSpec.from_json(job["spec"])
    with rec.span("setup"), rec.span("service_init"):
        service = SwapService(spec)
    with rec.span("run"), run_phase:
        with rec.span("serve"):
            service.serve()
        with rec.span("checkpoint"):
            service.checkpoint(os.path.join(workdir, "session.ckpt"))
        text = _finish_session(service, rec)
    return _service_report(service, text)


def run_restore(job: dict, rec: SpanRecorder, run_phase, workdir: str) -> dict:
    """``service_restore``: init, serve, checkpoint | restore, drain.

    Between the two phases the uninterrupted session is drained, untimed,
    so the restored session's artifact can be checked against it byte for
    byte; it is dropped before the restore so peak RSS is one world's.
    """
    spec = ServiceSpec.from_json(job["spec"])
    path = os.path.join(workdir, "session.ckpt")
    with rec.span("setup"):
        with rec.span("service_init"):
            original = SwapService(spec)
        with rec.span("serve"):
            original.serve()
        with rec.span("checkpoint"):
            original.checkpoint(path)
    original.drain()
    reference = original.result().to_json(indent=None)
    del original
    with rec.span("run"), run_phase:
        with rec.span("restore"):
            restored = SwapService.restore(path)
        with rec.span("serve"):
            restored.serve()
        text = _finish_session(restored, rec)
    report = _service_report(restored, text)
    report["checks"] = {"restore.digest_equals_uninterrupted": text == reference}
    return report


def run_sweep_campaign(job: dict, rec: SpanRecorder, run_phase, workdir: str) -> dict:
    """``sweep_congestion``: expand, open store | run_sweep, read back.

    A traced repetition runs the points in this process (``workers=1``),
    because a profile cannot follow forked workers; the joined artifact
    is byte-identical either way, which the digest check confirms.
    """
    spec = SweepSpec.from_json(job["spec"])
    workers = 1 if job["traced"] else job["workers"]
    beats: list[float] = []
    with rec.span("setup"):
        with rec.span("expand"):
            expansion = spec.expand()
        with rec.span("store_open"):
            store = CampaignStore(os.path.join(workdir, "campaign.db"))
    with contextlib.closing(store):
        with rec.span("run"), run_phase:
            with rec.span("run_sweep") as sweep_span:
                result = run_sweep(
                    spec,
                    workers=workers,
                    store=store,
                    on_progress=lambda _point, beat: beats.append(beat["wall"]),
                )
            with rec.span("to_json"):
                text = result.to_json(indent=None)
            with rec.span("store_readback"):
                campaign = store.resolve_campaign(spec.name).campaign_id
                stored = [
                    store.get_artifact(campaign, point.index) for point in result.points
                ]
    sweep_wall = span_duration(sweep_span)
    outcomes, latencies = [], []
    committed = attempted = 0
    caches: dict[str, dict] = {}
    for point in result.points:
        attempted += point.spec["traffic"]["num_swaps"]
        committed += point.metrics["committed"]
        for outcome in point.outcomes:
            outcomes.append({**outcome, "swap_id": f"{point.index}/{outcome['swap_id']}"})
            if outcome["decision"] == "commit":
                latencies.append(outcome["latency"])
        for name, counters in point.artifact["reports"]["caches"].items():
            total = caches.setdefault(name, {"hits": 0, "misses": 0})
            total["hits"] += counters["hits"]
            total["misses"] += counters["misses"]
    return {
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "attempted": attempted,
        "outcomes": outcomes,
        "sim": {
            "sim.p50_latency_s": percentile(latencies, 50.0),
            "sim.p99_latency_s": percentile(latencies, 99.0),
            "sim.commit_rate": committed / attempted,
        },
        "counts": {},
        "caches": {name: _with_hit_rate(total) for name, total in caches.items()},
        "points": len(expansion.points),
        "parallel_efficiency": sum(beats) / (workers * sweep_wall),
        "checks": {
            "store.artifacts_equal_memory": stored
            == [
                json.dumps(point.artifact, sort_keys=True) for point in result.points
            ],
        },
    }


RUNNERS = {
    "engine_mixed": run_engine,
    "service_obs": run_service,
    "large_world": run_service,
    "service_restore": run_restore,
    "sweep_congestion": run_sweep_campaign,
}


def run_job(job: dict) -> dict:
    """Execute one repetition and return its report (see module docstring)."""
    rec = SpanRecorder()
    rec.record("import", _STARTED, _IMPORTED)
    profile = cProfile.Profile() if job["traced"] else None
    run_phase = profile if profile is not None else contextlib.nullcontext()
    with tempfile.TemporaryDirectory(dir=job["workdir"]) as workdir:
        report = RUNNERS[job["workload"]](job, rec, run_phase, workdir)
    outcomes = report.pop("outcomes")
    failures = _failures(outcomes, job["fault_free"])
    missing = report["attempted"] - len(outcomes)
    failed = len(failures) + missing
    if missing:
        failures.append(f"{missing} attempted swap(s) have no outcome")
    phases = {
        span["name"]: span_duration(span) for span in rec.spans if span["parent"] is None
    }
    report["sim"]["sim.failed_share"] = failed / report["attempted"]
    for metric, cache in HIT_RATES.items():
        report["counts"][metric] = report["caches"][cache]["hit_rate"]
    report.update(
        workload=job["workload"],
        import_s=phases["import"],
        setup_s=phases["setup"],
        run_s=phases["run"],
        terminal=sum(map(_terminal, outcomes)),
        failed=failed,
        failures=failures[:20],
        rss_kb=_peak_rss_kb(),
        spans=rec.spans,
    )
    if profile is not None:
        layers, calls = profile_report(profile)
        report["layers"] = layers
        report["counts"].update(calls)
    return report


def main() -> int:
    job = json.loads(sys.stdin.read())
    report = run_job(job)
    sys.stdout.write("\n" + json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
