"""Command-line interface: every experiment is a spec; ``run`` runs it.

::

    python -m repro run --preset congestion --set traffic.num_swaps=60 --json out.json
    python -m repro run --spec my_experiment.json --set traffic.rate=12.0
    python -m repro run --preset security --trace out.jsonl
    python -m repro run --preset security --metrics out.prom --alert-stderr
    python -m repro run --list-presets [--json]
    python -m repro describe run traffic.crash
    python -m repro serve --preset serve-steady --request-log reqs.jsonl
    python -m repro serve --preset serve-flash-crowd --max-swaps 40 --checkpoint ck.json
    python -m repro serve --restore ck.json --json out.json
    python -m repro replay reqs.jsonl --request-log replayed.jsonl
    python -m repro trace out.jsonl
    python -m repro trace out.jsonl --swap 3
    python -m repro trace out.jsonl --series series.csv
    python -m repro alerts out.jsonl
    python -m repro sweep --preset figure10 --workers 4 --csv out.csv
    python -m repro sweep --preset security-smoke --workers 2 --store camp.db
    python -m repro sweep --spec my_sweep.json --workers 2 --json out.json
    python -m repro sweep --list-presets [--json]
    python -m repro query "commit_rate < 0.5 AND protocol='nolan'" --db camp.db
    python -m repro compare camp_old.db camp_new.db --threshold 0.05
    python -m repro store ingest --db camp.db result.json bench-timings.json
    python -m repro store list --db camp.db
    python -m repro store artifact --db camp.db --point 3 -o point3.json
    python -m repro paper --max-diameter 8 --value-at-risk 1000000

``run`` is the single-scenario entry point: it resolves a named preset
or a JSON spec file into an :class:`~repro.experiment.ExperimentSpec`,
applies ``--set`` dotted-path overrides, executes it through
:func:`~repro.experiment.run_experiment`, prints paper-style tables, and
can export the full :class:`~repro.experiment.ExperimentResult` artifact
as JSON.  ``sweep`` is its multi-point sibling: a named sweep campaign
(or a ``SweepSpec`` JSON file) expands into N experiment points,
executes them across ``--workers`` processes, prints the joined summary
table and, for a paper campaign, one row per claim it measures
(:mod:`repro.sweeps.scorecard`), and exports the campaign as CSV and/or
JSON.  ``serve`` swaps the fixed horizon for a live session
(:mod:`repro.service`): live traffic sources, a replayable request
log, and mid-flight checkpoints that ``--restore`` resumes with
byte-identical subsequent behavior;
``replay`` re-executes a recorded log, reproducing outcomes exactly.  The datastore commands sit on top of the campaign
database (:mod:`repro.store`): ``sweep --store`` archives every point
durably, ``query`` evaluates an indexed predicate over stored points,
``compare`` joins two campaigns and flags metric regressions, and
``store ingest|list|artifact`` import and inspect existing artifacts.
``paper`` prints the paper's analytic claims (Figure 10, the Section
6.3 depth rule, Table 1 with the Section 6.4 example) and needs no
simulation at all.

Each command imports only what it runs: the readers (``trace``,
``alerts``, ``query``, ``compare``, ``store``) load :mod:`repro.obs` or
:mod:`repro.store` and never the engine.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json as _json
import os
import sys
from typing import TYPE_CHECKING

from . import serde
from .errors import ReproError, ServiceError, SpecError, StoreError

if TYPE_CHECKING:  # annotations only: each command imports what it runs
    from .experiment.runner import ExperimentResult
    from .sweeps.result import SweepResult

# ---------------------------------------------------------------------------
# Result printing
# ---------------------------------------------------------------------------


def _print_throughput(result: ExperimentResult) -> None:
    print(
        f"{'protocol':>8} | {'swaps':>5} | {'commit':>6} | {'viol':>4} | "
        f"{'swaps/s':>8} | {'p50':>7} | {'p99':>7} | {'peak':>4}"
    )
    for row in result.throughput:
        peak = str(row.max_in_flight) if row.max_in_flight else "-"
        print(
            f"{row.protocol:>8} | {row.total:>5} | {row.commit_rate:>6.1%} | "
            f"{row.atomicity_violations:>4} | {row.swaps_per_second:>8.2f} | "
            f"{row.p50_latency:>6.1f}s | {row.p99_latency:>6.1f}s | "
            f"{peak:>4}"
        )


def _print_fee_market(result: ExperimentResult) -> None:
    from .workloads.scenarios import LOW_FEE_BUDGET

    spec, env = result.spec, result.env

    # Fee-class breakdown: who did congestion price out?
    low_cap = (
        spec.traffic.low_budget.cap
        if spec.traffic.low_budget is not None
        else LOW_FEE_BUDGET.cap
    )
    print(
        f"{'class':>6} | {'swaps':>5} | {'commit':>6} | {'priced out':>10} | "
        f"{'fee/commit':>10}"
    )
    for label, wanted in (("low", True), ("high", False)):
        slice_ = [
            o
            for o in result.outcomes
            if (o.fee_cap is not None and o.fee_cap <= low_cap) == wanted
        ]
        if not slice_:
            continue
        committed = [o for o in slice_ if o.decision == "commit"]
        fee_per = (
            sum(o.fees_paid for o in committed) / len(committed) if committed else 0.0
        )
        print(
            f"{label:>6} | {len(slice_):>5} | "
            f"{len(committed) / len(slice_):>6.1%} | "
            f"{sum(1 for o in slice_ if o.priced_out):>10} | {fee_per:>10.1f}"
        )

    print(
        f"\n{'protocol':>8} | {'swaps':>5} | {'commit':>6} | {'priced':>6} | "
        f"{'evict':>5} | {'bumps':>5} | {'fee/commit':>10} | {'model':>7} | premium"
    )
    for row in result.congestion_cost or ():
        print(
            f"{row.protocol:>8} | {row.swaps:>5} | "
            f"{row.committed / row.swaps if row.swaps else 0.0:>6.1%} | "
            f"{row.priced_out:>6} | {row.evictions:>5} | {row.fee_bumps:>5} | "
            f"{row.fee_per_commit:>10.1f} | {row.model_fee_per_commit:>7.1f} | "
            f"{row.congestion_premium:.2f}x"
        )

    print(
        f"\n{'chain':>10} | {'mined':>5} | {'evicted':>7} | {'replaced':>8} | "
        f"{'rej fee':>7} | {'miner fees':>10}"
    )
    for chain_id in sorted(env.mempools):
        pool = env.mempools[chain_id]
        miner = env.miners[chain_id]
        print(
            f"{chain_id:>10} | {miner.blocks_mined:>5} | "
            f"{pool.evicted:>7} | {pool.replaced:>8} | "
            f"{pool.rejected_fee:>7} | {miner.fees_earned:>10}"
        )


def _print_adversary(result: ExperimentResult) -> None:
    report = result.engine_result.adversary or {}
    reorg = report.get("reorg")
    if reorg is not None:
        print(
            f"adversary: reorg attacker on {reorg['chain_id']!r} "
            f"(budget {reorg['budget_blocks']} blocks, required depth "
            f"{reorg['required_depth']}): {reorg['attacks_launched']} launched, "
            f"{reorg['attacks_forgone']} forgone, {reorg['reorgs_won']} won, "
            f"{reorg['reorgs_lost']} lost, ${reorg['cost_spent']:,.0f} spent"
        )
    for kind in ("censor", "byzantine", "eclipse"):
        actor = report.get(kind)
        if actor is None:
            continue
        detail = {
            "censor": lambda a: f"{a['messages_censored']} messages censored on {a['chain_id']!r}",
            "byzantine": lambda a: f"{a['swaps_corrupted']} swaps corrupted ({a['behavior']})",
            "eclipse": lambda a: f"{a['swaps_eclipsed']} swaps eclipsed at phase {a['phase']!r}",
        }[kind](actor)
        print(f"adversary: {kind}: {detail}")
    reorgs = {
        chain_id: count
        for chain_id, count in sorted(result.engine_result.chain_reorgs.items())
        if count
    }
    if reorgs:
        print(f"reorgs observed: {reorgs}")


def print_result(result: ExperimentResult) -> None:
    """Paper-style tables for one experiment run."""
    metrics = result.metrics
    print(f"experiment {result.spec.name!r} (seed {result.spec.seed})")
    _print_throughput(result)
    if result.spec.fee_market.enabled:
        print()
        _print_fee_market(result)
    if result.spec.adversary.any_enabled:
        print()
        _print_adversary(result)
    crashes = (
        f", {metrics.injected_crashes} injected crashes"
        if metrics.injected_crashes
        else ""
    )
    fee_market = (
        f"priced out {metrics.priced_out} ({metrics.priced_out_rate:.1%}), "
        f"{metrics.evictions} evictions, {metrics.fee_bumps} fee bumps, "
        if result.spec.fee_market.enabled
        else ""
    )
    print(
        f"\n{metrics.total} swaps over {metrics.makespan:.1f} simulated seconds "
        f"(peak {metrics.max_in_flight} in flight); commit rate "
        f"{metrics.commit_rate:.1%}, {fee_market}"
        f"{metrics.atomicity_violations} atomicity violations{crashes}"
    )


def _emit(path: str, text: str, wrote=None) -> None:
    """Write one artifact: ``-`` is stdout, anything else is replaced
    atomically (and announced as ``wrote PATH`` on the ``wrote`` stream);
    a failure says ``cannot write PATH``."""
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        serde.write_text(path, text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    if wrote is not None:
        print(f"wrote {path}", file=wrote)


def _narration(*paths: str | None):
    """Where the human-readable tables go: stderr as soon as one
    artifact streams to stdout, so that stream stays parseable."""
    return sys.stderr if "-" in paths else sys.stdout


def _exit_status(runs) -> int:
    """The one exit rule of ``run``, ``serve``, ``replay`` and ``sweep``
    over ``(adversary spec, violations)`` pairs: exit 1 iff a run with no
    armed adversary violated atomicity (under an armed adversary
    violations are the *measurement* — the security matrix exists to
    count them — not a failure)."""
    return int(any(violations and not adversary.any_enabled for adversary, violations in runs))


def _finish(result, json_path: str | None, adversary) -> int:
    """Export a run / session result and apply :func:`_exit_status`."""
    if json_path:
        _emit(json_path, result.to_json() + "\n")
        if json_path != "-":
            print(f"\nwrote {json_path}")
    return _exit_status([(adversary, result.metrics.atomicity_violations)])


def _diagnose(text: str) -> None:
    """The single writer every diagnostic goes through.

    Progress lines, cProfile tables, event-queue stats, and live alert
    lines can all target stderr in the same run; writing each block via
    one buffered ``write`` + ``flush`` means producers interleave only
    at block boundaries, never mid-line (the ``--profile`` +
    ``--progress`` race this fixes).
    """
    sys.stderr.write(text if text.endswith("\n") else text + "\n")
    sys.stderr.flush()


def _profiled(destination: str | None, fn):
    """Run ``fn`` under cProfile when ``--profile`` was passed.

    ``destination`` is None (profiling off), ``"-"`` (print the top 25
    cumulative-time entries), or a path — print the table *and* dump the
    raw pstats data there for ``snakeviz``/``pstats`` digging.  The table
    goes to stderr so ``--json -`` artifact streams stay parseable.
    """
    if destination is None:
        return fn()
    import cProfile
    import io
    import pstats

    previous = sys.getprofile()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
        stream = io.StringIO()
        try:
            pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(25)
            block = stream.getvalue()
            if destination != "-":
                profiler.dump_stats(destination)
                block += f"wrote profile data to {destination}\n"
        finally:
            # Each stats call disables the profiler again, and with it any
            # outer hook (the reachability drive's): put that one back.
            sys.setprofile(previous)
        _diagnose(block)
    return result


# ---------------------------------------------------------------------------
# repro run: the universal entry point
# ---------------------------------------------------------------------------


def _print_catalog(catalog: dict, as_json: bool, kind=None) -> None:
    """A preset catalog (name -> (factory, description)), human table or
    machine-readable JSON.

    ``kind`` (optional, a ``name -> str`` callable) tags each entry
    with what running it produces — ``run``'s catalog merges experiment
    and service presets and needs the distinction; ``sweep``'s doesn't.
    """
    if as_json:
        rows = []
        for name, (_, description) in catalog.items():
            row = {"name": name, "description": description}
            if kind is not None:
                row["kind"] = kind(name)
            rows.append(row)
        print(_json.dumps(rows, indent=2))
        return
    for name, (_, description) in catalog.items():
        tag = f"  [{kind(name)}]" if kind is not None else ""
        print(f"{name:>18}  {description}{tag}")


def _spec_kinds() -> dict:
    """``command -> (spec class, preset catalog, preset loader)`` for the
    three commands that run a spec (``describe`` shows the same three)."""
    from .experiment import ExperimentSpec, preset_spec
    from .experiment.presets import PRESETS
    from .service import ServiceSpec, service_preset_spec
    from .service.presets import SERVICE_PRESETS
    from .sweeps import SweepSpec, sweep_spec
    from .sweeps.presets import SWEEPS

    return {
        "run": (ExperimentSpec, PRESETS, preset_spec),
        "serve": (ServiceSpec, SERVICE_PRESETS, service_preset_spec),
        "sweep": (SweepSpec, SWEEPS, sweep_spec),
    }


def _resolve_spec(args: argparse.Namespace, command: str):
    """The ``--spec | --preset`` + ``--set`` resolver of ``run``,
    ``serve`` and ``sweep``: a spec file loads as ``command``'s spec
    class, a preset is looked up in ``command``'s catalog.  A name only
    another command's catalog holds is refused with that command.  The
    same dotted-path overrides work one level up: ``sweep --set
    base.traffic.num_swaps=12`` edits the base experiment, ``--set
    derive_seeds=false`` the sweep itself."""
    from .experiment import apply_overrides, parse_set_args

    kinds = _spec_kinds()
    spec_cls, catalog, preset = kinds[command]
    if args.spec and args.preset:
        raise SpecError("pass either --preset or --spec, not both")
    if args.spec:
        spec = spec_cls.from_json(serde.read_text(args.spec, SpecError, "spec"))
    elif args.preset:
        owners = [other for other, (_, names, _) in kinds.items() if args.preset in names]
        if owners and command not in owners:
            raise SpecError(
                f"preset {args.preset!r} is run by `repro {owners[0]} --preset {args.preset}`"
            )
        spec = preset(args.preset)
    else:
        raise SpecError(f"pass --preset or --spec; presets: {', '.join(catalog)}")
    return apply_overrides(spec, parse_set_args(args.set or []))


def _print_helper_report() -> None:
    """What each side of the world's helper process did (``--profile``)."""
    from .crypto.keys import verifier_report

    report = verifier_report()
    parent, helper = report["parent"], report["helper"]
    _diagnose(
        f"signature helper: this process derived {parent['seeds_derived']} seeds, "
        f"verified {parent['records_verified']} records, built {parent['key_tables']} "
        f"key tables; the helper derived {helper['seeds_derived']} seeds, verified "
        f"{helper['records_verified']} records, skipped {helper['records_skipped']}, "
        f"built {helper['key_tables']} key tables, {helper['cpu_s']:.2f} s CPU"
    )


def _print_queue_stats(result: ExperimentResult) -> None:
    """The event-loop's own counters, alongside the cProfile table."""
    stats = result.env.simulator.queue_stats()
    peak = (
        f", peak {stats['max_pending']}" if "max_pending" in stats else ""
    )
    _diagnose(
        f"event queue: {stats['events_processed']} events processed, "
        f"{stats['cancelled']} cancelled, {stats['pool_reuses']} pool "
        f"reuses, {stats['compactions']} compactions, "
        f"{stats['pending']} still pending{peak}"
    )


def _write_trace(result: ExperimentResult, path: str) -> None:
    collector = result.trace_collector
    _emit(path, collector.to_jsonl())
    dropped = f" ({collector.dropped} dropped)" if collector.dropped else ""
    destination = "stdout" if path == "-" else path
    print(
        f"wrote {len(collector)} trace events{dropped} to {destination}",
        file=_narration(path),
    )


def _write_metrics(result: ExperimentResult, path: str) -> None:
    registry = result.metrics_registry
    # Format by extension: .prom -> Prometheus text exposition, anything
    # else (and stdout) -> the strict-serde JSON snapshot.
    text = (
        registry.to_prometheus()
        if path.endswith(".prom")
        else registry.to_json() + "\n"
    )
    _emit(path, text)
    if path != "-":
        print(f"wrote metrics snapshot to {path}")


def _print_alerts(result: ExperimentResult) -> None:
    alerts = result.alerts or []
    if not alerts:
        print("\nmonitor: no alerts")
        return
    print(f"\nmonitor: {len(alerts)} alert(s)")
    for alert in alerts:
        print(f"  {alert.render()}")


def _cmd_run(args: argparse.Namespace) -> int:
    from .experiment import apply_overrides
    from .experiment.runner import run_experiment

    if args.list_presets:
        kinds = _spec_kinds()
        presets = kinds["run"][1]
        _print_catalog(
            {**presets, **kinds["serve"][1]},
            args.json is not None,
            kind=lambda name: "experiment" if name in presets else "service",
        )
        return 0
    spec = _resolve_spec(args, "run")
    if args.trace:
        # --trace is the switch: it arms the recorder even when the
        # preset/spec left obs off, without editing the spec file.
        spec = apply_overrides(spec, {"obs.enabled": True})
    if args.metrics:
        # --metrics arms the registry and the invariant monitor the
        # same way; --alert-stderr additionally streams each firing
        # to stderr as it happens.
        overrides: dict = {
            "obs.metrics.enabled": True,
            "obs.monitor.enabled": True,
        }
        if args.alert_stderr:
            overrides["obs.monitor.stderr"] = True
        spec = apply_overrides(spec, overrides)
    result = _profiled(args.profile, lambda: run_experiment(spec))
    if args.profile is not None:
        _print_queue_stats(result)
        _print_helper_report()
    with contextlib.redirect_stdout(_narration(args.json, args.trace, args.metrics)):
        print_result(result)
        if args.metrics:
            _print_alerts(result)
    if args.trace:
        _write_trace(result, args.trace)
    if args.metrics:
        _write_metrics(result, args.metrics)
    return _finish(result, args.json, result.spec.adversary)


# ---------------------------------------------------------------------------
# repro serve / repro replay: the engine as a long-running service
# ---------------------------------------------------------------------------


def _print_service_result(result) -> None:
    metrics = result.metrics
    spec = result.spec
    sources = (
        ", ".join(f"{s.name} ({s.kind})" for s in spec.sources) or "no sources"
    )
    print(f"service {spec.name!r}: accepted {result.accepted} swaps from {sources}")
    windows = result.windows
    if windows:
        shown = windows[-12:]
        if len(windows) > len(shown):
            print(f"\n... {len(windows) - len(shown)} earlier window samples elided")
        print(
            f"\n{'t':>7} | {'total':>5} | {'commit':>6} | {'p50':>7} | "
            f"{'p99':>7} | {'priced':>6} | {'infl':>4}"
        )
        for w in shown:
            print(
                f"{w['t']:>6.1f}s | {w['total']:>5} | {w['commit_rate']:>6.1%} | "
                f"{w['p50_latency']:>6.1f}s | {w['p99_latency']:>6.1f}s | "
                f"{w['priced_out_rate']:>6.1%} | {w['in_flight']:>4}"
            )
    if result.stall is not None:
        print(
            f"\ndrain stalled: reason {result.stall['reason']!r} after "
            f"{result.stall['events']} events"
        )
    print(
        f"\n{metrics.total} swaps over {metrics.makespan:.1f} simulated seconds "
        f"(peak {metrics.max_in_flight} in flight); commit rate "
        f"{metrics.commit_rate:.1%}, {metrics.atomicity_violations} "
        f"atomicity violations"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import SwapService, check_serve_limits

    if args.checkpoint_every is not None and args.checkpoint is None:
        raise SpecError("--checkpoint-every needs --checkpoint PATH")
    limits = {
        "duration": args.duration,
        "max_swaps": args.max_swaps,
        "checkpoint_every": args.checkpoint_every,
    }
    check_serve_limits(limits, name=lambda key: "--" + key.replace("_", "-"))
    if args.restore:
        if args.preset or args.spec or args.set:
            raise SpecError(
                "--restore resumes a checkpointed session; pass either "
                "--restore or --preset/--spec/--set, not both"
            )
        open_session = functools.partial(SwapService.restore, args.restore)
    else:
        spec = _resolve_spec(args, "serve")
        # Bake --duration into the spec itself so the request log's
        # spec echo is faithful: `repro replay LOG` then runs out the
        # same horizon with no extra flags.  --max-swaps and
        # --checkpoint-every stay per-invocation (stop-now and
        # cadence controls) — baking them would make a checkpointed
        # session's spec echo diverge from the uninterrupted one it
        # must byte-match after restore.
        if args.duration is not None:
            spec = dataclasses.replace(spec, duration=args.duration)
        open_session = functools.partial(SwapService, spec)

    def session():
        service = open_session()
        with contextlib.ExitStack() as stack:
            stack.callback(service.close)  # a refused call closes the session too
            if args.store:
                from .store import CampaignStore

                store = stack.enter_context(CampaignStore(args.store))
                service.attach_store(store)
            # A restored session's spec already carries whatever was
            # baked at serve time; CLI flags still override per-call.
            service.serve(checkpoint_path=args.checkpoint, **limits)
            every = (
                args.checkpoint_every
                if args.checkpoint_every is not None
                else service.spec.checkpoint_every
            )
            if args.checkpoint is not None and every is None:
                # No cadence anywhere: --checkpoint means "one checkpoint
                # at the moment serving stops" (the hand-off primitive).
                service.checkpoint(args.checkpoint)
            service.drain()
            return service, service.result()

    service, result = _profiled(args.profile, session)
    if args.profile is not None:
        _print_helper_report()
    _report_service(result, service.request_log(), args)
    if args.checkpoint is not None:
        print(f"wrote checkpoint {args.checkpoint}", file=_narration(args.json))
    return _finish(result, args.json, result.spec.world.adversary)


def _report_service(result, log_text: str, args: argparse.Namespace) -> None:
    """Write a finished session's request log and print its tables
    (``serve`` and ``replay``)."""
    if args.request_log:
        _emit(args.request_log, log_text)
    with contextlib.redirect_stdout(_narration(args.json)):
        _print_service_result(result)
        if args.request_log:
            print(f"wrote request log {args.request_log}")


def _cmd_replay(args: argparse.Namespace) -> int:
    from .service import SwapService, dump_request_log, load_request_log

    text = serde.read_text(args.log, ServiceError, "request log")
    spec, records = load_request_log(text)
    result = SwapService.replay(spec, records)
    # The replayed session accepts exactly the loaded records, so its
    # log IS dump(load(original)) — written out for a byte-level `cmp`
    # against the original.
    _report_service(result, dump_request_log(spec, records), args)
    return _finish(result, args.json, result.spec.world.adversary)


# ---------------------------------------------------------------------------
# repro trace: the flight-recorder timeline explorer
# ---------------------------------------------------------------------------


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import load_trace, render_swap, series_csv, summarize

    if args.swap is not None and args.series is not None:
        raise SpecError("pass either --swap or --series, not both")
    collector = load_trace(args.file)
    if args.swap is not None:
        print(render_swap(collector, args.swap))
    elif args.series is not None:
        _emit(args.series, series_csv(collector.events()), wrote=sys.stdout)
    else:
        print(summarize(collector))
    return 0


def _cmd_alerts(args: argparse.Namespace) -> int:
    from .obs import load_trace, render_alerts

    sys.stdout.write(render_alerts(load_trace(args.file)))
    return 0


# ---------------------------------------------------------------------------
# repro sweep: the multi-point campaign entry point
# ---------------------------------------------------------------------------


def print_sweep_result(result: SweepResult) -> None:
    """The joined campaign table, one row per executed point."""
    axes = [axis.name for axis in result.spec.axes]
    header = " | ".join(
        [f"{'point':>5}"]
        + [f"{name:>10}" for name in axes]
        + [f"{'swaps':>5}", f"{'commit':>6}", f"{'viol':>4}", f"{'swaps/s':>8}",
           f"{'p50':>7}", f"{'priced':>6}"]
    )
    print(header)
    for row in result.rows():
        cells = [f"{row['index']:>5}"]
        cells += [f"{str(row.get(name, '')):>10}" for name in axes]
        cells += [
            f"{row['total']:>5}",
            f"{row['commit_rate']:>6.1%}",
            f"{row['atomicity_violations']:>4}",
            f"{row['swaps_per_second']:>8.2f}",
            f"{row['p50_latency']:>6.1f}s",
            f"{row['priced_out']:>6}",
        ]
        print(" | ".join(cells))
    for skip in result.skipped:
        coords = ",".join(f"{k}={v}" for k, v in skip.coords.items())
        print(f"skipped [{skip.index:03d}] {coords}: {skip.reason}")
    total = sum(row["total"] for row in result.rows())
    print(
        f"\n{len(result.points)} points ({total} swaps), "
        f"{len(result.skipped)} skipped; "
        f"{result.atomicity_violations} atomicity violations"
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    import time as _time

    from .adversary import AdversarySpec
    from .sweeps import SweepRunner
    from .sweeps.scorecard import render as render_claims, scorecard

    if args.list_presets:
        _print_catalog(_spec_kinds()["sweep"][1], args.json is not None)
        return 0
    spec = _resolve_spec(args, "sweep")
    started = _time.monotonic()
    worker_walls: dict[int, list[float]] = {}

    def progress(point, beat: dict) -> None:
        m = point.metrics
        completed, total = beat["completed"], beat["total"]
        line = (
            f"  [{completed:03d}/{total:03d}] {point.name}: "
            f"commit {m['commit_rate']:.1%}, "
            f"{m['atomicity_violations']} violations"
        )
        if beat["wall"] is not None:
            worker_walls.setdefault(beat["pid"], []).append(beat["wall"])
            executed = sum(len(w) for w in worker_walls.values())
            elapsed = _time.monotonic() - started
            remaining = total - completed
            if remaining and executed and elapsed > 0:
                rate = executed / elapsed
                line += (
                    f" | {beat['wall']:.2f}s, running {beat['running']}, "
                    f"ETA {remaining / rate:.1f}s"
                )
            else:
                line += f" | {beat['wall']:.2f}s"
        else:
            line += " | resumed"
        _diagnose(line)

    narrate = _narration(args.csv, args.json)
    runner = SweepRunner(
        spec,
        workers=args.workers,
        on_progress=progress if args.progress else None,
        store=args.store,
    )
    print(
        f"sweep {spec.name!r}: {spec.num_points()} points, "
        f"{args.workers} worker(s)",
        file=narrate,
    )
    result = _profiled(args.profile, runner.run)
    for pid, walls in sorted(worker_walls.items()):  # filled by progress lines only
        busy = sum(walls)
        rate = len(walls) / busy if busy > 0 else 0.0
        _diagnose(f"  worker {pid}: {len(walls)} point(s) in {busy:.2f}s ({rate:.2f} pts/s)")
    if args.store:
        print(
            f"resumed {len(runner.resumed)} point(s) from {args.store}",
            file=narrate,
        )
    claims = scorecard(result)
    with contextlib.redirect_stdout(narrate):
        print_sweep_result(result)
        if claims:  # the paper claims this campaign measures
            print("\n" + render_claims(claims), end="")
    exports = ((args.csv, result.to_csv), (args.json, lambda: result.to_json() + "\n"))
    for path, render in exports:
        if path:
            _emit(path, render(), wrote=narrate)
    return _exit_status(
        (serde.load(AdversarySpec, point.spec["adversary"]), point.metrics["atomicity_violations"])
        for point in result.points
    )


# ---------------------------------------------------------------------------
# repro describe: the spec schema, generated from the field declarations
# ---------------------------------------------------------------------------


def _cmd_describe(args: argparse.Namespace) -> int:
    print(serde.describe(_spec_kinds()[args.spec][0], args.path))
    return 0


# ---------------------------------------------------------------------------
# repro paper: the analytic claims (no simulation)
# ---------------------------------------------------------------------------


def _cmd_paper(args: argparse.Namespace) -> int:
    """Figure 10's latency curves, the Section 6.3 depth per candidate
    witness, and Table 1 with the Section 6.4 example.  Every block is
    computed before any is printed, so a refused ``--value-at-risk``
    prints nothing but its one line."""
    from .analysis.latency import figure10_series
    from .analysis.security import PAPER_WITNESS_CANDIDATES
    from .analysis.throughput import TABLE1_ROWS, paper_example

    if args.max_diameter < 2:
        raise SpecError(
            f"--max-diameter: Figure 10 starts at diameter 2, got {args.max_diameter}"
        )
    va = args.value_at_risk
    try:
        depths = [
            (choice.chain_id, choice.depth_for(va), choice.confirmation_latency_hours(va))
            for choice in PAPER_WITNESS_CANDIDATES
        ]
    except ValueError as exc:
        raise SpecError(f"--value-at-risk: {exc}") from None
    example = paper_example()
    lines = [f"{'Diam(D)':>8} | {'Herlihy (Δ)':>12} | {'AC3WN (Δ)':>10} | speedup"]
    lines += [
        f"{point.diameter:>8} | {point.herlihy_deltas:>12.0f} | "
        f"{point.ac3wn_deltas:>10.0f} | {point.speedup:.1f}x"
        for point in figure10_series(args.max_diameter)
    ]
    lines.append(f"value at risk: ${va:,.0f}")
    lines += [
        f"  {chain_id:>14}: d = {depth:>6}  (~{hours:.1f} h of burial)"
        for chain_id, depth, hours in depths
    ]
    lines += [f"  {name:>14}: {tps:>3} tps" for name, _, tps in TABLE1_ROWS]
    lines.append(
        f"\nETH+LTC witnessed by Bitcoin: {example.tps} tps "
        f"(bottleneck: {example.bottleneck})"
    )
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# Campaign datastore subcommands
# ---------------------------------------------------------------------------


def _query_columns(rows: list[dict]) -> list[str]:
    """Identity columns first, then every other key in first-seen order."""
    columns = ["campaign", "campaign_id", "index"]
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return columns


def _query_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _query_csv(rows: list[dict]) -> str:
    columns = _query_columns(rows)
    lines = [",".join(columns)]
    for row in rows:
        lines.append(serde.csv_line(_query_cell(row.get(column)) for column in columns))
    return "\n".join(lines) + "\n"


def _query_table(rows: list[dict]) -> str:
    columns = _query_columns(rows)
    grid = [columns] + [
        [_query_cell(row.get(column)) for column in columns] for row in rows
    ]
    widths = [max(len(line[i]) for line in grid) for i in range(len(columns))]
    return (
        "\n".join(
            " | ".join(cell.rjust(width) for cell, width in zip(line, widths))
            for line in grid
        )
        + "\n"
    )


def _existing_store(path: str):
    """A reader's campaign database; opening a missing path would create one."""
    from .store import CampaignStore

    if not os.path.exists(path):
        raise StoreError(f"no campaign database at {path!r}")
    return CampaignStore(path)


def _cmd_query(args: argparse.Namespace) -> int:
    """Evaluate one predicate expression over a campaign database."""
    with _existing_store(args.db) as store:
        rows = store.query(args.expr, campaign=args.campaign)
    if args.format == "json":
        text = _json.dumps(rows, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        text = _query_csv(rows)
    else:
        text = _query_table(rows)
    _emit(args.output, text, wrote=sys.stdout)
    # A query that matches nothing is still a successful query.
    print(f"{len(rows)} matching point(s)", file=sys.stderr)
    return 0


def _print_compare_report(report) -> None:
    a, b = report.campaign_a, report.campaign_b
    print(
        f"A: campaign {a.campaign_id} {a.name!r} ({a.kind}, {a.points} points)"
    )
    print(
        f"B: campaign {b.campaign_id} {b.name!r} ({b.kind}, {b.points} points)"
    )
    print(
        f"joined {report.joined_points} point pair(s) by coordinates; "
        f"threshold {report.threshold:.0%} relative change"
    )
    for label, deltas in (
        ("REGRESSION", report.regressions),
        ("improvement", report.improvements),
        ("changed", report.changes),
    ):
        for d in deltas:
            coords = ",".join(f"{k}={v}" for k, v in d.coords.items())
            rel = (
                "new" if d.rel_change == float("inf") else f"{d.rel_change:+.1%}"
            )
            print(
                f"  {label:>11} [{coords}] {d.metric}: "
                f"{d.a:g} -> {d.b:g} ({rel})"
            )
    for coords in report.only_in_a:
        print(f"  only in A: {coords}")
    for coords in report.only_in_b:
        print(f"  only in B: {coords}")
    print(
        f"{len(report.regressions)} regression(s), "
        f"{len(report.improvements)} improvement(s), "
        f"{len(report.changes)} neutral change(s)"
    )


def _cmd_compare(args: argparse.Namespace) -> int:
    """Join two campaigns by coordinates and flag metric regressions."""
    from .store import compare_campaigns

    with contextlib.ExitStack() as stack:
        store_a = stack.enter_context(_existing_store(args.db_a))
        if args.db_b is not None:
            store_b = stack.enter_context(_existing_store(args.db_b))
            campaign_a = store_a.resolve_campaign(args.a)
            campaign_b = store_b.resolve_campaign(args.b)
        else:
            # One database: B is the (latest) candidate campaign and A
            # defaults to the previous same-name campaign — the perf
            # trajectory "did this run regress vs the last one" shape.
            store_b = store_a
            campaign_b = store_b.resolve_campaign(args.b)
            if args.a is not None:
                campaign_a = store_a.resolve_campaign(args.a)
            else:
                campaign_a = (
                    store_a.previous_campaign(campaign_b) or campaign_b
                )
        report = compare_campaigns(
            store_a, campaign_a, store_b, campaign_b, threshold=args.threshold
        )
    narrate = _narration(args.csv, args.json)
    with contextlib.redirect_stdout(narrate):
        _print_compare_report(report)
    exports = (
        (args.csv, report.to_csv),
        (args.json, lambda: _json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"),
    )
    for path, render in exports:
        if path:
            _emit(path, render(), wrote=narrate)
    return 1 if report.regressions else 0


def _cmd_store(args: argparse.Namespace) -> int:
    """Import and inspect campaign databases (ingest / list / artifact)."""
    from .store import ingest_paths

    if args.action == "ingest":
        reports = ingest_paths(args.db, args.paths, campaign=args.campaign)
        for path, report in zip(args.paths, reports):
            print(
                f"ingested {path} -> campaign {report.campaign_id} "
                f"{report.campaign!r} ({report.kind}, "
                f"{report.points} point(s))"
            )
        return 0
    with _existing_store(args.db) as store:
        if args.action == "list":
            infos = store.campaigns()
            if args.json:
                print(
                    _json.dumps(
                        [info.to_dict() for info in infos],
                        indent=2,
                        sort_keys=True,
                    )
                )
            else:
                print(
                    f"{args.db}: schema v{store.schema_version}, "
                    f"{len(infos)} campaign(s)"
                )
                for info in infos:
                    print(
                        f"  [{info.campaign_id:03d}] {info.name!r} "
                        f"({info.kind}) {info.points} point(s), "
                        f"{info.skipped} skipped, {info.created_at}"
                    )
        else:  # artifact
            info = store.resolve_campaign(args.campaign)
            text = store.get_artifact(info.campaign_id, args.point)
            # Byte-exact on stdout too: no trailing newline is
            # appended, so `repro store artifact > f` == the blob.
            _emit(args.output, text, wrote=sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _source_options(parser, preset: str, spec: str, override: str) -> None:
    """``--preset`` / ``--spec`` / ``--set``, the three ways to name what
    :func:`_resolve_spec` runs; the words are each command's own."""
    parser.add_argument("--preset", default=None, help=f"named {preset}")
    parser.add_argument("--spec", default=None, help=f"path to {spec} JSON file")
    parser.add_argument(
        "--set", action="append", metavar="KEY=VALUE", help=f"dotted-path {override}"
    )


def _json_option(parser, artifact: str, catalog: bool = False) -> None:
    """``--json [PATH]``: the full artifact, to stdout when given no value."""
    listing = "; with --list-presets: emit the catalog as JSON" if catalog else ""
    parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help=f"write the full {artifact} JSON here ('-' or no value: stdout{listing})",
    )


def _profile_option(parser, help: str) -> None:
    parser.add_argument("--profile", nargs="?", const="-", default=None, metavar="FILE", help=help)


def _list_presets_option(parser, catalog: str) -> None:
    parser.add_argument(
        "--list-presets", action="store_true", help=f"list the {catalog} catalog and exit"
    )


def _db_option(parser, verb: str) -> None:
    parser.add_argument(
        "--db", default="repro.db", metavar="DB",
        help=f"campaign database to {verb} (default: %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Atomic Commitment Across Blockchains' (VLDB 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run any experiment from a preset or a JSON spec"
    )
    _source_options(
        run, "preset (see --list-presets)", "an ExperimentSpec",
        "spec override, e.g. --set traffic.rate=12.0 (repeatable)",
    )
    _json_option(run, "ExperimentResult", catalog=True)
    _profile_option(
        run,
        "profile the run under cProfile and print the top 25 "
        "cumulative-time entries and what the helper process did to "
        "stderr; with FILE, also dump the raw pstats data there",
    )
    run.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="arm the flight recorder (obs.enabled=true) and write the "
        "trace as JSONL here ('-' for stdout); explore it with "
        "'repro trace PATH'",
    )
    run.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="arm the metrics registry and the invariant monitor "
        "(obs.metrics.enabled / obs.monitor.enabled) and write the final "
        "registry snapshot here: *.prom gets Prometheus text exposition, "
        "anything else the strict JSON snapshot ('-' for stdout)",
    )
    run.add_argument(
        "--alert-stderr",
        action="store_true",
        help="with --metrics: stream each monitor alert to stderr the "
        "moment it fires",
    )
    _list_presets_option(run, "preset")
    run.set_defaults(func=_cmd_run)

    serve = sub.add_parser(
        "serve",
        help="run the engine as a long-running, checkpointable swap service",
    )
    _source_options(
        serve, "service preset (see run --list-presets)", "a ServiceSpec",
        "spec override, e.g. --set world.seed=7 (repeatable)",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serving horizon in sim-seconds from session start "
        "(overrides the spec)",
    )
    serve.add_argument(
        "--max-swaps",
        type=int,
        default=None,
        metavar="N",
        help="stop accepting after N swaps without advancing to the "
        "horizon (the checkpoint-then-hand-off primitive)",
    )
    serve.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="write a checkpoint here: every --checkpoint-every accepted "
        "swaps, or once when serving stops if no cadence is set",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="with --checkpoint: checkpoint cadence in accepted swaps "
        "(overrides the spec)",
    )
    serve.add_argument(
        "--restore",
        default=None,
        metavar="CKPT",
        help="resume a checkpointed session instead of starting fresh "
        "(mutually exclusive with --preset/--spec/--set)",
    )
    serve.add_argument(
        "--request-log",
        default=None,
        metavar="PATH",
        help="write the replayable request log here (re-drive it with "
        "'repro replay PATH')",
    )
    serve.add_argument(
        "--store",
        default=None,
        metavar="DB",
        help="file every checkpoint epoch into this campaign database",
    )
    _json_option(serve, "ServiceResult")
    _profile_option(
        serve,
        "profile the session (open, serve, drain) under cProfile and print "
        "the top 25 cumulative-time entries and what the helper process "
        "did to stderr; with FILE, also dump the raw pstats data there",
    )
    serve.set_defaults(func=_cmd_serve)

    replay = sub.add_parser(
        "replay",
        help="re-execute a recorded request log, reproducing outcomes exactly",
    )
    replay.add_argument("log", help="request log written by serve --request-log")
    replay.add_argument(
        "--request-log",
        default=None,
        metavar="PATH",
        help="re-dump the replayed request log here (byte-compare it "
        "against the original)",
    )
    _json_option(replay, "ServiceResult")
    replay.set_defaults(func=_cmd_replay)

    trace = sub.add_parser(
        "trace",
        help="explore a flight-recorder trace written by run --trace",
    )
    trace.add_argument("file", help="trace JSONL file written by run --trace")
    trace.add_argument(
        "--swap",
        type=int,
        default=None,
        metavar="SWAPID",
        help="print the phase-span timeline of one swap (not with --series)",
    )
    trace.add_argument(
        "--series",
        default=None,
        metavar="PATH",
        help="write the sampled time-series gauges as CSV ('-' for stdout; "
        "not with --swap)",
    )
    trace.set_defaults(func=_cmd_trace)

    alerts = sub.add_parser(
        "alerts",
        help="list the invariant-monitor alerts recorded in a trace",
    )
    alerts.add_argument("file", help="trace JSONL file written by run --trace")
    alerts.set_defaults(func=_cmd_alerts)

    sweep = sub.add_parser(
        "sweep",
        help="run a multi-point sweep campaign across worker processes",
    )
    _source_options(
        sweep, "sweep (see sweep --list-presets)", "a SweepSpec",
        "sweep override, e.g. --set base.traffic.num_swaps=12",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = in-process; N = multiprocessing pool)",
    )
    sweep.add_argument(
        "--store",
        default=None,
        metavar="DB",
        help="campaign database (SQLite): points whose stored spec echo "
        "still matches are merged from it instead of re-executed, every "
        "fresh point is appended for the next resume, and metrics are "
        "indexed for 'repro query' and 'repro compare'",
    )
    sweep.add_argument(
        "--csv", default=None, metavar="PATH",
        help="write the summary table as CSV ('-' for stdout)",
    )
    _json_option(sweep, "SweepResult", catalog=True)
    sweep.add_argument(
        "--progress",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="print per-point progress lines to stderr as points finish",
    )
    _profile_option(
        sweep,
        "profile the whole sweep under cProfile (top 25 cumulative "
        "entries to stderr; with FILE, also dump raw pstats data)",
    )
    _list_presets_option(sweep, "sweep")
    sweep.set_defaults(func=_cmd_sweep)

    describe = sub.add_parser(
        "describe",
        help="print the spec schema of run / serve / sweep: type, default, "
        "rule and doc of every field",
    )
    describe.add_argument(
        "spec", choices=("run", "serve", "sweep"), help="the command whose spec to show"
    )
    describe.add_argument(
        "path",
        nargs="?",
        default="",
        metavar="DOTTED.PATH",
        help="show only the field or subtree here, e.g. traffic.crash",
    )
    describe.set_defaults(func=_cmd_describe)

    paper = sub.add_parser(
        "paper",
        help="print Figure 10's latency curves, the Section 6.3 depth rule, "
        "and Table 1 + the Section 6.4 example",
    )
    paper.add_argument("--max-diameter", type=int, default=14)
    paper.add_argument("--value-at-risk", type=float, default=1_000_000.0)
    paper.set_defaults(func=_cmd_paper)

    query = sub.add_parser(
        "query",
        help="evaluate a predicate over a campaign database",
        description="Evaluate a predicate expression over the points of a "
        "campaign database, e.g. \"commit_rate < 0.5 AND protocol='nolan'\". "
        "Comparisons hit the indexed metric columns; AND/OR/NOT and "
        "parentheses compose them.",
    )
    query.add_argument(
        "expr",
        help="predicate expression, e.g. \"violation_rate > 0 AND "
        "protocol='nolan'\"",
    )
    _db_option(query, "query")
    query.add_argument(
        "--campaign",
        default=None,
        metavar="ID|NAME",
        help="pin one campaign (id or name, latest wins); default: all",
    )
    query.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        help="output shape (default: %(default)s)",
    )
    query.add_argument(
        "--output", "-o", default="-", metavar="PATH",
        help="write the rendered rows here ('-' for stdout)",
    )
    query.set_defaults(func=_cmd_query)

    compare = sub.add_parser(
        "compare",
        help="join two campaigns and flag metric regressions",
        description="Join the points of campaign A (baseline) and campaign B "
        "(candidate) by their expansion coordinates and diff every shared "
        "numeric metric.  Exits 1 when any directed metric regressed beyond "
        "the threshold.  With one database and no selectors, compares the "
        "latest campaign against the previous campaign of the same name.",
    )
    compare.add_argument("db_a", help="baseline campaign database")
    compare.add_argument(
        "db_b",
        nargs="?",
        default=None,
        help="candidate campaign database (default: compare within db_a)",
    )
    compare.add_argument(
        "--a", default=None, metavar="ID|NAME",
        help="baseline campaign selector (default: latest, or the previous "
        "same-name campaign when comparing within one database)",
    )
    compare.add_argument(
        "--b", default=None, metavar="ID|NAME",
        help="candidate campaign selector (default: latest)",
    )
    compare.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="relative change a directed metric must exceed to count as a "
        "regression/improvement (default: %(default)s)",
    )
    compare.add_argument(
        "--csv", default=None, metavar="PATH",
        help="write every metric delta as CSV ('-' for stdout)",
    )
    compare.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the full comparison report as JSON ('-' for stdout)",
    )
    compare.set_defaults(func=_cmd_compare)

    store = sub.add_parser(
        "store",
        help="import and inspect campaign databases",
    )
    store_sub = store.add_subparsers(dest="action", required=True)
    ingest = store_sub.add_parser(
        "ingest",
        help="import result JSONs or bench timing JSONs into a campaign database",
    )
    ingest.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="ExperimentResult JSON or bench timing JSON",
    )
    _db_option(ingest, "ingest into")
    ingest.add_argument(
        "--campaign", default=None, metavar="NAME",
        help="campaign name (default: each path's basename)",
    )
    store_list = store_sub.add_parser(
        "list", help="list the campaigns a database holds"
    )
    _db_option(store_list, "list")
    store_list.add_argument(
        "--json", action="store_true", help="emit the campaign list as JSON"
    )
    artifact = store_sub.add_parser(
        "artifact",
        help="recover one point's byte-exact ExperimentResult JSON",
    )
    _db_option(artifact, "read")
    artifact.add_argument(
        "--campaign", default=None, metavar="ID|NAME",
        help="campaign (id or name, latest wins); default: latest",
    )
    artifact.add_argument(
        "--point", type=int, required=True, metavar="INDEX",
        help="point index within the campaign",
    )
    artifact.add_argument(
        "--output", "-o", default="-", metavar="PATH",
        help="write the artifact bytes here ('-' for stdout)",
    )
    store.set_defaults(func=_cmd_store)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Exit 0 on success, 1 when the command ran and found violations or
    regressions, 2 — after one ``repro <command>: <message>`` line — when
    it could not run: a bad spec, file, database or path."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # pragma: no cover - e.g. `repro trace | head`
        # The downstream reader closed the pipe; not an error.  Detach
        # stdout so the interpreter's shutdown flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ReproError, OSError) as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
