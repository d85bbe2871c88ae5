"""Tests for the campaign datastore (repro.store).

Pins the subsystem's contracts: a versioned schema that rejects
newer-than-me databases, transactional appends that survive concurrent
multi-process writers, byte-exact artifact recovery, the predicate
grammar compiling to indexed SQL, store-backed sweep resume that is
byte-identical to a fresh run, coordinate-joined campaign
comparison with directed regressions, and the importers.
"""

import dataclasses
import json
import multiprocessing
import sqlite3

import pytest

from repro.errors import QueryError, StoreError
from repro.experiment import ChainsSpec, ExperimentSpec, TrafficSpec
from repro.store import (
    SCHEMA_VERSION,
    CampaignStore,
    compare_campaigns,
    compile_query,
    ingest_path,
    parse_query,
)
from repro.sweeps import SweepAxis, SweepRunner, SweepSpec
from repro.sweeps.runner import run_point_payload


def small_base(**kwargs) -> ExperimentSpec:
    defaults = dict(
        name="small",
        seed=11,
        protocol="ac3wn",
        chains=ChainsSpec(ids=("x", "y")),
        traffic=TrafficSpec(num_swaps=2, rate=6.0),
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


def tiny_sweep(**kwargs) -> SweepSpec:
    defaults = dict(
        name="tiny",
        base=small_base(),
        axes=(
            SweepAxis(name="rate", path="traffic.rate", values=(4.0, 8.0)),
            SweepAxis(name="protocol", path="protocol", values=("ac3wn", "herlihy")),
        ),
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def synthetic_row(index: int, **metrics) -> dict:
    """A flat summary row without running a simulation."""
    row = {
        "index": index,
        "name": f"p{index}",
        "protocol": "ac3wn",
        "total": 10,
        "committed": 10,
        "commit_rate": 1.0,
        "atomicity_violations": 0,
        "p99_latency": 5.0,
    }
    row.update(metrics)
    return row


def fill_campaign(store, name="camp", rows=None, kind="sweep") -> int:
    campaign_id = store.create_campaign(name, kind=kind)
    for row in rows or ():
        store.append_point(
            campaign_id,
            row["index"],
            name=row.get("name", ""),
            coords={"protocol": row.get("protocol", "ac3wn")},
            row=row,
        )
    return campaign_id


class TestSchema:
    def test_fresh_database_is_current_version(self, tmp_path):
        with CampaignStore(str(tmp_path / "c.db")) as store:
            assert store.schema_version == SCHEMA_VERSION
            assert SCHEMA_VERSION >= 1

    def test_reopen_keeps_version_and_data(self, tmp_path):
        path = str(tmp_path / "c.db")
        with CampaignStore(path) as store:
            fill_campaign(store, rows=[synthetic_row(0)])
        with CampaignStore(path) as store:
            assert store.schema_version == SCHEMA_VERSION
            assert len(store.campaigns()) == 1

    def test_newer_database_rejected(self, tmp_path):
        path = str(tmp_path / "c.db")
        CampaignStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "INSERT INTO schema_migrations (version, description, applied_at)"
            " VALUES (?, 'from the future', datetime('now'))",
            (SCHEMA_VERSION + 1,),
        )
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match="newer"):
            CampaignStore(path)

    def test_non_database_file_rejected(self, tmp_path):
        path = tmp_path / "not.db"
        path.write_text("this is not sqlite at all, not even close!")
        with pytest.raises(StoreError):
            CampaignStore(str(path))

    def test_wal_and_foreign_keys_active(self, tmp_path):
        with CampaignStore(str(tmp_path / "c.db")) as store:
            mode = store.conn.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "wal"
            assert store.conn.execute("PRAGMA foreign_keys").fetchone()[0] == 1

    def test_closed_store_refuses_work(self, tmp_path):
        store = CampaignStore(str(tmp_path / "c.db"))
        store.close()
        with pytest.raises(StoreError, match="closed"):
            store.campaigns()


class TestAppendAndRecover:
    def test_artifact_round_trip_is_byte_exact(self, tmp_path):
        text = json.dumps({"spec": {"seed": 3}, "metrics": {"total": 1}})
        with CampaignStore(str(tmp_path / "c.db")) as store:
            cid = store.create_campaign("camp")
            store.append_point(cid, 0, row=synthetic_row(0), artifact=text)
            assert store.get_artifact(cid, 0) == text

    def test_missing_point_and_artifact_raise(self, tmp_path):
        with CampaignStore(str(tmp_path / "c.db")) as store:
            cid = fill_campaign(store, rows=[synthetic_row(0)])
            with pytest.raises(StoreError, match="no point 9"):
                store.get_artifact(cid, 9)
            with pytest.raises(StoreError, match="no artifact"):
                store.get_artifact(cid, 0)

    def test_corrupted_blob_detected(self, tmp_path):
        with CampaignStore(str(tmp_path / "c.db")) as store:
            cid = store.create_campaign("camp")
            store.append_point(cid, 0, row=synthetic_row(0), artifact="{}")
            store.conn.execute("UPDATE artifacts SET body = ?", (b"{ }",))
            with pytest.raises(StoreError, match="sha256"):
                store.get_artifact(cid, 0)

    def test_reappend_replaces_the_point(self, tmp_path):
        with CampaignStore(str(tmp_path / "c.db")) as store:
            cid = store.create_campaign("camp")
            store.append_point(cid, 0, row=synthetic_row(0), artifact="v1")
            store.append_point(
                cid, 0, row=synthetic_row(0, committed=9), artifact="v2"
            )
            assert store.get_artifact(cid, 0) == "v2"
            assert store.rows(cid)[0]["committed"] == 9

    def test_violation_rate_derived_at_append(self, tmp_path):
        with CampaignStore(str(tmp_path / "c.db")) as store:
            cid = fill_campaign(
                store,
                rows=[
                    synthetic_row(0, atomicity_violations=2, total=8),
                    synthetic_row(1, atomicity_violations=0, total=0),
                ],
            )
            rows = store.rows(cid)
            assert rows[0]["violation_rate"] == 0.25
            assert rows[1]["violation_rate"] == 0.0

    def test_skipped_points_separate_from_ok(self, tmp_path):
        with CampaignStore(str(tmp_path / "c.db")) as store:
            cid = fill_campaign(store, rows=[synthetic_row(0)])
            store.append_point(
                cid, 1, status="skipped", coords={"d": 4}, skip_reason="invalid"
            )
            assert len(store.points(cid)) == 1
            skipped = store.points(cid, status="skipped")
            assert skipped[0]["skip_reason"] == "invalid"
            info = store.campaigns()[0]
            assert (info.points, info.skipped) == (1, 1)


def _append_worker(args):
    path, campaign_id, indices = args
    with CampaignStore(path) as store:
        for index in indices:
            store.append_point(
                campaign_id,
                index,
                row=synthetic_row(index),
                artifact=f"artifact-{index}",
            )
    return len(indices)


class TestConcurrentAppend:
    def test_parallel_writers_lose_no_points(self, tmp_path):
        """Forked processes appending to one campaign under WAL: every
        point lands, none torn."""
        path = str(tmp_path / "c.db")
        with CampaignStore(path) as store:
            cid = store.create_campaign("concurrent")
        workers = 4
        per_worker = 8
        batches = [
            (path, cid, list(range(w * per_worker, (w + 1) * per_worker)))
            for w in range(workers)
        ]
        context = multiprocessing.get_context("fork")
        with context.Pool(processes=workers) as pool:
            counts = pool.map(_append_worker, batches)
        assert counts == [per_worker] * workers
        with CampaignStore(path) as store:
            points = store.points(cid)
            assert [p["index"] for p in points] == list(
                range(workers * per_worker)
            )
            for index in (0, 13, workers * per_worker - 1):
                assert store.get_artifact(cid, index) == f"artifact-{index}"

    def test_parallel_writers_on_same_index_serialize(self, tmp_path):
        """Colliding appends at one (campaign, index) never corrupt: one
        writer wins wholesale."""
        path = str(tmp_path / "c.db")
        with CampaignStore(path) as store:
            cid = store.create_campaign("collide")
        batches = [(path, cid, [0, 1, 2])] * 3
        context = multiprocessing.get_context("fork")
        with context.Pool(processes=3) as pool:
            pool.map(_append_worker, batches)
        with CampaignStore(path) as store:
            points = store.points(cid)
            assert [p["index"] for p in points] == [0, 1, 2]
            for p in points:
                assert store.get_artifact(cid, p["index"]) == (
                    f"artifact-{p['index']}"
                )


class TestQueryGrammar:
    def test_parse_shapes(self):
        node = parse_query("a > 1 AND (b = 'x' OR NOT c <= 2.5)")
        assert node is not None

    @pytest.mark.parametrize(
        "expr",
        [
            "commit_rate <",
            "AND commit_rate > 1",
            "commit_rate > 'a' > 2",
            "(commit_rate > 1",
            "commit_rate ~ 1",
            "",
            "'lit' > 2",
        ],
    )
    def test_malformed_expressions_raise_query_error(self, expr):
        with pytest.raises(QueryError):
            compile_query(expr)

    def test_query_error_is_store_error(self):
        assert issubclass(QueryError, StoreError)

    def test_compile_produces_parameterized_sql(self):
        sql, params, identifiers = compile_query(
            "commit_rate < 0.5 AND protocol='nolan'"
        )
        assert "EXISTS" in sql and "?" in sql
        assert "commit_rate" in params and 0.5 in params
        assert "nolan" in params
        assert identifiers == {"commit_rate", "protocol"}

    def test_evaluation_against_rows(self, tmp_path):
        with CampaignStore(str(tmp_path / "c.db")) as store:
            fill_campaign(
                store,
                rows=[
                    synthetic_row(0, commit_rate=0.4, protocol="nolan"),
                    synthetic_row(1, commit_rate=0.9, protocol="nolan"),
                    synthetic_row(2, commit_rate=0.3, protocol="ac3wn"),
                ],
            )
            hits = store.query("commit_rate < 0.5 AND protocol='nolan'")
            assert [h["index"] for h in hits] == [0]
            hits = store.query("commit_rate < 0.5 OR commit_rate >= 0.9")
            assert [h["index"] for h in hits] == [0, 1, 2]
            hits = store.query("NOT protocol = 'nolan'")
            assert [h["index"] for h in hits] == [2]
            assert store.query("commit_rate > 1.0") == []

    def test_identity_columns_and_strings(self, tmp_path):
        with CampaignStore(str(tmp_path / "c.db")) as store:
            fill_campaign(store, name="alpha", rows=[synthetic_row(0)])
            fill_campaign(store, name="beta", rows=[synthetic_row(0)])
            hits = store.query("campaign = 'beta'")
            assert len(hits) == 1 and hits[0]["campaign"] == "beta"
            assert store.query("index >= 0", campaign="alpha")
            # != on a metric requires the key to exist and differ.
            assert store.query("protocol != 'nolan'")
            assert store.query("protocol <> 'ac3wn'") == []

    def test_skipped_points_hidden_unless_status_mentioned(self, tmp_path):
        with CampaignStore(str(tmp_path / "c.db")) as store:
            cid = fill_campaign(store, rows=[synthetic_row(0)])
            store.append_point(
                cid, 1, status="skipped", row={"index": 1}, skip_reason="x"
            )
            assert [h["index"] for h in store.query("index >= 0")] == [0]
            hits = store.query("status = 'skipped'")
            assert [h["index"] for h in hits] == [1]

    def test_unknown_campaign_selector_raises(self, tmp_path):
        with CampaignStore(str(tmp_path / "c.db")) as store:
            fill_campaign(store, rows=[synthetic_row(0)])
            with pytest.raises(StoreError, match="no campaign"):
                store.query("index >= 0", campaign="nope")


class TestStoreBackedResume:
    def test_fresh_store_run_matches_plain_run(self, tmp_path):
        spec = tiny_sweep()
        fresh = SweepRunner(spec).run()
        runner = SweepRunner(spec, store=str(tmp_path / "c.db"))
        stored = runner.run()
        assert runner.resumed == []
        assert stored.to_json() == fresh.to_json()

    def test_resume_from_store_is_byte_identical(self, tmp_path):
        path = str(tmp_path / "c.db")
        spec = tiny_sweep()
        fresh = SweepRunner(spec).run()
        SweepRunner(spec, store=path).run()
        rerun = SweepRunner(spec, store=path)
        merged = rerun.run()
        assert rerun.resumed == [0, 1, 2, 3]
        assert merged.to_json() == fresh.to_json()
        assert merged.to_csv() == fresh.to_csv()
        # Still one campaign: resume reuses the sweep's identity.
        with CampaignStore(path) as store:
            assert len(store.campaigns()) == 1

    def test_store_artifacts_equal_resume_dir_artifacts(self, tmp_path):
        """Stored bytes are exactly the worker payloads — what the
        removed ``resume_dir`` backend wrote to ``point-NNNNN.json``."""
        spec = tiny_sweep()
        SweepRunner(spec, store=str(tmp_path / "c.db")).run()
        with CampaignStore(str(tmp_path / "c.db")) as store:
            cid = store.campaigns()[0].campaign_id
            for point in spec.expand().points:
                payload = (point.index, point.spec.to_json(indent=None))
                _, worker_bytes, _ = run_point_payload(payload)
                assert store.get_artifact(cid, point.index) == worker_bytes

    def test_stale_spec_invalidates_exactly_stale_points(self, tmp_path):
        path = str(tmp_path / "c.db")
        spec = tiny_sweep()
        SweepRunner(spec, store=path).run()
        edited = dataclasses.replace(
            spec,
            axes=(
                SweepAxis(name="rate", path="traffic.rate", values=(5.0, 8.0)),
                spec.axes[1],
            ),
        )
        runner = SweepRunner(edited, store=path)
        merged = runner.run()
        assert runner.resumed == [2, 3]
        assert merged.to_json() == SweepRunner(edited).run().to_json()

    def test_store_resume_with_workers_matches_serial(self, tmp_path):
        path = str(tmp_path / "c.db")
        spec = tiny_sweep()
        fresh = SweepRunner(spec).run()
        SweepRunner(spec, store=path).run()
        with CampaignStore(path) as store:
            cid = store.campaigns()[0].campaign_id
            store.conn.execute(
                "DELETE FROM points WHERE campaign_id = ? AND point_index IN (0, 3)",
                (cid,),
            )
        runner = SweepRunner(spec, workers=2, store=path)
        assert runner.run().to_json() == fresh.to_json()
        assert runner.resumed == [1, 2]

    def test_open_store_instance_is_left_open(self, tmp_path):
        spec = tiny_sweep()
        with CampaignStore(str(tmp_path / "c.db")) as store:
            SweepRunner(spec, store=store).run()
            assert len(store.campaigns()) == 1  # still usable

    def test_skipped_points_archived(self, tmp_path):
        # Nolan at diameter 3 is invalid (two-party protocol): with
        # drop_invalid it archives as a skipped point, not a failure.
        spec = SweepSpec(
            name="skippy",
            base=small_base(),
            axes=(
                SweepAxis(name="protocol", path="protocol", values=("nolan",)),
                SweepAxis(
                    name="diameter",
                    values=(
                        {"chains.ids": ["c0", "c1"], "traffic.participants_per_swap": 2},
                        {"chains.ids": ["c0", "c1", "c2"], "traffic.participants_per_swap": 3},
                    ),
                    labels=("2", "3"),
                ),
            ),
            drop_invalid=True,
        )
        path = str(tmp_path / "c.db")
        result = SweepRunner(spec, store=path).run()
        assert len(result.skipped) == 1
        with CampaignStore(path) as store:
            cid = store.campaigns()[0].campaign_id
            skipped = store.points(cid, status="skipped")
            assert len(skipped) == 1
            assert skipped[0]["skip_reason"] == result.skipped[0].reason


class TestCompare:
    def rows_a(self):
        return [
            synthetic_row(0, protocol="ac3wn", commit_rate=0.9, p99_latency=5.0),
            synthetic_row(1, protocol="nolan", commit_rate=0.8, p99_latency=6.0),
        ]

    def test_self_compare_has_no_regressions(self, tmp_path):
        with CampaignStore(str(tmp_path / "c.db")) as store:
            cid = fill_campaign(store, rows=self.rows_a())
            info = store.resolve_campaign(cid)
            report = compare_campaigns(store, info, store, info)
            assert report.joined_points == 2
            assert report.regressions == []
            assert all(d.direction == "same" for d in report.deltas)

    def test_directed_regressions_flagged(self, tmp_path):
        with CampaignStore(str(tmp_path / "c.db")) as store:
            a = fill_campaign(store, name="a", rows=self.rows_a())
            worse = [
                synthetic_row(0, protocol="ac3wn", commit_rate=0.5, p99_latency=5.0),
                synthetic_row(1, protocol="nolan", commit_rate=0.8, p99_latency=9.0),
            ]
            b = fill_campaign(store, name="b", rows=worse)
            report = compare_campaigns(
                store,
                store.resolve_campaign(a),
                store,
                store.resolve_campaign(b),
            )
            flagged = {(d.coords["protocol"], d.metric) for d in report.regressions}
            assert ("ac3wn", "commit_rate") in flagged
            assert ("nolan", "p99_latency") in flagged
            # Improvements flow the other way around.
            reverse = compare_campaigns(
                store,
                store.resolve_campaign(b),
                store,
                store.resolve_campaign(a),
            )
            assert reverse.regressions == []
            assert len(reverse.improvements) == 2

    def test_threshold_gates_small_changes(self, tmp_path):
        with CampaignStore(str(tmp_path / "c.db")) as store:
            a = fill_campaign(store, name="a", rows=[synthetic_row(0, commit_rate=1.0)])
            b = fill_campaign(store, name="b", rows=[synthetic_row(0, commit_rate=0.97)])
            args = (store, store.resolve_campaign(a), store, store.resolve_campaign(b))
            assert compare_campaigns(*args, threshold=0.05).regressions == []
            assert len(compare_campaigns(*args, threshold=0.01).regressions) == 1

    def test_unmatched_coordinates_reported(self, tmp_path):
        with CampaignStore(str(tmp_path / "c.db")) as store:
            a = fill_campaign(store, name="a", rows=self.rows_a())
            b = fill_campaign(store, name="b", rows=self.rows_a()[:1])
            report = compare_campaigns(
                store, store.resolve_campaign(a), store, store.resolve_campaign(b)
            )
            assert report.only_in_a == [{"protocol": "nolan"}]
            assert report.only_in_b == []

    def test_csv_export_shape(self, tmp_path):
        with CampaignStore(str(tmp_path / "c.db")) as store:
            cid = fill_campaign(store, rows=self.rows_a())
            info = store.resolve_campaign(cid)
            csv = compare_campaigns(store, info, store, info).to_csv()
            header, *lines = csv.strip().splitlines()
            assert header == "coords,metric,a,b,delta,rel_change,direction,regression"
            assert lines and all(line.endswith(",same,False") for line in lines)

    def test_json_export_carries_every_delta_and_verdict(self, tmp_path):
        with CampaignStore(str(tmp_path / "c.db")) as store:
            a = fill_campaign(store, name="a", rows=self.rows_a())
            worse = [synthetic_row(0, protocol="ac3wn", commit_rate=0.5, p99_latency=5.0)]
            b = fill_campaign(store, name="b", rows=worse)
            report = compare_campaigns(
                store, store.resolve_campaign(a), store, store.resolve_campaign(b)
            )
        data = json.loads(json.dumps(report.to_dict()))
        assert (data["campaign_a"]["name"], data["campaign_b"]["name"]) == ("a", "b")
        assert data["joined_points"] == 1 and data["only_in_a"] == [{"protocol": "nolan"}]
        assert len(data["deltas"]) == len(report.deltas)
        flagged = [d for d in data["deltas"] if d["regression"]]
        assert [(d["metric"], d["a"], d["b"], d["direction"]) for d in flagged] == [
            ("commit_rate", 0.9, 0.5, "worse")
        ]
        assert flagged[0]["delta"] == pytest.approx(-0.4)
        assert flagged[0]["rel_change"] == pytest.approx(-0.4 / 0.9)

    @pytest.mark.parametrize(
        "metric, a, b, direction, rel_change",
        [
            ("commit_rate", 0.5, 0.75, "better", 0.5),
            ("p99_latency", 4.0, 5.0, "worse", 0.25),
            ("total", 10, 12, "changed", 0.2),
            ("committed", 0, 3, "better", float("inf")),
            ("p99_latency", 0, 0, "same", 0.0),
        ],
    )
    def test_metric_delta_direction_and_relative_change(
        self, metric, a, b, direction, rel_change
    ):
        from repro.store.compare import MetricDelta

        delta = MetricDelta(coords={}, metric=metric, a=a, b=b)
        assert delta.direction == direction
        assert delta.rel_change == pytest.approx(rel_change)
        assert delta.is_regression(0.1) == (direction == "worse")

    def test_previous_campaign_trajectory(self, tmp_path):
        with CampaignStore(str(tmp_path / "c.db")) as store:
            first = fill_campaign(store, name="bench", kind="bench", rows=[])
            second = fill_campaign(store, name="bench", kind="bench", rows=[])
            latest = store.resolve_campaign("bench")
            assert latest.campaign_id == second
            previous = store.previous_campaign(latest)
            assert previous is not None and previous.campaign_id == first
            assert store.previous_campaign(previous) is None


class TestIngest:
    def test_point_directory_round_trips_bytes(self, tmp_path):
        resume = tmp_path / "campaign"
        resume.mkdir()
        for point in SweepRunner(tiny_sweep()).run().points:
            path = resume / f"point-{point.index:05d}.json"
            path.write_text(json.dumps(point.artifact, sort_keys=True))
        with CampaignStore(str(tmp_path / "c.db")) as store:
            report = ingest_path(store, str(resume))
            assert report.points == 4 and report.kind == "ingest"
            for index in range(4):
                disk = (resume / f"point-{index:05d}.json").read_text()
                assert store.get_artifact(report.campaign_id, index) == disk
            # Imported rows are queryable like native ones.
            assert store.query("commit_rate >= 0")

    def test_single_result_json(self, tmp_path):
        artifact = {
            "spec": {"protocol": "ac3wn", "seed": 4, "name": "one"},
            "metrics": {"total": 2, "commit_rate": 1.0},
        }
        path = tmp_path / "one.json"
        path.write_text(json.dumps(artifact))
        with CampaignStore(str(tmp_path / "c.db")) as store:
            report = ingest_path(store, str(path))
            assert (report.campaign, report.points) == ("one", 1)
            assert json.loads(store.get_artifact(report.campaign_id, 0)) == artifact

    def test_a_run_json_result_round_trips_bytes(self, tmp_path, capsys):
        """``run --json`` → ``store ingest`` → ``store artifact --point 0``
        gives back the file, and its metrics are queryable."""
        from repro.cli import main

        result = tmp_path / "smoke.json"
        run = ["run", "--preset", "swap", "--set", "protocol=herlihy", "--json", str(result)]
        assert main(run) == 0
        db = str(tmp_path / "c.db")
        assert main(["store", "ingest", str(result), "--db", db]) == 0
        capsys.readouterr()
        assert main(["store", "artifact", "--db", db, "--point", "0"]) == 0
        assert capsys.readouterr().out == result.read_text()
        with CampaignStore(db) as store:
            (hit,) = store.query("protocol = 'herlihy'")
        metrics = json.loads(result.read_text())["metrics"]
        assert (hit["campaign"], hit["total"], hit["committed"]) == (
            "smoke", metrics["total"], metrics["committed"],
        )

    def test_bench_timing_json(self, tmp_path):
        timings = {
            "100": {"num_swaps": 100, "wall_seconds": 1.5, "swaps_per_second_wall": 66.7},
            "1000": {"num_swaps": 1000, "wall_seconds": 20.0, "swaps_per_second_wall": 50.0},
        }
        path = tmp_path / "engine-scale-timings.json"
        path.write_text(json.dumps(timings))
        with CampaignStore(str(tmp_path / "c.db")) as store:
            report = ingest_path(store, str(path), campaign="engine-scale")
            assert report.kind == "bench" and report.points == 2
            hits = store.query("wall_seconds > 10")
            assert len(hits) == 1 and hits[0]["num_swaps"] == 1000

    def test_unrecognized_shapes_rejected(self, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text('{"neither": "shape"}')
        empty = tmp_path / "empty"
        empty.mkdir()
        with CampaignStore(str(tmp_path / "c.db")) as store:
            with pytest.raises(StoreError, match="neither"):
                ingest_path(store, str(junk))
            with pytest.raises(StoreError, match="no point-"):
                ingest_path(store, str(empty))
            with pytest.raises(StoreError, match="cannot read"):
                ingest_path(store, str(tmp_path / "absent.json"))
