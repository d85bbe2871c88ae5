"""Tests for the sweep-campaign subsystem (repro.sweeps).

Pins the subsystem's contracts: deterministic expansion (same spec ⇒
identical point list and per-point seeds), strict serde and axis
validation (unknown dotted paths rejected with their full path, like
the experiment layer's), and — the load-bearing guarantee — that the
aggregate artifact is byte-identical at ``--workers 1`` and
``--workers 4`` for the same sweep spec.
"""

import dataclasses
import json

import pytest

from repro.errors import SpecError
from repro.experiment import ChainsSpec, ExperimentSpec, TrafficSpec
from repro.store import CampaignStore
from repro.sweeps import SweepAxis, SweepRunner, SweepSpec, run_sweep, sweep_names, sweep_spec
from repro.sweeps.scorecard import CLAIMS, scorecard
from repro.sweeps.result import ROW_METRICS


def small_base(**kwargs) -> ExperimentSpec:
    """A fast-running base experiment (seconds, not minutes)."""
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


class TestExpansion:
    def test_grid_order_and_names(self):
        points = tiny_sweep().expand().points
        assert [p.index for p in points] == [0, 1, 2, 3]
        assert [p.coords for p in points] == [
            {"rate": 4.0, "protocol": "ac3wn"},
            {"rate": 4.0, "protocol": "herlihy"},
            {"rate": 8.0, "protocol": "ac3wn"},
            {"rate": 8.0, "protocol": "herlihy"},
        ]
        assert points[0].name == "tiny[000] rate=4.0,protocol=ac3wn"

    def test_same_spec_identical_expansion(self):
        first = tiny_sweep().expand()
        second = tiny_sweep().expand()
        assert first == second

    def test_derived_seeds(self):
        points = tiny_sweep().expand().points
        assert [p.spec.seed for p in points] == [11, 12, 13, 14]

    def test_derive_seeds_off(self):
        points = tiny_sweep(derive_seeds=False).expand().points
        assert [p.spec.seed for p in points] == [11, 11, 11, 11]

    def test_explicit_seed_axis_wins(self):
        sweep = tiny_sweep(
            axes=(
                SweepAxis(name="seed", path="seed", values=(7, 9)),
            )
        )
        assert [p.spec.seed for p in sweep.expand().points] == [7, 9]

    def test_override_axis_moves_fields_together(self):
        sweep = tiny_sweep(
            axes=(
                SweepAxis(
                    name="diameter",
                    values=(
                        {"chains.ids": ["c0", "c1"], "traffic.participants_per_swap": 2},
                        {"chains.ids": ["c0", "c1", "c2"], "traffic.participants_per_swap": 3},
                    ),
                    labels=("2", "3"),
                ),
            )
        )
        points = sweep.expand().points
        assert points[0].coords == {"diameter": "2"}
        assert points[1].spec.chains.ids == ("c0", "c1", "c2")
        assert points[1].spec.traffic.participants_per_swap == 3

    def test_unknown_axis_path_rejected_with_full_path(self):
        sweep = tiny_sweep(
            axes=(SweepAxis(name="bad", path="traffic.swaps", values=(1,)),)
        )
        with pytest.raises(SpecError, match="traffic.swaps"):
            sweep.expand()

    def test_ill_typed_axis_value_rejected(self):
        sweep = tiny_sweep(
            axes=(SweepAxis(name="rate", path="traffic.rate", values=("soon",)),)
        )
        with pytest.raises(SpecError, match="traffic.rate"):
            sweep.expand()

    def test_drop_invalid_records_skips_without_renumbering(self):
        sweep = tiny_sweep(
            axes=(
                SweepAxis(
                    name="protocol", path="protocol", values=("nolan", "ac3wn")
                ),
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
        expansion = sweep.expand()
        # Nolan at diameter 3 is the only invalid cell.
        assert [p.index for p in expansion.points] == [0, 2, 3]
        assert len(expansion.skipped) == 1
        assert expansion.skipped[0].index == 1
        assert "two-party" in expansion.skipped[0].reason
        # Derived seeds stay pinned to the grid index, not the survivor
        # count, so skipping never reshuffles downstream seeds.
        assert [p.spec.seed for p in expansion.points] == [11, 13, 14]

    def test_invalid_point_raises_without_drop_invalid(self):
        sweep = tiny_sweep(
            axes=(
                SweepAxis(name="swaps", path="traffic.num_swaps", values=(0,)),
            )
        )
        with pytest.raises(SpecError, match="num_swaps"):
            sweep.expand()


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(axes=()), "at least one axis"),
        ],
    )
    def test_bad_structure_rejected(self, kwargs, message):
        with pytest.raises(SpecError, match=message):
            tiny_sweep(**kwargs).validate()

    def test_duplicate_axis_names_rejected(self):
        sweep = tiny_sweep(
            axes=(
                SweepAxis(name="a", path="traffic.rate", values=(1.0,)),
                SweepAxis(name="a", path="protocol", values=("ac3wn",)),
            )
        )
        with pytest.raises(SpecError, match="unique"):
            sweep.validate()

    def test_conflicting_axis_paths_rejected(self):
        sweep = tiny_sweep(
            axes=(
                SweepAxis(name="a", path="traffic.rate", values=(1.0,)),
                SweepAxis(name="b", values=({"traffic.rate": 2.0},)),
            )
        )
        with pytest.raises(SpecError, match="both"):
            sweep.validate()

    def test_label_count_mismatch_rejected(self):
        sweep = tiny_sweep(
            axes=(
                SweepAxis(
                    name="rate", path="traffic.rate", values=(1.0, 2.0), labels=("x",)
                ),
            )
        )
        with pytest.raises(SpecError, match="labels"):
            sweep.validate()

    def test_pathless_axis_needs_dict_values(self):
        sweep = tiny_sweep(axes=(SweepAxis(name="a", values=(3.0,)),))
        with pytest.raises(SpecError, match="override dicts"):
            sweep.validate()

    @pytest.mark.parametrize("name", ["index", "name", "seed", "commit_rate"])
    def test_reserved_axis_names_rejected(self, name):
        """Axis names become row/CSV columns; a collision with the fixed
        identity/metric columns would silently clobber coordinates."""
        sweep = tiny_sweep(
            axes=(SweepAxis(name=name, path="traffic.rate", values=(4.0,)),)
        )
        with pytest.raises(SpecError, match="reserved"):
            sweep.validate()
        # The one self-consistent exception: literally sweeping the seed.
        tiny_sweep(
            axes=(SweepAxis(name="seed", path="seed", values=(1, 2)),)
        ).validate()


class TestSerde:
    def test_round_trip_identity(self):
        sweep = tiny_sweep()
        assert SweepSpec.from_json(sweep.to_json()) == sweep
        assert SweepSpec.from_json(sweep.to_json()).to_json() == sweep.to_json()

    def test_override_axis_round_trips(self):
        sweep = tiny_sweep(
            axes=(
                SweepAxis(
                    name="diameter",
                    values=({"chains.ids": ["c0", "c1"]},),
                    labels=("2",),
                ),
            )
        )
        reloaded = SweepSpec.from_json(sweep.to_json())
        assert reloaded == sweep
        assert reloaded.expand() == sweep.expand()

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError, match="unknown key"):
            SweepSpec.from_dict({"points": 9})
        with pytest.raises(SpecError, match="axes"):
            SweepSpec.from_dict({"axes": [{"nam": "x"}]})

    def test_not_json_rejected(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            SweepSpec.from_json("{nope")

    @pytest.mark.parametrize("name", sweep_names())
    def test_every_stock_sweep_round_trips_and_expands(self, name):
        sweep = sweep_spec(name)
        assert SweepSpec.from_json(sweep.to_json()) == sweep
        expansion = sweep.expand()
        assert expansion.points
        # Per-point specs are runnable descriptions (validated already).
        assert all(p.spec.validate() for p in expansion.points)


class TestRunner:
    def test_workers_must_be_positive(self):
        with pytest.raises(SpecError, match="workers"):
            SweepRunner(tiny_sweep(), workers=0)

    def test_in_process_run_joins_in_index_order(self):
        result = run_sweep(tiny_sweep())
        assert [p.index for p in result.points] == [0, 1, 2, 3]
        assert all(p.metrics["total"] == 2 for p in result.points)
        assert result.atomicity_violations == 0
        # The artifact echoes the sweep and every point's spec.
        data = result.to_dict()
        assert data["sweep"] == tiny_sweep().to_dict()
        assert [p["result"]["spec"]["seed"] for p in data["points"]] == [11, 12, 13, 14]

    def test_workers_1_vs_4_byte_identical(self):
        """The acceptance invariant: worker count and scheduling order
        never change a campaign's aggregate artifact."""
        serial = SweepRunner(tiny_sweep(), workers=1).run()
        pooled = SweepRunner(tiny_sweep(), workers=4).run()
        assert serial.to_json() == pooled.to_json()
        assert serial.to_csv() == pooled.to_csv()

    def test_progress_callback_sees_every_point(self):
        seen = []
        SweepRunner(tiny_sweep(), workers=1, on_point=seen.append).run()
        assert sorted(p.index for p in seen) == [0, 1, 2, 3]

    def test_rows_and_csv_shape(self):
        result = run_sweep(tiny_sweep())
        rows = result.rows()
        assert [row["rate"] for row in rows] == [4.0, 4.0, 8.0, 8.0]
        assert all(set(ROW_METRICS) <= set(row) for row in rows)
        csv = result.to_csv()
        header, *lines = csv.strip().splitlines()
        assert header.startswith("index,name,status,rate,protocol,seed,total,")
        assert header.endswith(",skip_reason")
        assert len(lines) == 4
        import csv as csv_mod

        parsed = list(csv_mod.reader(lines))
        assert all(cells[2] == "ok" for cells in parsed)

    def test_csv_includes_skipped_rows(self):
        """Skipped grid cells export as status=skipped rows merged in
        index order, so the table covers every enumerated cell."""
        sweep = tiny_sweep(
            axes=(
                SweepAxis(
                    name="protocol", path="protocol", values=("nolan", "ac3wn")
                ),
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
        import csv as csv_mod

        result = run_sweep(sweep)
        header, *lines = list(csv_mod.reader(result.to_csv().splitlines()))
        assert len(lines) == 4  # 3 executed + 1 skipped, no gaps
        skipped = lines[1]
        assert skipped[header.index("index")] == "1"
        assert skipped[header.index("status")] == "skipped"
        assert skipped[header.index("protocol")] == "nolan"
        assert skipped[header.index("total")] == ""  # empty metric cells
        assert "two-party" in skipped[header.index("skip_reason")]
        assert all(line[2] == "ok" for line in (lines[0], lines[2], lines[3]))

    def test_json_export_carries_every_point(self):
        result = run_sweep(tiny_sweep())
        data = json.loads(result.to_json())
        assert len(data["points"]) == 4
        assert [row["rate"] for row in data["rows"] if row["protocol"] == "ac3wn"] == [4.0, 8.0]


class TestCatalog:
    def test_stock_catalog(self):
        assert set(sweep_names()) >= {
            "figure10",
            "table1",
            "crash-matrix",
            "congestion-rates",
        }

    def test_unknown_sweep(self):
        with pytest.raises(SpecError, match="unknown sweep"):
            sweep_spec("warp")

    def test_figure10_expansion_shape(self):
        expansion = sweep_spec("figure10").expand()
        # 4 protocols x 5 diameters, minus Nolan's 4 invalid diameters.
        assert len(expansion.points) == 16
        assert len(expansion.skipped) == 4
        assert all(s.coords["protocol"] == "nolan" for s in expansion.skipped)

    def test_crash_matrix_seeds_ride_the_onset_axis(self):
        points = sweep_spec("crash-matrix").expand().points
        # Both protocols of one onset share that onset's seed.
        seeds = {}
        for p in points:
            seeds.setdefault(p.coords["onset"], set()).add(p.spec.seed)
        assert all(len(s) == 1 for s in seeds.values())


class TestStockCampaigns:
    def test_figure10_commits_every_point(self):
        """Every executed Figure 10 point commits atomically, Herlihy's
        latency rises with the diameter, and the scorecard's rows come
        out as ``docs/reproduction.md`` lists them."""
        result = run_sweep(sweep_spec("figure10"))
        rows = result.rows()
        assert {row["protocol"] for row in rows} == {"nolan", "herlihy", "ac3tw", "ac3wn"}
        assert all(row["committed"] == row["total"] == 1 for row in rows)
        assert result.atomicity_violations == 0
        herlihy = [row["mean_latency"] for row in rows if row["protocol"] == "herlihy"]
        assert herlihy == sorted(herlihy)
        assert [row.verdict for row in scorecard(result)] == ["holds", "gap", "holds", "holds"]

    def test_crash_matrix_reproduces_section1(self):
        """The paper's motivation table: HTLC settles non-atomically in
        the vulnerability window, AC3WN never does."""
        result = run_sweep(sweep_spec("crash-matrix"))
        cells = {
            (float(point.coords["onset"]), point.coords["protocol"]): point.outcomes[0]
            for point in result.points
        }
        decisions = {
            onset: (cells[onset, "nolan"]["decision"], cells[onset, "ac3wn"]["decision"])
            for onset, _ in cells
        }
        assert decisions == {
            0.0: ("abort", "abort"),  # crashed before anything was locked
            2.0: ("mixed", "commit"),  # the vulnerability window
            3.0: ("mixed", "commit"),
            4.5: ("commit", "commit"),  # crashed after settling
            12.0: ("commit", "commit"),
        }
        assert [
            onset for (onset, protocol), cell in cells.items()
            if protocol == "nolan" and not cell["atomic"]
        ] == [2.0, 3.0]
        assert all(cell["atomic"] for (_, protocol), cell in cells.items() if protocol == "ac3wn")
        assert result.atomicity_violations == 2  # both HTLC cells
        assert [row.verdict for row in scorecard(result)] == ["holds"]

    def test_trimmed_congestion_sweep_is_worker_count_independent(self):
        spec = sweep_spec("congestion-rates")
        spec = dataclasses.replace(
            spec,
            base=ExperimentSpec.from_dict(
                {
                    **spec.base.to_dict(),
                    "traffic": {
                        **spec.base.to_dict()["traffic"],
                        "num_swaps": 8,
                    },
                }
            ),
            axes=(
                SweepAxis(name="rate", path="traffic.rate", values=(6.0, 16.0)),
            ),
        )
        result = run_sweep(spec)
        # Fee-market points join to the same bytes from a worker pool.
        assert run_sweep(spec, workers=2).to_json() == result.to_json()
        rows = result.rows()
        assert [row["rate"] for row in rows] == [6.0, 16.0]
        assert all(row["atomicity_violations"] == 0 for row in rows)
        assert all(0.0 <= row["commit_rate"] <= 1.0 for row in rows)
        assert scorecard(result) == []  # no paper claim rides on this campaign

    def test_scorecard_reads_only_the_points_that_ran(self):
        """Rows are a function of the artifact: a one-point ``figure10``
        grid keeps every claim's row, each one ``not measured``."""
        single = run_sweep(
            SweepSpec(
                name="figure10",
                base=small_base(traffic=TrafficSpec(num_swaps=1, rate=1.0)),
                axes=(
                    SweepAxis(
                        name="protocol", path="protocol", values=("ac3wn",)
                    ),
                    SweepAxis(
                        name="diameter",
                        values=({"traffic.participants_per_swap": 2},),
                        labels=("2",),
                    ),
                ),
            )
        )
        assert single.rows()[0]["protocol"] == "ac3wn"
        rows = scorecard(single)
        assert [row.claim for row in rows] == [claim for claim, _, _ in CLAIMS["figure10"]]
        assert {row.verdict for row in rows} == {"not measured"}
        assert all(row.measured.startswith("not measured: ") for row in rows)


class TestResumableCampaigns:
    """``store=``: per-point artifacts merged byte-identically."""

    @staticmethod
    def _drop(db, *indices):
        with CampaignStore(db) as store:
            store.conn.executemany(
                "DELETE FROM points WHERE point_index = ?", [(i,) for i in indices]
            )

    def test_fresh_run_stores_one_artifact_per_point(self, tmp_path):
        db = str(tmp_path / "campaign.db")
        runner = SweepRunner(tiny_sweep(), store=db)
        result = runner.run()
        assert runner.resumed == []
        with CampaignStore(db) as store:
            (campaign,) = store.campaigns()
            cid = campaign.campaign_id
            assert [p["index"] for p in store.points(cid)] == [0, 1, 2, 3]
            # Stored bytes are the worker payloads: each echoes its spec.
            for point in result.points:
                artifact = json.loads(store.get_artifact(cid, point.index))
                assert artifact == point.artifact

    def test_resume_skips_stored_points_byte_identically(self, tmp_path):
        db = str(tmp_path / "campaign.db")
        spec = tiny_sweep()
        fresh = SweepRunner(spec).run()
        SweepRunner(spec, store=db).run()
        # Drop one point: only that point re-runs.
        self._drop(db, 2)
        runner = SweepRunner(spec, store=db)
        merged = runner.run()
        assert runner.resumed == [0, 1, 3]
        assert merged.to_json() == fresh.to_json()
        assert merged.to_csv() == fresh.to_csv()
        # The re-run point was stored again for the next resume.
        full = SweepRunner(spec, store=db)
        assert full.run().to_json() == fresh.to_json()
        assert full.resumed == [0, 1, 2, 3]

    def test_stale_artifact_is_re_executed(self, tmp_path):
        db = str(tmp_path / "campaign.db")
        spec = tiny_sweep()
        SweepRunner(spec, store=db).run()
        # A sweep edit that changes a point's spec invalidates exactly
        # the stored artifacts whose echo no longer matches.
        edited = dataclasses.replace(
            spec,
            axes=(
                spec.axes[0],
                SweepAxis(name="protocol", path="protocol", values=("ac3wn", "ac3tw")),
            ),
        )
        runner = SweepRunner(edited, store=db)
        merged = runner.run()
        # The ac3wn points (indices 0, 2) were still valid; ac3tw re-ran.
        assert runner.resumed == [0, 2]
        assert merged.to_json() == SweepRunner(edited).run().to_json()

    def test_corrupt_artifact_is_re_executed(self, tmp_path):
        db = str(tmp_path / "campaign.db")
        spec = tiny_sweep()
        fresh = SweepRunner(spec).run()
        SweepRunner(spec, store=db).run()
        with CampaignStore(db) as store:
            store.conn.execute(
                "UPDATE artifacts SET body = ? WHERE point_id ="
                " (SELECT point_id FROM points WHERE point_index = 1)",
                (b"{not json",),
            )
        runner = SweepRunner(spec, store=db)
        assert runner.run().to_json() == fresh.to_json()
        assert runner.resumed == [0, 2, 3]
        # The re-executed point replaced the corrupt bytes.
        assert SweepRunner(spec, store=db).run().to_json() == fresh.to_json()

    def test_resume_with_workers_matches_serial(self, tmp_path):
        db = str(tmp_path / "campaign.db")
        spec = tiny_sweep()
        fresh = SweepRunner(spec).run()
        # Pre-populate the campaign with a pool, drop the middle, then
        # finish it serially through an already-open store.
        SweepRunner(spec, workers=2, store=db).run()
        self._drop(db, 1, 2)
        with CampaignStore(db) as store:
            runner = SweepRunner(spec, store=store)
            assert runner.run().to_json() == fresh.to_json()
            assert runner.resumed == [0, 3]
