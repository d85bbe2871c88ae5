"""Tests for the Section 6 analytical models."""

import pytest

from repro.analysis import cost, latency, security, throughput
from repro.workloads.graphs import directed_cycle, two_party_swap


class TestLatencyModel:
    def test_herlihy_formula(self):
        assert latency.herlihy_latency(2) == 4.0
        assert latency.herlihy_latency(10) == 20.0
        assert latency.herlihy_latency(3, delta=2.0) == 12.0

    def test_ac3wn_constant(self):
        for d in range(2, 20):
            assert latency.ac3wn_latency(d) == 4.0

    def test_minimum_diameter_enforced(self):
        with pytest.raises(ValueError):
            latency.herlihy_latency(1)
        with pytest.raises(ValueError):
            latency.ac3wn_latency(1)

    def test_crossover_at_diameter_2(self):
        d = latency.crossover_diameter()
        assert latency.herlihy_latency(d) == latency.ac3wn_latency(d)
        assert latency.herlihy_latency(d + 1) > latency.ac3wn_latency(d + 1)

    def test_figure10_series_shape(self):
        series = latency.figure10_series(max_diameter=14)
        assert series[0].diameter == 2
        assert series[-1].diameter == 14
        # Herlihy strictly increasing, AC3WN flat.
        herlihy = [p.herlihy_deltas for p in series]
        assert herlihy == sorted(herlihy) and len(set(herlihy)) == len(herlihy)
        assert len({p.ac3wn_deltas for p in series}) == 1

    def test_speedup_grows_linearly(self):
        series = latency.figure10_series(max_diameter=10)
        speedups = [p.speedup for p in series]
        assert speedups[0] == 1.0
        assert speedups[-1] == 5.0

    def test_latency_for_graph(self):
        graph = directed_cycle(5)
        assert latency.latency_for_graph(graph, "herlihy") == 10.0
        assert latency.latency_for_graph(graph, "ac3wn") == 4.0
        with pytest.raises(ValueError):
            latency.latency_for_graph(graph, "unknown")

    def test_two_party_latencies_match_paper_walkthrough(self):
        graph = two_party_swap()
        assert latency.latency_for_graph(graph, "nolan") == 4.0


class TestCostModel:
    def test_totals(self):
        base = cost.herlihy_cost(4, fd=2.0, ffc=1.0)
        ours = cost.ac3wn_cost(4, fd=2.0, ffc=1.0)
        assert base.total == 12.0
        assert ours.total == 15.0

    def test_overhead_is_one_over_n(self):
        for n in (1, 2, 5, 10, 100):
            base = cost.herlihy_cost(n, 2.0, 1.0)
            ours = cost.ac3wn_cost(n, 2.0, 1.0)
            assert (ours.total - base.total) / base.total == pytest.approx(
                cost.overhead_ratio(n)
            )

    def test_overhead_vanishes_with_n(self):
        assert cost.overhead_ratio(100) < cost.overhead_ratio(2)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            cost.herlihy_cost(0, 1, 1)
        with pytest.raises(ValueError):
            cost.overhead_ratio(0)

    def test_scw_usd_reference_points(self):
        """$4 at $300/ETH (2017); about $2 at $140/ETH (2019)."""
        assert cost.scw_cost_usd(300.0) == pytest.approx(4.0)
        assert cost.scw_cost_usd(140.0) == pytest.approx(1.87, abs=0.1)

    def test_cost_table_rows(self):
        rows = cost.cost_table([2, 4, 8])
        assert [r["num_contracts"] for r in rows] == [2, 4, 8]
        assert all(r["ac3wn_total"] > r["herlihy_total"] for r in rows)


class TestSecurityModel:
    def test_paper_worked_example(self):
        """Va=$1M, Bitcoin witness (Ch=$300K/h, dh=6) → d > 20."""
        assert security.required_depth(1_000_000, 300_000, 6) == 21

    def test_depth_scales_with_value(self):
        d_small = security.required_depth(10_000, 300_000, 6)
        d_large = security.required_depth(10_000_000, 300_000, 6)
        assert d_large > d_small

    def test_cheaper_chains_need_more_depth(self):
        btc = security.required_depth(1_000_000, 300_000, 6)
        bch = security.required_depth(1_000_000, 10_000, 6)
        assert bch > btc

    def test_depth_at_least_one(self):
        assert security.required_depth(0, 300_000, 6) == 1

    def test_invalid_inputs(self):
        for value_at_risk in (-1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite number >= 0"):
                security.required_depth(value_at_risk, 300_000, 6)
        with pytest.raises(ValueError):
            security.required_depth(1, 0, 6)
        with pytest.raises(ValueError):
            security.attack_cost_usd(-1, 300_000, 6)

    def test_witness_choice_helper(self):
        btc = security.PAPER_WITNESS_CANDIDATES[0]
        assert btc.chain_id == "bitcoin"
        assert btc.depth_for(1_000_000) == 21
        assert btc.confirmation_latency_hours(1_000_000) == pytest.approx(3.5)

    def test_depth_table(self):
        rows = security.depth_table([1e5, 1e6])
        assert len(rows) == 2
        assert all("bitcoin" in row for row in rows)


class TestThroughputModel:
    def test_table1_values(self):
        table = dict((cid, tps) for _, cid, tps in throughput.TABLE1_ROWS)
        assert table == {
            "bitcoin": 7,
            "ethereum": 25,
            "litecoin": 56,
            "bitcoin-cash": 61,
        }

    def test_paper_example(self):
        """ETH + LTC witnessed by Bitcoin → 7 tps, Bitcoin bottleneck."""
        result = throughput.paper_example()
        assert result.tps == 7
        assert result.bottleneck == "bitcoin"

    def test_min_rule(self):
        result = throughput.ac2t_throughput(["litecoin", "bitcoin-cash"], "ethereum")
        assert result.tps == 25
        assert result.bottleneck == "ethereum"

    def test_best_witness_from_involved_chains(self):
        best = throughput.best_witness(["ethereum", "litecoin"])
        assert best.witness_chain in ("ethereum", "litecoin")
        assert best.tps == 25  # bounded by ethereum either way

    def test_overrides(self):
        result = throughput.ac2t_throughput(
            ["ethereum"], "mychain", overrides={"mychain": 1000}
        )
        assert result.tps == 25

    def test_unknown_chain_raises(self):
        with pytest.raises(KeyError):
            throughput.chain_tps("dogecoin")

    def test_empty_asset_chains_rejected(self):
        with pytest.raises(ValueError):
            throughput.ac2t_throughput([], "bitcoin")


class TestIntermediatedComparison:
    def test_intro_transaction_counts(self):
        from repro.analysis.intermediated import (
            ac2t_path,
            direct_exchange_path,
            fiat_exchange_path,
        )
        from repro.workloads.graphs import two_party_swap

        graph = two_party_swap()
        assert fiat_exchange_path().onchain_transactions == 4
        assert direct_exchange_path().onchain_transactions == 2
        ac3wn = ac2t_path(graph, "ac3wn")
        herlihy = ac2t_path(graph, "herlihy")
        assert herlihy.onchain_transactions == 4  # 2 deploys + 2 settles
        assert ac3wn.onchain_transactions == 6  # + SCw deploy + state change

    def test_only_p2p_paths_avoid_trust(self):
        from repro.analysis.intermediated import comparison_rows
        from repro.workloads.graphs import two_party_swap

        rows = comparison_rows(two_party_swap())
        assert [r.trusted_intermediary for r in rows] == [True, True, False, False]
        assert [r.atomic for r in rows] == [False, False, False, True]

    def test_invalid_pairs(self):
        from repro.analysis.intermediated import fiat_exchange_path

        with pytest.raises(ValueError):
            fiat_exchange_path(0)
