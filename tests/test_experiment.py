"""Tests for the declarative experiment layer (repro.experiment).

Pins the spec API's contracts: strict serde (round-trip identity,
unknown-key and bad-value rejection), dotted-path overrides, the preset
catalog, the traffic/protocol registries, and — the load-bearing
guarantee — that a spec alone reproduces a run bit for bit, including
after a JSON round trip.
"""

import json

import pytest

from repro.core.herlihy import HerlihyConfig, HerlihyDriver
from repro.engine import (
    register_protocol,
    registered_protocols,
    unregister_protocol,
)
from repro.errors import SpecError
from repro.experiment import (
    ChainOverride,
    ChainsSpec,
    CrashSpec,
    EngineSpec,
    ExperimentSpec,
    FeeBudgetSpec,
    FeeMarketSpec,
    FeeShockSpec,
    TrafficSpec,
    apply_overrides,
    parse_set_args,
    preset_names,
    preset_spec,
    register_traffic,
    registered_traffic,
    run_experiment,
    unregister_traffic,
)


def small_spec(**overrides) -> ExperimentSpec:
    """A fast-running spec for execution tests (seconds, not minutes)."""
    spec = ExperimentSpec(
        name="small",
        seed=11,
        protocol="ac3wn",
        chains=ChainsSpec(ids=("x", "y")),
        traffic=TrafficSpec(num_swaps=6, rate=6.0),
    )
    return apply_overrides(spec, overrides) if overrides else spec


class TestSerde:
    def test_round_trip_identity(self):
        spec = small_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_identity(self):
        spec = preset_spec("fee-shock")  # exercises every nested section
        reloaded = ExperimentSpec.from_json(spec.to_json())
        assert reloaded == spec
        # And the re-serialization is byte-identical.
        assert reloaded.to_json() == spec.to_json()

    @pytest.mark.parametrize("name", preset_names())
    def test_every_preset_round_trips_and_validates(self, name):
        spec = preset_spec(name)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        spec.validate()

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(SpecError, match="unknown key"):
            ExperimentSpec.from_dict({"swaps": 10})

    def test_unknown_nested_key_rejected_with_path(self):
        with pytest.raises(SpecError, match="traffic"):
            ExperimentSpec.from_dict({"traffic": {"num_swap": 10}})

    def test_wrong_shape_rejected(self):
        with pytest.raises(SpecError, match="expected an object"):
            ExperimentSpec.from_dict({"traffic": 5})
        with pytest.raises(SpecError, match="expected an int"):
            ExperimentSpec.from_dict({"seed": "zero"})
        with pytest.raises(SpecError, match="expected a bool"):
            ExperimentSpec.from_dict({"fee_market": {"enabled": "yes"}})

    def test_not_json_rejected(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            ExperimentSpec.from_json("{nope")

    def test_tuples_survive_json(self):
        spec = ExperimentSpec(
            fee_shocks=(FeeShockSpec(at=3.0), FeeShockSpec(at=9.0, chain_id="witness")),
            traffic=TrafficSpec(crash=CrashSpec(rate=0.5, window=(2.0, 4.0))),
        )
        reloaded = ExperimentSpec.from_json(spec.to_json())
        assert reloaded.fee_shocks == spec.fee_shocks
        assert reloaded.traffic.crash.window == (2.0, 4.0)

    def test_chain_overrides_round_trip(self):
        spec = ExperimentSpec(
            chains=ChainsSpec(
                ids=("a", "b"),
                overrides={"a": ChainOverride(block_interval=2.0)},
            )
        )
        reloaded = ExperimentSpec.from_json(spec.to_json())
        assert reloaded == spec
        params = reloaded.chains.build_params()
        assert params["a"].block_interval == 2.0


class TestValidation:
    def test_valid_spec_passes(self):
        assert small_spec().validate() is not None

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"protocol": "magic"}, "unknown protocol"),
            ({"traffic.generator": "magic"}, "unknown traffic generator"),
            ({"traffic.num_swaps": 0}, "num_swaps"),
            ({"traffic.rate": 0.0}, "rate"),
            ({"traffic.participants_per_swap": 1}, "participants_per_swap"),
            ({"traffic.crash.rate": 1.5}, "crash.rate"),
            ({"traffic.low_fee_share": -0.1}, "low_fee_share"),
            ({"chains.ids": ["x", "x"]}, "duplicates"),
            ({"chains.witness": "x"}, "witness"),
            ({"chains.validator_mode": "psychic"}, "validator_mode"),
            ({"chains.block_interval": 0.0}, "block_interval"),
            ({"engine.max_events": 0}, "max_events"),
            ({"traffic.crash.delay": 3.0}, "set together"),
        ],
    )
    def test_invalid_values_rejected(self, overrides, message):
        with pytest.raises(SpecError, match=message):
            small_spec(**overrides).validate()

    @pytest.mark.parametrize("protocol", ["nolan", "mixed"])
    def test_nolan_multiparty_rejected(self, protocol):
        """"mixed" round-robins Nolan, so it inherits the two-party rule."""
        spec = small_spec(
            **{"protocol": protocol, "traffic.participants_per_swap": 3}
        )
        with pytest.raises(SpecError, match="two-party"):
            spec.validate()

    def test_chain_override_values_validated(self):
        for field_value, message in (
            ('{"x": {"block_interval": 0}}', "block_interval"),
            ('{"x": {"confirmation_depth": 0}}', "confirmation_depth"),
            ('{"x": {"max_messages_per_block": 0}}', "max_messages_per_block"),
            ('{"x": {"transfer_fee": -1}}', "transfer_fee"),
        ):
            spec = small_spec(**{"chains.overrides": field_value})
            with pytest.raises(SpecError, match=message):
                spec.validate()

    def test_fee_shock_unknown_chain_rejected(self):
        spec = small_spec()
        spec = apply_overrides(spec, {"fee_shocks": [{"chain_id": "mars"}]})
        with pytest.raises(SpecError, match="mars"):
            spec.validate()

    def test_explicit_and_random_crash_are_exclusive(self):
        spec = small_spec(
            **{
                "traffic.crash.rate": 0.5,
                "traffic.crash.participant": "b",
                "traffic.crash.delay": 2.0,
            }
        )
        with pytest.raises(SpecError, match="exclusive"):
            spec.validate()

    def test_economy_validation_surfaces_as_spec_error(self):
        """FeePolicy/FeeBudget's own FeeError re-raises as SpecError so a
        bad spec always fails with one exception type."""
        spec = small_spec(**{"fee_market.enabled": True, "fee_market.rbf_bump": 0.5})
        with pytest.raises(SpecError, match="rbf_bump"):
            spec.validate()
        spec = small_spec(**{"fee_market.enabled": True, "fee_market.block_weight_budget": 0})
        with pytest.raises(SpecError, match="block_weight_budget"):
            spec.validate()
        # A block too small for any deploy would admit swaps and never
        # mine one; the lightest call (weight 2) fits, the deploy does not.
        spec = small_spec(**{"fee_market.enabled": True, "fee_market.block_weight_budget": 2})
        with pytest.raises(SpecError, match=r"block_weight_budget=2 cannot fit a deploy.*=4"):
            spec.validate()
        small_spec(**{"fee_market.block_weight_budget": 2}).validate()  # market off
        with pytest.raises(SpecError, match="'fee_market.fifo': field 'fifo' was retired: the FIFO"):
            small_spec(**{"fee_market.fifo": True})
        spec = small_spec(**{"traffic.fee_budget": '{"cap": -1}'})
        with pytest.raises(SpecError, match="cap"):
            spec.validate()


class TestOverrides:
    def test_typed_and_string_values(self):
        spec = apply_overrides(
            small_spec(),
            {
                "traffic.num_swaps": 60,
                "traffic.rate": "12.0",
                "fee_market.enabled": "true",
                "chains.witness": "hub",
                "fee_market.capacity_weight": "null",
            },
        )
        assert spec.traffic.num_swaps == 60
        assert spec.traffic.rate == 12.0
        assert spec.fee_market.enabled is True
        assert spec.chains.witness == "hub"
        assert spec.fee_market.capacity_weight is None

    def test_original_spec_untouched(self):
        spec = small_spec()
        apply_overrides(spec, {"seed": 999})
        assert spec.seed == 11

    def test_list_values(self):
        spec = apply_overrides(small_spec(), {"chains.ids": '["a", "b", "c"]'})
        assert spec.chains.ids == ("a", "b", "c")

    def test_nested_dataclass_value(self):
        spec = apply_overrides(
            small_spec(), {"traffic.low_budget": '{"cap": 80, "max_bumps": 1}'}
        )
        assert spec.traffic.low_budget == FeeBudgetSpec(cap=80, max_bumps=1)

    def test_unknown_path_rejected(self):
        with pytest.raises(SpecError, match="unknown field"):
            apply_overrides(small_spec(), {"traffic.swaps": 10})
        with pytest.raises(SpecError, match="unknown field"):
            apply_overrides(small_spec(), {"warp.speed": 9})

    def test_scalar_has_no_nested_fields(self):
        with pytest.raises(SpecError, match="no nested fields"):
            apply_overrides(small_spec(), {"seed.low": 1})

    def test_type_mismatch_rejected(self):
        with pytest.raises(SpecError, match="expected an int"):
            apply_overrides(small_spec(), {"seed": "soon"})

    def test_parse_set_args(self):
        assert parse_set_args(["a.b=1", "c=x=y"]) == {"a.b": "1", "c": "x=y"}
        with pytest.raises(SpecError, match="key=value"):
            parse_set_args(["nope"])


class TestPresets:
    def test_unknown_preset(self):
        with pytest.raises(SpecError, match="unknown preset"):
            preset_spec("warp")

    def test_catalog_contains_the_stock_scenarios(self):
        for name in ("engine-smoke", "congestion", "table1", "figure10", "swap"):
            assert name in preset_names()

    def test_congestion_preset_is_the_stock_oversubscribed_world(self):
        spec = preset_spec("congestion")
        assert spec.fee_market.enabled
        assert spec.fee_market.block_weight_budget == 16
        assert spec.fee_market.capacity_weight == 96
        assert spec.traffic.generator == "congestion"
        assert spec.traffic.num_swaps == 60


class TestRegistries:
    def test_builtin_registrations(self):
        assert set(registered_traffic()) >= {"poisson", "congestion"}
        assert set(registered_protocols()) >= {"nolan", "herlihy", "ac3tw", "ac3wn"}

    def test_custom_traffic_generator_plugs_in(self):
        def tiny(spec):
            from repro.workloads.scenarios import swap_traffic

            return swap_traffic(
                2, rate=spec.traffic.rate, seed=spec.seed,
                chain_ids=list(spec.chains.asset_ids()),
            )

        register_traffic("tiny", tiny)
        try:
            result = run_experiment(small_spec(**{"traffic.generator": "tiny"}))
            assert result.metrics.total == 2
            assert result.metrics.atomicity_violations == 0
        finally:
            unregister_traffic("tiny")

    def test_duplicate_traffic_registration_rejected(self):
        with pytest.raises(SpecError, match="already registered"):
            register_traffic("poisson", lambda spec: [])

    def test_custom_protocol_plugs_in(self):
        def factory(engine, request):
            return HerlihyDriver(
                engine.env,
                request.graph,
                request.config or HerlihyConfig(),
                fee_budget=request.fee_budget,
            )

        register_protocol("herlihy-clone", factory)
        try:
            result = run_experiment(small_spec(protocol="herlihy-clone"))
            assert result.metrics.total == 6
            assert result.metrics.committed == 6
            assert all(o.protocol == "herlihy" for o in result.outcomes)
        finally:
            unregister_protocol("herlihy-clone")


class TestRunExperiment:
    def test_runs_and_reports(self):
        result = run_experiment(small_spec())
        assert result.metrics.total == 6
        assert result.metrics.atomicity_violations == 0
        assert result.spec == small_spec()
        assert len(result.outcomes) == 6
        assert result.throughput[0] == result.metrics
        assert result.congestion_cost is None  # no fee market

    def test_invalid_spec_refused(self):
        with pytest.raises(SpecError):
            run_experiment(small_spec(**{"traffic.num_swaps": 0}))

    def test_same_spec_byte_identical_result(self):
        """The tentpole invariant: a spec fully determines the run —
        two executions serialize to byte-identical artifacts."""
        first = run_experiment(small_spec())
        second = run_experiment(small_spec())
        assert first.metrics == second.metrics
        assert first.trace() == second.trace()
        assert first.to_json() == second.to_json()

    def test_json_round_tripped_spec_runs_identically(self):
        """Acceptance pin: serialize the spec to JSON, re-load it, run —
        the EngineMetrics are identical to the original spec's."""
        spec = small_spec()
        reloaded = ExperimentSpec.from_json(spec.to_json())
        assert run_experiment(reloaded).metrics == run_experiment(spec).metrics

    def test_mixed_protocol_round_robin(self):
        result = run_experiment(small_spec(**{"protocol": "mixed"}))
        assert set(result.by_protocol) == {"nolan", "herlihy", "ac3tw", "ac3wn"}
        assert result.metrics.total == 6

    def test_lazy_vs_eager_spec_ab(self):
        """The A/B is over: engine.eager=false is a spec error naming the
        removal (whether set by override, dict or JSON), and the one
        cadence left commits everything inside its event budget."""
        for spec in (
            small_spec(**{"engine.eager": "false"}),
            ExperimentSpec.from_dict({"engine": {"eager": False}}),
            ExperimentSpec(engine=EngineSpec(eager=False)),
        ):
            with pytest.raises(SpecError, match="engine.eager must be true"):
                spec.validate()
        result = run_experiment(small_spec())
        assert result.metrics.committed == 6
        assert result.engine_result.events_processed / 6 <= 4

    def test_fee_market_spec_runs_congestion(self):
        spec = apply_overrides(
            preset_spec("congestion"),
            {"traffic.num_swaps": 12, "traffic.rate": 8.0},
        )
        result = run_experiment(spec)
        assert result.metrics.total == 12
        assert result.metrics.atomicity_violations == 0
        assert result.congestion_cost is not None
        caps = {o.fee_cap for o in result.outcomes}
        assert len(caps) == 2  # both budget classes drawn

    def test_deterministic_crash_plan(self):
        result = run_experiment(
            small_spec(
                **{
                    "traffic.num_swaps": 2,
                    "traffic.crash.participant": "b",
                    "traffic.crash.delay": 2.0,
                }
            )
        )
        assert result.metrics.injected_crashes == 2
        assert all(
            o.injected_crash is not None and o.injected_crash.endswith(".b")
            for o in result.outcomes
        )
        assert result.metrics.atomicity_violations == 0

    def test_crash_role_must_exist(self):
        spec = small_spec(
            **{"traffic.crash.participant": "z", "traffic.crash.delay": 1.0}
        )
        with pytest.raises(SpecError, match="matches no role"):
            run_experiment(spec)

    def test_fee_shock_funds_the_whale(self):
        spec = apply_overrides(
            preset_spec("fee-shock"),
            {"traffic.num_swaps": 8, "traffic.rate": 8.0},
        )
        result = run_experiment(spec)
        assert result.metrics.total == 8
        assert result.metrics.atomicity_violations == 0
        assert "whale" in result.env.participants
        # The burst actually landed: the witness chain earned whale fees.
        witness_miner = result.env.miners[spec.chains.witness]
        assert witness_miner.fees_earned > 0

    def test_result_artifact_shape(self, tmp_path):
        result = run_experiment(small_spec())
        data = result.to_dict()
        assert set(data) == {
            "spec",
            "metrics",
            "by_protocol",
            "outcomes",
            "chain_reorgs",
            "reports",
        }
        assert data["spec"] == small_spec().to_dict()
        assert data["metrics"]["total"] == 6
        assert len(data["outcomes"]) == 6
        assert {o["swap_id"] for o in data["outcomes"]} == set(range(6))
        path = tmp_path / "result.json"
        result.save(str(path))
        assert json.loads(path.read_text())["metrics"]["total"] == 6

    def test_chain_override_applies(self):
        spec = small_spec()
        spec = apply_overrides(
            spec, {"chains.overrides": '{"x": {"confirmation_depth": 3}}'}
        )
        result = run_experiment(spec)
        assert result.env.chains["x"].params.confirmation_depth == 3
        assert result.env.chains["y"].params.confirmation_depth == 2
