"""Round-trip and validation tests for declarative experiment specs.

The contract under test: a spec survives ``to_dict -> from_dict`` and
``to_json -> from_json`` unchanged, the rebuilt spec produces bit-identical
seeded results, and malformed specs raise :class:`~repro.errors.SpecError`
(never a bare ``KeyError``/``TypeError``) at the documented layer — parse
errors at ``from_dict`` time, unknown kinds at build time.
"""

import dataclasses
import json

import pytest

from repro.errors import ConfigurationError, ReproError, SpecError
from repro.experiments import (
    ExperimentSpec,
    ScenarioSpec,
    SchedulerSpec,
    TimelineSpec,
    build_experiment,
    run_experiment,
)
from repro.sim.config import SimulationConfig


def small_spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="roundtrip",
        scenario=ScenarioSpec(
            kind="testbed",
            params={"num_ues": 4, "hts_per_ue": 1, "activity": 0.4, "seed": 3},
            snr={"kind": "uniform", "seed": 2},
        ),
        sim=SimulationConfig(num_subframes=200),
        schedulers={
            "pf": SchedulerSpec("pf"),
            "blu": SchedulerSpec("speculative"),
        },
        seed=5,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestRoundTrip:
    def test_dict_round_trip_is_identity(self):
        spec = small_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_is_identity(self):
        spec = small_spec(
            timeline=TimelineSpec(
                kind="hidden-node-churn",
                params={"arrive_at": 50, "q": 0.6, "ues": [0, 1]},
            ),
            record_series=True,
            seed=None,
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_to_dict_is_json_serializable(self):
        spec = small_spec()
        json.dumps(spec.to_dict())  # must not raise

    def test_round_tripped_spec_builds_bit_identical_results(self):
        spec = small_spec()
        rebuilt = ExperimentSpec.from_json(spec.to_json())
        original = run_experiment(spec)
        replayed = run_experiment(rebuilt)
        assert original.keys() == replayed.keys()
        for name in original:
            a, b = original[name], replayed[name]
            assert a.delivered_bits_by_ue == b.delivered_bits_by_ue
            assert a.summary() == b.summary()

    def test_replace_returns_new_validated_spec(self):
        spec = small_spec()
        shifted = spec.replace(seed=9)
        assert shifted.seed == 9 and spec.seed == 5
        with pytest.raises(SpecError):
            spec.replace(schedulers={})


class TestRetiredFastPath:
    """Specs written while ``fast_path`` existed still load."""

    def test_true_is_dropped(self):
        data = small_spec().to_dict()
        assert "fast_path" not in data
        data["fast_path"] = True
        assert ExperimentSpec.from_dict(data) == small_spec()

    @pytest.mark.parametrize("value", [False, 0, "true"])
    def test_anything_else_names_the_removed_path(self, value):
        data = small_spec().to_dict()
        data["fast_path"] = value
        with pytest.raises(SpecError, match="scalar engine path was removed"):
            ExperimentSpec.from_dict(data)


class TestValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(SpecError, match="name"):
            small_spec(name="")

    def test_no_schedulers_rejected(self):
        with pytest.raises(SpecError, match="scheduler"):
            small_spec(schedulers={})

    def test_non_spec_scheduler_value_rejected(self):
        with pytest.raises(SpecError):
            small_spec(schedulers={"pf": {"kind": "pf"}})

    def test_unknown_top_level_field_rejected(self):
        data = small_spec().to_dict()
        data["num_subframes"] = 100  # belongs under "sim"
        with pytest.raises(SpecError, match="num_subframes"):
            ExperimentSpec.from_dict(data)

    def test_unknown_sim_field_rejected(self):
        data = small_spec().to_dict()
        data["sim"]["antennas"] = 4  # typo for num_antennas
        with pytest.raises(SpecError, match="antennas"):
            ExperimentSpec.from_dict(data)

    def test_missing_required_fields_rejected(self):
        for key in ("name", "scenario", "schedulers"):
            data = small_spec().to_dict()
            del data[key]
            with pytest.raises(SpecError, match=key):
                ExperimentSpec.from_dict(data)

    def test_missing_kind_rejected(self):
        data = small_spec().to_dict()
        del data["scenario"]["kind"]
        with pytest.raises(SpecError, match="kind"):
            ExperimentSpec.from_dict(data)

    def test_non_int_seed_rejected(self):
        data = small_spec().to_dict()
        data["seed"] = "five"
        with pytest.raises(SpecError, match="seed"):
            ExperimentSpec.from_dict(data)

    def test_invalid_json_wrapped(self):
        with pytest.raises(SpecError, match="invalid JSON"):
            ExperimentSpec.from_json("{not json")

    def test_spec_error_is_a_repro_error(self):
        # CLI and callers catch ReproError/ConfigurationError; SpecError
        # must stay inside that hierarchy.
        assert issubclass(SpecError, ConfigurationError)
        assert issubclass(SpecError, ReproError)


class TestBuildTimeValidation:
    """Kinds resolve against registries at build time, not parse time."""

    def test_unknown_scenario_kind_raises_at_build(self):
        spec = small_spec(
            scenario=ScenarioSpec(kind="nope", params={"num_ues": 4})
        )
        with pytest.raises(SpecError, match="scenario kind 'nope'"):
            build_experiment(spec)

    def test_unknown_scheduler_kind_raises_at_build(self):
        spec = small_spec(schedulers={"pf": SchedulerSpec("not-a-kind")})
        plan = build_experiment(spec)
        with pytest.raises(SpecError, match="not-a-kind"):
            plan.build_scheduler("pf")

    def test_unknown_snr_kind_raises_at_build(self):
        spec = small_spec(
            scenario=dataclasses.replace(
                small_spec().scenario, snr={"kind": "gaussian"}
            )
        )
        with pytest.raises(SpecError, match="gaussian"):
            build_experiment(spec)

    def test_bad_scenario_params_raise_spec_error_not_type_error(self):
        spec = small_spec(
            scenario=ScenarioSpec(
                kind="testbed", params={"num_ues": 4, "wrong_arg": 1}
            )
        )
        with pytest.raises(SpecError, match="wrong_arg|testbed"):
            build_experiment(spec)

    def test_explicit_snr_must_cover_all_ues(self):
        spec = small_spec(
            scenario=ScenarioSpec(
                kind="explicit",
                params={"num_ues": 4, "terminals": [[0.5, [0, 1]]]},
                snr={"kind": "explicit", "by_ue": {"0": 20.0}},
            )
        )
        with pytest.raises(SpecError):
            build_experiment(spec)

    def test_bad_scheduler_params_raise_spec_error(self):
        spec = small_spec(
            schedulers={"blu": SchedulerSpec("blu", {"bogus_knob": 1})}
        )
        plan = build_experiment(spec)
        with pytest.raises(SpecError):
            plan.build_scheduler("blu")
