"""The reference engine checks every ``schedule()`` call against the scalar
scheduler oracle (``tests/reference/scheduling.py``).

A closed-loop reference run is only as strong as that check, so these
tests show it fires: a production scheduler that moves one grant's rate by
one ulp must fail a short reference run, for PF and for the speculative
scheduler — the latter also when the BLU controller builds it lazily,
after inference, inside the run.  Unperturbed runs report a non-zero
count of checked calls and equal the engine.
"""

import math

import pytest

from repro.core.scheduling.pf import ProportionalFairScheduler
from repro.core.scheduling.speculative import SpeculativeScheduler
from repro.experiments import (
    ExperimentSpec,
    ScenarioSpec,
    SchedulerSpec,
    build_experiment,
)
from repro.lte.resources import UplinkGrant
from repro.sim.config import SimulationConfig
from tests.reference import reference_simulation

CASES = [
    ("pf", ProportionalFairScheduler),
    ("speculative", SpeculativeScheduler),
    ("blu", SpeculativeScheduler),
]


def plan_for(kind: str):
    return build_experiment(
        ExperimentSpec(
            name="oracle-check",
            scenario=ScenarioSpec(
                kind="skewed",
                params={"num_ues": 6, "num_terminals": 3, "seed": 3},
                snr={"kind": "uniform", "seed": 7},
            ),
            sim=SimulationConfig(
                num_subframes=300, num_rbs=6, num_antennas=2
            ),
            schedulers={kind: SchedulerSpec(kind)},
            seed=5,
        )
    )


def perturb_one_rate(monkeypatch, cls) -> list:
    """Make ``cls.schedule`` raise the first granted rate it ever returns
    by one ulp; returns a list that records the perturbed grant."""
    original = cls.schedule
    perturbed = []

    def schedule(self, context):
        result = original(self, context)
        allocated = result.allocated_rbs()
        if allocated and not perturbed:
            rb_schedule = result.rb(allocated[0])
            grant = rb_schedule.grants[0]
            rb_schedule.grants[0] = UplinkGrant(
                grant.ue_id,
                grant.rb,
                math.nextafter(grant.rate_bps, math.inf),
                grant.pilot_index,
            )
            perturbed.append(grant)
        return result

    monkeypatch.setattr(cls, "schedule", schedule)
    return perturbed


@pytest.mark.parametrize("kind, cls", CASES)
def test_a_one_ulp_rate_change_fails_the_reference_run(monkeypatch, kind, cls):
    plan = plan_for(kind)
    perturbed = perturb_one_rate(monkeypatch, cls)
    simulation = reference_simulation(plan, kind)
    with pytest.raises(AssertionError, match="diverged from the scalar"):
        simulation.run()
    assert len(perturbed) == 1


@pytest.mark.parametrize("kind, cls", CASES)
def test_unperturbed_runs_are_checked_and_equal_the_engine(kind, cls):
    plan = plan_for(kind)
    simulation = reference_simulation(plan, kind)
    reference = simulation.run()
    assert simulation.oracle.checked > 0
    assert reference == plan.simulation(kind).run()
    # The spy is scoped to the reference's schedule stage.
    assert "schedule" in cls.__dict__
    assert cls.schedule.__qualname__ == f"{cls.__name__}.schedule"
