"""Ablation (Section 5) — speculative over-scheduling on a NOMA receiver.

The paper's related-work section claims BLU's speculative scheduler
composes with NOMA: successive interference cancellation turns many
over-scheduling "collisions" (more clear streams than antennas) into
decodable stacks whenever the streams are power-separated.  This ablation
runs the same over-scheduled cell against the conventional (<= M streams)
receiver and the SIC receiver.
"""

from repro import (
    CellSimulation,
    ProportionalFairScheduler,
    SimulationConfig,
    SpeculativeScheduler,
    TopologyJointProvider,
)
from repro.analysis import format_table
from repro.topology.graph import InterferenceTopology

from common import MASTER_SEED, emit

NUM_UES = 8


def run_experiment():
    # Every client heavily blocked (over-scheduling always worthwhile) with
    # strong power diversity (near/far clients), the regime NOMA feeds on.
    topology = InterferenceTopology.build(
        NUM_UES, [(0.55, [u]) for u in range(NUM_UES)]
    )
    snrs = {u: (34.0 if u % 2 == 0 else 12.0) for u in range(NUM_UES)}
    provider = TopologyJointProvider(topology)
    factories = {
        "pf": ProportionalFairScheduler,
        "blu": lambda: SpeculativeScheduler(provider),
    }

    results = {}
    for receiver in ("linear", "sic"):
        config = SimulationConfig(
            num_subframes=3000, num_rbs=8, receiver=receiver
        )
        results[receiver] = {
            name: CellSimulation(
                topology, snrs, make(), config, seed=MASTER_SEED
            ).run()
            for name, make in factories.items()
        }
    return results


def test_ablation_noma(benchmark, capsys):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = []
    for receiver in ("linear", "sic"):
        blu = results[receiver]["blu"]
        pf = results[receiver]["pf"]
        rows.append(
            [
                receiver,
                pf.aggregate_throughput_mbps,
                blu.aggregate_throughput_mbps,
                blu.aggregate_throughput_mbps / pf.aggregate_throughput_mbps,
                blu.grant_collision_fraction,
            ]
        )
    emit(
        capsys,
        format_table(
            ["receiver", "PF Mbps", "BLU Mbps", "BLU gain", "BLU collision frac"],
            rows,
            title="Ablation — BLU over a conventional vs SIC (NOMA) receiver",
        ),
    )
    linear_blu = results["linear"]["blu"]
    sic_blu = results["sic"]["blu"]
    # Shape: SIC converts collisions into throughput on top of BLU's gain.
    assert (
        sic_blu.aggregate_throughput_mbps
        > linear_blu.aggregate_throughput_mbps
    )
    assert sic_blu.grants_collided < linear_blu.grants_collided
    # BLU still beats PF under both receivers.
    for receiver in ("linear", "sic"):
        assert (
            results[receiver]["blu"].aggregate_throughput_mbps
            > results[receiver]["pf"].aggregate_throughput_mbps
        )
