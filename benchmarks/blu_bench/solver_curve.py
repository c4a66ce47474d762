"""Time one cold BLU blueprint inference as the cell grows.

    PYTHONPATH=src python benchmarks/blu_bench/solver_curve.py \
        [--ues 24 48 72 96] [--seed 2017]

For each size N: a ``skewed`` topology with N UEs and N/4 hidden
terminals, the controller's Algorithm-1 measurement campaign (paper
defaults: 8 clients per subframe, 50 samples per pair) fed with access
drawn from the hidden terminals' Bernoulli activity, then the one
multi-start inference that ends the measurement phase, timed.  The
engine is left out, so the numbers are the solver's alone; they show
where its cost bends (it is dense in N).  Prints one line per size.
"""

from __future__ import annotations

import argparse
from time import perf_counter

import numpy as np
from repro.core.blueprint.inference import BlueprintInference
from repro.core.controller import BLUConfig
from repro.core.measurement.estimator import AccessEstimator
from repro.core.measurement.pair_scheduler import MeasurementScheduler
from repro.topology.scenarios import skewed_topology


def solve_once(num_ues: int, seed: int) -> dict:
    topology = skewed_topology(num_ues, max(1, num_ues // 4), seed=seed)
    config = BLUConfig()
    rng = np.random.default_rng(seed)
    q = np.asarray(topology.q)
    edges = [frozenset(edge) for edge in topology.edges]
    estimator = AccessEstimator(num_ues)
    campaign = MeasurementScheduler(
        num_ues=num_ues,
        distinct_per_subframe=config.measurement_k,
        samples=config.samples_per_pair,
    )
    while not campaign.finished:
        scheduled = campaign.next_schedule()
        silenced = set()
        for index in np.flatnonzero(rng.random(len(q)) < q):
            silenced |= edges[index]
        estimator.record_subframe(
            scheduled=scheduled,
            accessed=[ue for ue in scheduled if ue not in silenced],
        )
        campaign.record(sorted(scheduled))
    target = estimator.to_transformed(z=config.z_sigma)
    start = perf_counter()
    result = BlueprintInference(config.inference).infer(target)
    return {
        "ues": num_ues,
        "measurement_subframes": campaign.subframes_used,
        "infer_s": perf_counter() - start,
        "starts": len(result.outcomes),
        "iterations": sum(o.iterations for o in result.outcomes),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ues", type=int, nargs="+", default=[24, 48, 72, 96])
    parser.add_argument("--seed", type=int, default=2017)
    args = parser.parse_args(argv)
    for num_ues in args.ues:
        point = solve_once(num_ues, args.seed)
        print(f"{point['ues']:4d} UEs: infer {point['infer_s']:8.2f} s "
              f"({point['starts']} starts, {point['iterations']} repair "
              f"iterations) after {point['measurement_subframes']} "
              f"measurement subframes", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
