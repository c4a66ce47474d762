"""Seeded regression tests: the engine and the parallel runner must be
bit-exact with the scalar/serial reference.

The production engine and the scalar reference engine in
``tests/reference/`` consume RNG streams identically by construction;
these tests pin that contract for SISO, MU-MIMO, both activity kinds, the
SIC receiver, and a custom silencer.  The runner tests pin that
``n_jobs > 1`` returns results identical to serial execution.
"""

import warnings

import numpy as np
import pytest

from repro.core.scheduling.oracle import OracleScheduler
from repro.core.scheduling.pf import ProportionalFairScheduler
from repro.lte import phy
from repro.lte.channel import UplinkChannel, UplinkChannelBank
from repro.obs import PhaseTimer, Stopwatch
from repro.sim.config import SimulationConfig
from repro.sim.engine import CellSimulation
from repro.sim.runner import run_comparison, run_replications, run_sweep
from repro.topology.scenarios import skewed_topology, uniform_snrs
from repro.topology.scenarios import testbed_topology as make_testbed_topology
from tests.reference import ReferenceCellSimulation


def run_pair(topology, snrs, config, seed=11, scheduler=ProportionalFairScheduler,
             **kwargs):
    """Run the same seeded scenario on the engine and on the reference."""
    results = []
    for engine in (CellSimulation, ReferenceCellSimulation):
        simulation = engine(
            topology=topology,
            mean_snr_db=snrs,
            scheduler=scheduler(),
            config=config,
            seed=seed,
            **kwargs,
        )
        results.append(simulation.run())
    return results


class TestFastPathEquivalence:
    def test_siso_bit_exact(self):
        topology = make_testbed_topology(8, hts_per_ue=3, seed=5)
        snrs = uniform_snrs(topology.num_ues, seed=7)
        config = SimulationConfig(num_subframes=800, num_rbs=12, num_antennas=1)
        fast, legacy = run_pair(topology, snrs, config)
        assert fast == legacy
        assert fast.grants_issued > 0 and fast.grants_blocked > 0

    def test_mumimo_bit_exact(self):
        topology = skewed_topology(12, 5, seed=3)
        snrs = uniform_snrs(topology.num_ues, seed=9)
        config = SimulationConfig(num_subframes=800, num_rbs=10, num_antennas=4)
        fast, legacy = run_pair(topology, snrs, config)
        assert fast == legacy
        assert fast.grants_decoded > 0

    def test_markov_activity_bit_exact(self):
        topology = make_testbed_topology(6, hts_per_ue=2, seed=1)
        snrs = uniform_snrs(topology.num_ues, seed=2)
        config = SimulationConfig(
            num_subframes=700, num_rbs=8, num_antennas=2, activity_kind="markov"
        )
        fast, legacy = run_pair(topology, snrs, config)
        assert fast == legacy

    def test_sic_receiver_bit_exact(self):
        topology = make_testbed_topology(6, hts_per_ue=2, seed=4)
        snrs = uniform_snrs(topology.num_ues, seed=4)
        config = SimulationConfig(
            num_subframes=500, num_rbs=8, num_antennas=2, receiver="sic"
        )
        fast, legacy = run_pair(topology, snrs, config)
        assert fast == legacy

    def test_silencer_bit_exact(self):
        topology = make_testbed_topology(6, hts_per_ue=2, seed=6)
        snrs = uniform_snrs(topology.num_ues, seed=6)
        config = SimulationConfig(num_subframes=500, num_rbs=8)

        def silencer(active):
            # Any active terminal silences its UE id modulo the cell size.
            return {k % topology.num_ues for k in active}

        fast, legacy = run_pair(topology, snrs, config, silencer=silencer)
        assert fast == legacy

    def test_reschedule_every_subframe_bit_exact(self):
        topology = make_testbed_topology(6, hts_per_ue=2, seed=8)
        snrs = uniform_snrs(topology.num_ues, seed=8)
        config = SimulationConfig(num_subframes=500, num_rbs=8, num_antennas=2)
        fast, legacy = run_pair(topology, snrs, config, scheduler=OracleScheduler)
        assert fast == legacy

    def test_channel_bank_matches_scalar_channels(self):
        parent_a = np.random.default_rng(99)
        parent_b = np.random.default_rng(99)
        mean_rx = [-80.0, -72.5, -90.0]
        bank = UplinkChannelBank(mean_rx, num_rbs=6, rng=parent_a)
        channels = [
            UplinkChannel(
                rx, num_rbs=6,
                rng=np.random.default_rng(parent_b.integers(0, 2**63)),
            )
            for rx in mean_rx
        ]
        for _ in range(300):
            matrix = bank.step()
            for ue, channel in enumerate(channels):
                assert np.array_equal(matrix[ue], channel.step())


class TestReferenceIndependence:
    """The oracle must decode through the per-RB receiver, not through
    the engine's array decode it is meant to check."""

    def test_reference_decodes_through_receive_rb(self, monkeypatch):
        calls = []
        original = phy.receive_rb

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(phy, "receive_rb", counting)
        topology = skewed_topology(8, 4, seed=3)
        snrs = uniform_snrs(topology.num_ues, seed=9)
        config = SimulationConfig(
            num_subframes=300, num_rbs=6, num_antennas=2, harq_enabled=True
        )
        engine = CellSimulation(
            topology, snrs, ProportionalFairScheduler(), config, seed=4
        ).run()
        assert not calls, "the engine decoded through the per-RB receiver"
        reference = ReferenceCellSimulation(
            topology, snrs, ProportionalFairScheduler(), config, seed=4
        ).run()
        assert len(calls) >= reference.ul_subframes
        assert engine == reference


class TestParallelRunner:
    def setup_method(self):
        self.topology = make_testbed_topology(6, hts_per_ue=2, seed=5)
        self.snrs = uniform_snrs(self.topology.num_ues, seed=7)
        self.config = SimulationConfig(num_subframes=300, num_rbs=8)
        # Classes (not lambdas) so the work items pickle into workers.
        self.factories = {
            "pf": ProportionalFairScheduler,
            "oracle": OracleScheduler,
        }

    def test_comparison_parallel_identical(self):
        serial = run_comparison(
            self.topology, self.snrs, self.factories, self.config, seed=3
        )
        parallel = run_comparison(
            self.topology, self.snrs, self.factories, self.config, seed=3,
            n_jobs=2,
        )
        assert serial == parallel

    def test_replications_parallel_identical(self):
        serial = run_replications(
            self.topology, self.snrs, self.factories, self.config,
            seeds=(0, 1, 2),
        )
        parallel = run_replications(
            self.topology, self.snrs, self.factories, self.config,
            seeds=(0, 1, 2), n_jobs=2,
        )
        assert serial == parallel

    def test_sweep_parallel_identical(self):
        def build_case(value):
            topology = make_testbed_topology(4, hts_per_ue=value, seed=value)
            return topology, uniform_snrs(4, seed=1)

        def factories_for(value, topology):
            return {"pf": ProportionalFairScheduler}

        def config_for(value):
            return self.config

        serial = run_sweep([1, 2], build_case, factories_for, config_for, seed=5)
        parallel = run_sweep(
            [1, 2], build_case, factories_for, config_for, seed=5, n_jobs=2
        )
        assert [p.parameter for p in serial] == [p.parameter for p in parallel]
        assert [p.results for p in serial] == [p.results for p in parallel]

    def test_unpicklable_factories_fall_back_serially(self):
        lambdas = {
            "a": lambda: ProportionalFairScheduler(),
            "b": lambda: ProportionalFairScheduler(),
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = run_comparison(
                self.topology, self.snrs, lambdas, self.config, seed=3, n_jobs=2
            )
        assert any("picklable" in str(w.message) for w in caught)
        reference = run_comparison(
            self.topology, self.snrs, lambdas, self.config, seed=3
        )
        assert results == reference


class TestPerfInstrumentation:
    def test_phase_timer_collects_engine_phases(self):
        topology = make_testbed_topology(4, hts_per_ue=1, seed=2)
        snrs = uniform_snrs(topology.num_ues, seed=2)
        config = SimulationConfig(num_subframes=200, num_rbs=6)
        timer = PhaseTimer()
        untimed = CellSimulation(
            topology, snrs, ProportionalFairScheduler(), config, seed=1
        ).run()
        timed = CellSimulation(
            topology, snrs, ProportionalFairScheduler(), config, seed=1,
            phase_timer=timer,
        ).run()
        assert timed == untimed  # instrumentation cannot change results
        for phase in ("activity", "channels", "schedule", "receive"):
            assert timer.count(phase) > 0
            assert timer.total_s(phase) >= 0.0
        assert set(dict(timer.as_dict())) >= {"activity", "channels"}

    def test_stopwatch_laps(self):
        watch = Stopwatch()
        with watch:
            pass
        with watch:
            pass
        assert len(watch.laps) == 2
        assert watch.total_s >= 0.0
        assert watch.last_s == watch.laps[-1]
        with pytest.raises(RuntimeError):
            watch.stop()
