"""Property: the array-native deployment build equals its scalar oracle.

``build_deployment`` thresholds each received-power map once and visits,
per cell, only the transmitters that reach it; it computes the power maps
in place and the shared-WiFi coupling as a running max over WiFi nodes.
The scalar form it replaced lives in :mod:`tests.reference.deploy`.  Built
from the same spec, both must agree bit for bit: busy probabilities and
SNRs as ``float.hex``, coupling bytes, terminal lists, cross-cell
terminals, channels and clusters.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deploy import DeploymentSpec, PlacementSpec, RadioSpec, build_deployment
from tests.reference.deploy import reference_build_deployment


def fingerprint(deployment):
    """Every output of a build, with floats as exact hex strings."""
    cells = [
        (
            cell.cell_id,
            cell.enb,
            cell.ue_ids,
            cell.topology.num_ues,
            [q.hex() for q in cell.topology.q],
            [sorted(edges) for edges in cell.topology.edges],
            [(ue, snr.hex()) for ue, snr in cell.mean_snr_db.items()],
            cell.enb_busy_probability.hex(),
            cell.terminal_wifi_ids,
            cell.cross_cell_terminals,
        )
        for cell in deployment.cells
    ]
    return {
        "cells": cells,
        "coupling": deployment.coupling_db.tobytes(),
        "clusters": deployment.clusters,
        "cell_channels": deployment.cell_channels,
        "wifi_channels": deployment.wifi_channels,
        "positions": (
            deployment.enb_positions,
            deployment.ue_positions,
            deployment.wifi_positions,
            deployment.wifi_activity,
        ),
    }


def assert_matches_oracle(spec):
    built = fingerprint(build_deployment(spec))
    oracle = fingerprint(reference_build_deployment(spec))
    for key in oracle:
        assert built[key] == oracle[key], f"{key} differs from the oracle"


@st.composite
def deployment_specs(draw):
    if draw(st.booleans()):
        rows = draw(st.integers(1, 3))
        cols = draw(st.integers(1, 4))
        spacing = draw(st.sampled_from([35.0, 60.0, 90.0, 150.0]))
        placement = PlacementSpec(
            "grid", {"rows": rows, "cols": cols, "spacing_m": spacing}
        )
    else:
        placement = PlacementSpec(
            "ppp",
            {
                "num_cells": draw(st.integers(1, 12)),
                "area_m": draw(st.sampled_from([120.0, 250.0, 500.0])),
            },
        )
    num_channels = draw(st.sampled_from([1, 3]))
    return DeploymentSpec(
        name="oracle",
        placement=placement,
        ues_per_cell=draw(st.integers(1, 6)),
        wifi_per_cell=draw(st.sampled_from([0, 1, 3])),
        cell_radius_m=draw(st.sampled_from([15.0, 25.0, 40.0])),
        radio=RadioSpec(
            path_loss_exponent=draw(st.sampled_from([2.7, 3.0, 3.5]))
        ),
        num_channels=num_channels,
        channel_assignment=draw(st.sampled_from(["round-robin", "coloring"])),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


@given(deployment_specs())
@settings(max_examples=40, deadline=None)
def test_build_matches_scalar_oracle(spec):
    assert_matches_oracle(spec)


def test_bench_shape_matches_scalar_oracle():
    """The benchmark campaign's shape: 100 PPP cells, 1000 UEs, 200 WiFi."""
    spec = DeploymentSpec(
        name="oracle-bench-shape",
        placement=PlacementSpec("ppp", {"num_cells": 100, "area_m": 2800.0}),
        ues_per_cell=10,
        wifi_per_cell=2,
        seed=3,
    )
    deployment = build_deployment(spec)
    assert (deployment.num_cells, deployment.total_ues) == (100, 1000)
    assert deployment.cross_cell_terminal_count() > 0
    assert_matches_oracle(spec)
