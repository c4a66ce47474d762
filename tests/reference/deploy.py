"""The scalar deployment build: the test oracle for ``build_deployment``.

It keeps the formulation :func:`repro.deploy.model.build_deployment`
replaced: pairwise distances through a ``(n, m, 2)`` difference cube,
received power and ACLR attenuation out of place, a per-cell
classification loop that visits every ambient WiFi node and every
foreign UE with one scalar index and one ``np.flatnonzero`` each, and
per-cell coupling reductions over index lists with shared-WiFi coupling
as a ``(wifi, cells, cells)`` ``np.minimum`` cube.  Placement, channel
assignment and clustering are the production helpers: they did not
change.  Built from the same spec, both must agree bit for bit.
Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.deploy.model import (
    CellView,
    CrossCellTerminal,
    Deployment,
    _assign_cell_channels,
    _bounding_box,
    _place_enbs,
    _positions_array,
)
from repro.deploy.partition import coupling_clusters
from repro.deploy.spec import DeploymentSpec
from repro.errors import DeploymentError
from repro.lte import consts
from repro.spectrum.channels import ChannelPlan
from repro.topology.geometry import Position, disc_positions
from repro.topology.graph import InterferenceTopology

__all__ = ["reference_build_deployment"]


def _rx_power_dbm(
    tx_power_dbm: float, distance_m: np.ndarray, exponent: float
) -> np.ndarray:
    """Vectorized log-distance received power (mirrors ``PathLossModel``)."""
    d = np.maximum(np.asarray(distance_m, dtype=float), 1.0)
    return tx_power_dbm - (40.0 + 10.0 * exponent * np.log10(d))


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances, shape ``(len(a), len(b))``."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def _attenuate_cross_channel(
    plan: ChannelPlan,
    cell_channels: Tuple[int, ...],
    home_cell: np.ndarray,
    ue_at_enb: np.ndarray,
    ue_at_ue: np.ndarray,
    wifi_at_enb: np.ndarray,
    wifi_at_ue: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Tuple[int, ...]]:
    """ACLR-attenuated copies of every received-power map.

    Each entry loses ``aclr_db(listener channel, transmitter channel)``;
    listeners hear through their cell's channel filter (a UE or eNB on
    channel 1 receives a channel-3 transmitter 40+ dB down).  WiFi nodes
    inherit the channel of the eNB they are received strongest at — the
    AP serving that area — and are attenuated like any transmitter.
    Same-channel pairs lose exactly 0.0 dB, so co-channel classification
    is untouched.
    """
    cell_ch = np.asarray(cell_channels, dtype=int)
    ue_ch = cell_ch[home_cell]
    aclr = plan.leakage_matrix_db()

    ue_at_enb = ue_at_enb - aclr[np.ix_(ue_ch, cell_ch)]
    ue_at_ue = ue_at_ue - aclr[np.ix_(ue_ch, ue_ch)]
    if wifi_at_enb.shape[0]:
        wifi_home = wifi_at_enb.argmax(axis=1)
        wifi_ch = cell_ch[wifi_home]
        wifi_at_enb = wifi_at_enb - aclr[np.ix_(wifi_ch, cell_ch)]
        wifi_at_ue = wifi_at_ue - aclr[np.ix_(wifi_ch, ue_ch)]
        wifi_channels = tuple(int(c) for c in wifi_ch)
    else:
        wifi_channels = ()
    return ue_at_enb, ue_at_ue, wifi_at_enb, wifi_at_ue, wifi_channels


def reference_build_deployment(spec: DeploymentSpec) -> Deployment:
    """The deployment ``build_deployment`` must produce, built the
    scalar way (see the module docstring)."""
    root = np.random.SeedSequence(spec.seed)
    enb_ss, wifi_ss, cells_ss, clusters_ss = root.spawn(4)

    enbs = _place_enbs(spec, np.random.default_rng(enb_ss))
    num_cells = len(enbs)
    if num_cells < 1:
        raise DeploymentError("deployment placed no eNBs")

    cell_children = cells_ss.spawn(num_cells)
    placement_seeds: List[np.random.SeedSequence] = []
    sim_seeds: List[np.random.SeedSequence] = []
    ue_positions: List[Position] = []
    for cell_id in range(num_cells):
        place_ss, sim_ss = cell_children[cell_id].spawn(2)
        placement_seeds.append(place_ss)
        sim_seeds.append(sim_ss)
        ue_positions.extend(
            disc_positions(
                spec.ues_per_cell,
                enbs[cell_id],
                spec.cell_radius_m,
                np.random.default_rng(place_ss),
            )
        )

    wifi_rng = np.random.default_rng(wifi_ss)
    num_wifi = spec.wifi_per_cell * num_cells
    radio = spec.radio
    if num_wifi > 0:
        x0, y0, x1, y1 = _bounding_box(enbs, spec.cell_radius_m)
        xs = wifi_rng.uniform(x0, x1, size=num_wifi)
        ys = wifi_rng.uniform(y0, y1, size=num_wifi)
        wifi_positions = tuple(
            Position(float(x), float(y)) for x, y in zip(xs, ys)
        )
        wifi_activity = tuple(
            float(q)
            for q in wifi_rng.uniform(
                radio.activity_low, radio.activity_high, size=num_wifi
            )
        )
    else:
        wifi_positions = ()
        wifi_activity = ()

    # -- vectorized received-power maps ------------------------------------
    ue_xy = _positions_array(tuple(ue_positions))
    enb_xy = _positions_array(enbs)
    exponent = radio.path_loss_exponent
    # (total_ues, num_cells) and (total_ues, total_ues)
    ue_at_enb = _rx_power_dbm(
        radio.ue_tx_power_dbm, _distances(ue_xy, enb_xy), exponent
    )
    ue_at_ue = _rx_power_dbm(
        radio.ue_tx_power_dbm, _distances(ue_xy, ue_xy), exponent
    )
    if num_wifi > 0:
        wifi_xy = _positions_array(wifi_positions)
        wifi_at_enb = _rx_power_dbm(
            radio.wifi_tx_power_dbm, _distances(wifi_xy, enb_xy), exponent
        )
        wifi_at_ue = _rx_power_dbm(
            radio.wifi_tx_power_dbm, _distances(wifi_xy, ue_xy), exponent
        )
    else:
        wifi_at_enb = np.zeros((0, num_cells))
        wifi_at_ue = np.zeros((0, len(ue_positions)))

    home_cell = np.repeat(np.arange(num_cells), spec.ues_per_cell)
    ue_ed = radio.ue_ed_threshold_dbm
    enb_ed = radio.enb_ed_threshold_dbm

    # -- channel axis ------------------------------------------------------
    # Channelizing attenuates every cross-channel power entry by the
    # plan's ACLR *before* sensing classification and cluster coupling;
    # the 1-channel default skips the whole block, leaving the maps (and
    # therefore every downstream float) untouched.
    cell_channels: Tuple[int, ...] = (0,) * num_cells
    wifi_channels: Tuple[int, ...] = (0,) * num_wifi
    if spec.num_channels > 1:
        plan = ChannelPlan.spaced(
            spec.num_channels, spacing_mhz=spec.channel_spacing_mhz
        )
        base_coupling = _coupling_matrix(
            num_cells, home_cell, ue_at_ue, ue_at_enb, wifi_at_ue,
            wifi_at_enb, ue_ed, enb_ed,
        )
        cell_channels = _assign_cell_channels(spec, num_cells, base_coupling)
        (
            ue_at_enb,
            ue_at_ue,
            wifi_at_enb,
            wifi_at_ue,
            wifi_channels,
        ) = _attenuate_cross_channel(
            plan, cell_channels, home_cell, ue_at_enb, ue_at_ue,
            wifi_at_enb, wifi_at_ue,
        )

    cells: List[CellView] = []
    for cell_id in range(num_cells):
        local = np.flatnonzero(home_cell == cell_id)
        terminals: List[Tuple[float, List[int]]] = []
        terminal_wifi: List[int] = []
        cross: List[CrossCellTerminal] = []
        enb_idle = 1.0 - spec.sim.enb_busy_probability

        # Ambient WiFi interferers, in wifi-id order.
        for wifi_id in range(num_wifi):
            if wifi_at_enb[wifi_id, cell_id] >= enb_ed:
                enb_idle *= 1.0 - wifi_activity[wifi_id]
                continue
            audible = np.flatnonzero(wifi_at_ue[wifi_id, local] >= ue_ed)
            if audible.size:
                terminals.append(
                    (wifi_activity[wifi_id], [int(u) for u in audible])
                )
                terminal_wifi.append(wifi_id)

        # Cross-cell UE transmitters, in global-ue-id order.
        foreign = np.flatnonzero(home_cell != cell_id)
        for ue_global in foreign:
            if ue_at_enb[ue_global, cell_id] >= enb_ed:
                enb_idle *= 1.0 - radio.ue_uplink_activity
                continue
            audible = np.flatnonzero(ue_at_ue[ue_global, local] >= ue_ed)
            if audible.size:
                cross.append(
                    CrossCellTerminal(
                        terminal_index=len(terminals),
                        source_cell=int(home_cell[ue_global]),
                        source_ue=int(ue_global),
                    )
                )
                terminals.append(
                    (radio.ue_uplink_activity, [int(u) for u in audible])
                )
                terminal_wifi.append(-1)

        topology = InterferenceTopology.build(len(local), terminals)
        snrs = {
            int(pos): float(
                ue_at_enb[ue_global, cell_id] - consts.NOISE_FLOOR_10MHZ_DBM
            )
            for pos, ue_global in enumerate(local)
        }
        cells.append(
            CellView(
                cell_id=cell_id,
                enb=enbs[cell_id],
                ue_ids=tuple(int(u) for u in local),
                topology=topology,
                mean_snr_db=snrs,
                enb_busy_probability=min(max(1.0 - enb_idle, 0.0), 0.999),
                terminal_wifi_ids=tuple(terminal_wifi),
                cross_cell_terminals=tuple(cross),
            )
        )

    coupling = _coupling_matrix(
        num_cells, home_cell, ue_at_ue, ue_at_enb, wifi_at_ue, wifi_at_enb,
        ue_ed, enb_ed,
    )
    clusters = coupling_clusters(coupling, spec.coupling_margin_db)
    cluster_seeds = tuple(clusters_ss.spawn(len(clusters)))

    return Deployment(
        spec=spec,
        enb_positions=enbs,
        ue_positions=tuple(ue_positions),
        wifi_positions=wifi_positions,
        wifi_activity=wifi_activity,
        cells=cells,
        coupling_db=coupling,
        clusters=clusters,
        cell_sim_seeds=tuple(sim_seeds),
        cell_placement_seeds=tuple(placement_seeds),
        cluster_seeds=cluster_seeds,
        cell_channels=cell_channels,
        wifi_channels=wifi_channels,
    )


def _coupling_matrix(
    num_cells: int,
    home_cell: np.ndarray,
    ue_at_ue: np.ndarray,
    ue_at_enb: np.ndarray,
    wifi_at_ue: np.ndarray,
    wifi_at_enb: np.ndarray,
    ue_ed: float,
    enb_ed: float,
) -> np.ndarray:
    """The symmetric cell-coupling matrix, in dB relative to ED thresholds.

    ``coupling[a, b]`` is the strongest margin by which any transmitter
    of one cell reaches into the other's sensing footprint (its UEs at
    the UE ED threshold, its eNB at the eNB ED threshold), or — for a
    shared ambient WiFi node ``w`` — the *weaker* of ``w``'s margins into
    the two cells (``w`` couples both only if it reaches both).  A value
    ``>= -margin_db`` makes the cells coupled; the diagonal is ``+inf``.
    """
    total_ues = ue_at_ue.shape[0]
    # margin of UE u's uplink into cell c's sensing footprint: (UEs, cells)
    ue_margin = ue_at_enb - enb_ed
    for cell in range(num_cells):
        members = np.flatnonzero(home_cell == cell)
        if members.size:
            at_ues = ue_at_ue[:, members].max(axis=1) - ue_ed
            ue_margin[:, cell] = np.maximum(ue_margin[:, cell], at_ues)
    # A UE's margin into its own cell is not coupling.
    ue_margin[np.arange(total_ues), home_cell] = -np.inf

    # per-home-cell reduction: strongest member margin into each cell.
    direct = np.full((num_cells, num_cells), -np.inf)
    for cell in range(num_cells):
        members = np.flatnonzero(home_cell == cell)
        if members.size:
            direct[cell, :] = ue_margin[members, :].max(axis=0)
    direct = np.maximum(direct, direct.T)

    coupling = direct
    if wifi_at_ue.shape[0]:
        wifi_margin = wifi_at_enb - enb_ed  # (wifi, cells)
        for cell in range(num_cells):
            members = np.flatnonzero(home_cell == cell)
            if members.size:
                at_ues = wifi_at_ue[:, members].max(axis=1) - ue_ed
                wifi_margin[:, cell] = np.maximum(wifi_margin[:, cell], at_ues)
        # Shared-interferer coupling: min of the two per-cell margins,
        # maximized over WiFi nodes.
        shared = np.minimum(
            wifi_margin[:, :, None], wifi_margin[:, None, :]
        ).max(axis=0)
        np.fill_diagonal(shared, -np.inf)
        coupling = np.maximum(coupling, shared)

    np.fill_diagonal(coupling, np.inf)
    return coupling
