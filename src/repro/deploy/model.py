"""The deployment model: many eNBs sharing unlicensed spectrum.

:func:`build_deployment` turns a :class:`~repro.deploy.spec.DeploymentSpec`
into a :class:`Deployment` — seeded eNB/UE/WiFi placement, per-cell
:class:`~repro.topology.graph.InterferenceTopology` construction
(including *cross-cell hidden terminals*), the cell-coupling graph, and
its partition into weakly-coupled interference clusters.

Sensing classification generalizes the single-cell scenario generator
(:mod:`repro.topology.generator`) to a deployment.  For each cell ``c``,
a candidate interferer (an ambient WiFi node, or a UE *homed in another
cell* whose uplink bursts leak into ``c``) is classified by received
power:

* audible at eNB ``c`` (>= the eNB ED threshold): it delays TxOP
  acquisition — folded into the cell's eNB busy probability;
* hidden from eNB ``c`` but audible at >= 1 of ``c``'s UEs (>= the UE ED
  threshold): a hidden terminal of cell ``c``, with one topology edge per
  audible UE — when the transmitter is a foreign UE this is a
  **cross-cell hidden terminal**;
* audible nowhere in ``c``: inert for that cell.

Entropy derives from one ``numpy.random.SeedSequence.spawn`` tree rooted
at ``spec.seed``::

    root ── enb placement ── wifi placement/activity
         ── cells ── cell 0 ── [ue placement, engine stream]
         │        ── cell 1 ── ...
         └─ clusters ── cluster 0 stream, cluster 1 stream, ...

Every stream is spawned exactly once at build time and stored on the
:class:`Deployment`, so two builds of the same spec produce identical
streams, no two cells ever share entropy, and per-cell simulations are
bit-identical no matter which process (or cluster shard) runs them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.deploy.partition import coupling_clusters
from repro.deploy.spec import DeploymentSpec
from repro.errors import DeploymentError
from repro.lte import consts
from repro.sim.config import SimulationConfig
from repro.spectrum.channels import ChannelPlan
from repro.topology.geometry import (
    Position,
    disc_positions,
    grid_positions,
    poisson_positions,
)
from repro.topology.graph import InterferenceTopology

__all__ = [
    "CrossCellTerminal",
    "CellView",
    "Deployment",
    "build_deployment",
]


@dataclass(frozen=True)
class CrossCellTerminal:
    """Provenance of one cross-cell hidden terminal in a cell's topology.

    ``terminal_index`` indexes the host cell's
    :class:`~repro.topology.graph.InterferenceTopology`; the source is UE
    ``source_ue`` (a *global* UE id) homed in ``source_cell``.
    """

    terminal_index: int
    source_cell: int
    source_ue: int


@dataclass(frozen=True)
class CellView:
    """One cell of a deployment, ready to simulate independently.

    UE ids inside ``topology`` / ``mean_snr_db`` are cell-local
    (``0..ues_per_cell-1``); ``ue_ids`` maps local index to global UE id.
    """

    cell_id: int
    enb: Position
    ue_ids: Tuple[int, ...]
    topology: InterferenceTopology
    mean_snr_db: Dict[int, float]
    #: Busy probability of eNB-audible interference (foreign UEs + WiFi),
    #: already combined with the spec-level ``sim.enb_busy_probability``.
    enb_busy_probability: float
    #: WiFi node ids behind each hidden terminal (-1 for cross-cell UEs),
    #: aligned with ``topology`` terminal order.
    terminal_wifi_ids: Tuple[int, ...]
    cross_cell_terminals: Tuple[CrossCellTerminal, ...]

    @property
    def num_ues(self) -> int:
        return len(self.ue_ids)

    def global_ue(self, local_ue: int) -> int:
        """The deployment-wide id of a cell-local UE index."""
        return self.ue_ids[local_ue]

    def sim_config(self, base: SimulationConfig) -> SimulationConfig:
        """The cell's engine config: base with its own eNB busy probability."""
        return dataclasses.replace(
            base, enb_busy_probability=self.enb_busy_probability
        )


@dataclass
class Deployment:
    """A fully built multi-cell deployment with its cluster partition."""

    spec: DeploymentSpec
    enb_positions: Tuple[Position, ...]
    ue_positions: Tuple[Position, ...]
    wifi_positions: Tuple[Position, ...]
    wifi_activity: Tuple[float, ...]
    cells: List[CellView]
    #: Symmetric coupling-weight matrix in dB relative to the ED
    #: thresholds (``>= -margin`` means coupled); ``-inf`` when unrelated.
    coupling_db: np.ndarray
    clusters: Tuple[Tuple[int, ...], ...]
    #: Per-cell engine SeedSequences (spawned once, never re-spawned).
    cell_sim_seeds: Tuple[np.random.SeedSequence, ...]
    #: Per-cell placement SeedSequences (recorded for auditability).
    cell_placement_seeds: Tuple[np.random.SeedSequence, ...]
    #: Per-cluster SeedSequences (fault-injection and any future
    #: cluster-level randomness).
    cluster_seeds: Tuple[np.random.SeedSequence, ...]
    #: Per-cell operating channel (all zeros for 1-channel deployments)
    #: and the channel each ambient WiFi node serves (that of the eNB it
    #: is received strongest at).
    cell_channels: Tuple[int, ...] = ()
    wifi_channels: Tuple[int, ...] = ()

    def cells_on_channel(self, channel: int) -> Tuple[int, ...]:
        """Cell ids assigned to ``channel``."""
        return tuple(
            cell_id
            for cell_id, assigned in enumerate(self.cell_channels)
            if assigned == channel
        )

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def total_ues(self) -> int:
        return len(self.ue_positions)

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    def cluster_of(self, cell_id: int) -> int:
        """Index of the cluster containing ``cell_id``."""
        for index, cluster in enumerate(self.clusters):
            if cell_id in cluster:
                return index
        raise DeploymentError(f"cell {cell_id} is in no cluster")

    def cross_cell_terminal_count(self) -> int:
        """Total cross-cell hidden terminals across every cell's graph."""
        return sum(len(cell.cross_cell_terminals) for cell in self.cells)

    def shared_wifi_cells(self) -> Dict[int, Tuple[int, ...]]:
        """``{wifi_id: cells}`` for WiFi nodes hidden-terminal in >= 2 cells."""
        seen: Dict[int, List[int]] = {}
        for cell in self.cells:
            for wifi_id in cell.terminal_wifi_ids:
                if wifi_id >= 0:
                    seen.setdefault(wifi_id, []).append(cell.cell_id)
        return {
            wifi_id: tuple(cells)
            for wifi_id, cells in sorted(seen.items())
            if len(cells) > 1
        }


def _rx_power_map(
    tx_power_dbm: float, a: np.ndarray, b: np.ndarray, exponent: float
) -> np.ndarray:
    """Log-distance received power (mirrors ``PathLossModel``) from each
    point of ``a`` at each point of ``b``, shape ``(len(a), len(b))``.

    Every step after the two coordinate differences writes into one
    buffer; the IEEE operations and their order are those of
    ``tx - (40 + 10·exponent·log10(max(‖a - b‖, 1)))``, so the result is
    bit-identical to evaluating that expression out of place.
    """
    power = a[:, None, 0] - b[None, :, 0]
    dy = a[:, None, 1] - b[None, :, 1]
    power *= power
    dy *= dy
    power += dy
    del dy
    np.sqrt(power, out=power)
    np.maximum(power, 1.0, out=power)
    np.log10(power, out=power)
    power *= 10.0 * exponent
    power += 40.0
    np.subtract(tx_power_dbm, power, out=power)
    return power


def _positions_array(positions: Tuple[Position, ...]) -> np.ndarray:
    return np.array([[p.x, p.y] for p in positions], dtype=float)


def _place_enbs(
    spec: DeploymentSpec, rng: np.random.Generator
) -> Tuple[Position, ...]:
    placement = spec.placement
    if placement.kind == "grid":
        rows = int(placement.params.get("rows", 1))
        cols = int(placement.params.get("cols", 1))
        spacing = float(placement.params.get("spacing_m", 120.0))
        return grid_positions(rows, cols, spacing, origin_m=spec.cell_radius_m)
    num_cells = int(placement.params.get("num_cells", 1))
    area = float(placement.params.get("area_m", 500.0))
    return poisson_positions(num_cells, area, area, rng)


def _bounding_box(
    enbs: Tuple[Position, ...], margin_m: float
) -> Tuple[float, float, float, float]:
    xs = [p.x for p in enbs]
    ys = [p.y for p in enbs]
    return (
        min(xs) - margin_m,
        min(ys) - margin_m,
        max(xs) + margin_m,
        max(ys) + margin_m,
    )


def _assign_cell_channels(
    spec: DeploymentSpec, num_cells: int, base_coupling: np.ndarray
) -> Tuple[int, ...]:
    """Per-cell channels: the deployment-level channel-selection lever.

    ``round-robin`` stripes channels by cell id.  ``coloring`` walks
    cells in id order and greedily parks each on the channel least used
    by its already-colored *coupled* neighbours (ties to the lower
    channel index) — classic graph coloring of the unattenuated coupling
    graph, so cells that would contend co-channel are channelized apart
    and the subsequent ACLR-attenuated partition can split them into
    separate clusters.
    """
    n = spec.num_channels
    if spec.channel_assignment == "round-robin":
        return tuple(cell_id % n for cell_id in range(num_cells))
    margin = spec.coupling_margin_db
    channels: List[int] = []
    for cell_id in range(num_cells):
        neighbour_load = [0] * n
        for other, other_channel in enumerate(channels):
            if base_coupling[cell_id, other] >= -margin:
                neighbour_load[other_channel] += 1
        channels.append(int(np.argmin(neighbour_load)))
    return tuple(channels)


def _attenuate_cross_channel(
    plan: ChannelPlan,
    cell_channels: Tuple[int, ...],
    home_cell: np.ndarray,
    ue_at_enb: np.ndarray,
    ue_at_ue: np.ndarray,
    wifi_at_enb: np.ndarray,
    wifi_at_ue: np.ndarray,
) -> Tuple[int, ...]:
    """Attenuate every received-power map in place by the plan's ACLR;
    return the channel each ambient WiFi node serves.

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

    ue_at_enb -= aclr[np.ix_(ue_ch, cell_ch)]
    ue_at_ue -= aclr[np.ix_(ue_ch, ue_ch)]
    if not wifi_at_enb.shape[0]:
        return ()
    wifi_ch = cell_ch[wifi_at_enb.argmax(axis=1)]
    wifi_at_enb -= aclr[np.ix_(wifi_ch, cell_ch)]
    wifi_at_ue -= aclr[np.ix_(wifi_ch, ue_ch)]
    return tuple(int(c) for c in wifi_ch)


def build_deployment(spec: DeploymentSpec) -> Deployment:
    """Build the deployment a spec describes, deterministically from its seed.

    The entire construction — placement, activity draws, per-cell
    classification, coupling, clustering — is a pure function of the
    spec: a campaign builds it once in the parent and ships each cluster
    its built cells, and a resume rebuilds the identical deployment from
    the checkpoint manifest's spec alone.

    Classification thresholds each received-power map once; a cell then
    visits only the transmitters that reach its eNB or a UE.  The scalar
    form it replaced (one visit per WiFi node and foreign UE per cell)
    lives on as the test oracle ``tests/reference/deploy.py``, and both
    agree bit for bit.
    """
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

    # -- received-power maps -----------------------------------------------
    ue_xy = _positions_array(tuple(ue_positions))
    enb_xy = _positions_array(enbs)
    exponent = radio.path_loss_exponent
    # (total_ues, num_cells) and (total_ues, total_ues)
    ue_at_enb = _rx_power_map(radio.ue_tx_power_dbm, ue_xy, enb_xy, exponent)
    ue_at_ue = _rx_power_map(radio.ue_tx_power_dbm, ue_xy, ue_xy, exponent)
    if num_wifi > 0:
        wifi_xy = _positions_array(wifi_positions)
        wifi_at_enb = _rx_power_map(
            radio.wifi_tx_power_dbm, wifi_xy, enb_xy, exponent
        )
        wifi_at_ue = _rx_power_map(
            radio.wifi_tx_power_dbm, wifi_xy, ue_xy, exponent
        )
    else:
        wifi_at_enb = np.zeros((0, num_cells))
        wifi_at_ue = np.zeros((0, len(ue_positions)))

    per_cell = spec.ues_per_cell
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
            per_cell, ue_at_ue, ue_at_enb, wifi_at_ue, wifi_at_enb,
            ue_ed, enb_ed,
        )
        cell_channels = _assign_cell_channels(spec, num_cells, base_coupling)
        home_cell = np.repeat(np.arange(num_cells), per_cell)
        wifi_channels = _attenuate_cross_channel(
            plan, cell_channels, home_cell, ue_at_enb, ue_at_ue,
            wifi_at_enb, wifi_at_ue,
        )

    # -- sensing classification ----------------------------------------------
    # Thresholded once; each cell then visits only the transmitters that
    # reach it, in the order the classification is defined in (WiFi in
    # id order, then foreign UEs in global id order), so ``enb_idle``
    # multiplies the same factors in the same sequence.
    wifi_heard_at = wifi_at_enb >= enb_ed  # (wifi, cells)
    wifi_audible_at = wifi_at_ue >= ue_ed  # (wifi, total_ues)
    ue_heard_at = ue_at_enb >= enb_ed  # (total_ues, cells)
    ue_audible_at = ue_at_ue >= ue_ed  # (total_ues, total_ues)
    cells: List[CellView] = []
    for cell_id in range(num_cells):
        own = slice(cell_id * per_cell, (cell_id + 1) * per_cell)
        terminals: List[Tuple[float, List[int]]] = []
        terminal_wifi: List[int] = []
        cross: List[CrossCellTerminal] = []
        enb_idle = 1.0 - spec.sim.enb_busy_probability

        # Ambient WiFi interferers, in wifi-id order.
        heard = wifi_heard_at[:, cell_id]
        audible = wifi_audible_at[:, own]
        for wifi_id in np.flatnonzero(heard | audible.any(axis=1)).tolist():
            if heard[wifi_id]:
                enb_idle *= 1.0 - wifi_activity[wifi_id]
                continue
            terminals.append(
                (wifi_activity[wifi_id], np.flatnonzero(audible[wifi_id]).tolist())
            )
            terminal_wifi.append(wifi_id)

        # Cross-cell UE transmitters, in global-ue-id order.
        heard = ue_heard_at[:, cell_id]
        audible = ue_audible_at[:, own]
        reaching = heard | audible.any(axis=1)
        reaching[own] = False
        for ue_global in np.flatnonzero(reaching).tolist():
            if heard[ue_global]:
                enb_idle *= 1.0 - radio.ue_uplink_activity
                continue
            cross.append(
                CrossCellTerminal(
                    terminal_index=len(terminals),
                    source_cell=ue_global // per_cell,
                    source_ue=ue_global,
                )
            )
            terminals.append(
                (radio.ue_uplink_activity, np.flatnonzero(audible[ue_global]).tolist())
            )
            terminal_wifi.append(-1)

        topology = InterferenceTopology.build(per_cell, terminals)
        snrs = (ue_at_enb[own, cell_id] - consts.NOISE_FLOOR_10MHZ_DBM).tolist()
        cells.append(
            CellView(
                cell_id=cell_id,
                enb=enbs[cell_id],
                ue_ids=tuple(range(own.start, own.stop)),
                topology=topology,
                mean_snr_db=dict(enumerate(snrs)),
                enb_busy_probability=min(max(1.0 - enb_idle, 0.0), 0.999),
                terminal_wifi_ids=tuple(terminal_wifi),
                cross_cell_terminals=tuple(cross),
            )
        )

    coupling = _coupling_matrix(
        per_cell, ue_at_ue, ue_at_enb, wifi_at_ue, wifi_at_enb, ue_ed, enb_ed
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
    ues_per_cell: int,
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

    UEs are homed in blocks of ``ues_per_cell`` consecutive ids, so every
    per-cell reduction is a max over one reshaped axis.  Max and min are
    exact, so no reduction order can change a bit.
    """
    total_ues, num_cells = ue_at_enb.shape
    # margin of UE u's uplink into cell c's sensing footprint: (UEs, cells)
    ue_margin = ue_at_enb - enb_ed
    at_ues = ue_at_ue.reshape(total_ues, num_cells, ues_per_cell).max(axis=2)
    at_ues -= ue_ed
    np.maximum(ue_margin, at_ues, out=ue_margin)
    # A UE's margin into its own cell is not coupling.
    ue_margin[np.arange(total_ues), np.arange(total_ues) // ues_per_cell] = -np.inf

    # per-home-cell reduction: strongest member margin into each cell.
    direct = ue_margin.reshape(num_cells, ues_per_cell, num_cells).max(axis=1)
    coupling = np.maximum(direct, direct.T)

    num_wifi = wifi_at_ue.shape[0]
    if num_wifi:
        wifi_margin = wifi_at_enb - enb_ed  # (wifi, cells)
        at_ues = wifi_at_ue.reshape(num_wifi, num_cells, ues_per_cell).max(axis=2)
        at_ues -= ue_ed
        np.maximum(wifi_margin, at_ues, out=wifi_margin)
        # Shared-interferer coupling: min of the two per-cell margins,
        # maximized over WiFi nodes one node at a time.
        shared = np.full((num_cells, num_cells), -np.inf)
        pair = np.empty_like(shared)
        for margin in wifi_margin:
            np.minimum(margin[:, None], margin[None, :], out=pair)
            np.maximum(shared, pair, out=shared)
        np.fill_diagonal(shared, -np.inf)
        np.maximum(coupling, shared, out=coupling)

    np.fill_diagonal(coupling, np.inf)
    return coupling
