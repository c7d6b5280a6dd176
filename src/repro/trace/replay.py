"""Fit a trace, replay it through the engine, report model-vs-measured.

The closed loop of the calibration subsystem:

1. :func:`fit_calibration` — recover per-phase material costs
   (:func:`~repro.perfmodel.calibrate.fit_cost_table`) and network
   ``latency``/``per_byte``
   (:func:`~repro.perfmodel.calibrate.fit_network`) from a validated
   :class:`~repro.trace.schema.TraceDoc`, warm-up iterations excluded.
2. :func:`replay_calibration` — rebuild each traced run's deck and
   partition, run the engine against the *fitted* parameters (zero
   overhead, zero jitter — the analytic model's view of the machine), and
   compare the replayed steady-state windows with the measured ones.

The result is one :class:`RunReport` per traced run: total iteration time,
per-phase maxima, and per-rank compute totals, model vs measured — the
paper's Tables 5–6 shape, for any machine a trace describes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.parsing import as_deck_size
from repro.hydro.driver import run_krak
from repro.machine.cluster import ClusterConfig
from repro.machine.node import NodeModel
from repro.mesh.connectivity import build_face_table
from repro.mesh.deck import build_deck
from repro.partition.cache import cached_partition
from repro.perfmodel.calibrate import FittedCalibration, fit_cost_table, fit_network
from repro.trace.schema import TraceDoc, TraceRun

__all__ = ["RunReport", "fit_calibration", "replay_calibration"]


def fit_calibration(doc: TraceDoc, warmup: int | None = None) -> FittedCalibration:
    """Fit model parameters to ``doc``'s steady-state windows.

    ``warmup`` overrides every run's own warm-up count when given.  The
    network fit uses the document's ping-pong ladder and the machine's
    declared protocol breakpoints; host send/receive overheads are taken
    from the machine metadata as-is.  The returned artifact's ``meta``
    records the provenance (deck, machine, rank counts, trace content key).
    """
    samples = [
        (run.material_cells, run.steady_compute(warmup)) for run in doc.runs
    ]
    table = fit_cost_table(samples)
    network = fit_network(
        doc.pingpong_bytes,
        doc.pingpong_seconds,
        breakpoints=doc.machine.network_breakpoints,
        name=f"fitted-{doc.machine.name}",
    )
    return FittedCalibration(
        table=table,
        network=network,
        send_overhead=doc.machine.send_overhead,
        recv_overhead=doc.machine.recv_overhead,
        meta={
            "deck": doc.deck,
            "machine": doc.machine.name,
            "ranks": [run.ranks for run in doc.runs],
            "iterations": [run.iterations for run in doc.runs],
            "trace_key": doc.content_key(),
        },
    )


@dataclass(frozen=True)
class RunReport:
    """Model-vs-measured comparison for one traced run.

    ``phase_*`` arrays are max-over-ranks compute + communication seconds
    per phase per steady iteration (Equation 3's statistic); ``rank_*``
    arrays are per-rank total compute seconds per steady iteration.
    """

    ranks: int
    cells_per_rank: float
    measured_seconds: float
    replayed_seconds: float
    phase_measured: np.ndarray
    phase_replayed: np.ndarray
    rank_compute_measured: np.ndarray
    rank_compute_replayed: np.ndarray

    @property
    def seconds_error(self) -> float:
        """Signed relative error of total iteration time (model − measured)."""
        return (self.replayed_seconds - self.measured_seconds) / self.measured_seconds

    @property
    def phase_errors(self) -> np.ndarray:
        """Signed relative error per phase; 0 where both sides are ~0."""
        scale = np.maximum(np.abs(self.phase_measured), 1e-300)
        err = (self.phase_replayed - self.phase_measured) / scale
        both_zero = (self.phase_measured == 0) & (self.phase_replayed == 0)
        return np.where(both_zero, 0.0, err)

    @property
    def max_abs_phase_error(self) -> float:
        """Worst per-phase relative error magnitude."""
        return float(np.abs(self.phase_errors).max())


def _fitted_cluster(
    calibration: FittedCalibration, cells_per_rank: float, num_phases: int
) -> ClusterConfig:
    """The machine the fitted parameters describe, as a live cluster.

    Per-cell costs are evaluated at the run's own cells-per-rank abscissa
    and installed directly: no separate overhead, cache penalty, or jitter
    — those effects are already folded into the fitted knots, which is the
    convention :func:`~repro.perfmodel.calibrate.fit_cost_table` documents.
    """
    table = calibration.table
    cell_cost = table.per_cell_grid(cells_per_rank)
    if table.num_phases < num_phases:
        # Traced runs can carry extra bookkeeping phases (repartition,
        # checkpoint) past the fitted ones; they replay at zero cost.
        pad = np.zeros((num_phases - table.num_phases, cell_cost.shape[1]))
        cell_cost = np.vstack([cell_cost, pad])
    node = NodeModel(
        phase_overhead=np.zeros(cell_cost.shape[0]),
        cell_cost=cell_cost,
        cache_penalty=0.0,
        jitter_frac=0.0,
    )
    return ClusterConfig(
        name=f"replay-{calibration.network.name}",
        node=node,
        network=calibration.network,
        send_overhead=calibration.send_overhead,
        recv_overhead=calibration.recv_overhead,
    )


def _measured_summary(run: TraceRun, warmup: int):
    """Measured steady-state summaries straight from the trace arrays."""
    compute = run.steady_compute(warmup)
    comm = run.steady_comm(warmup)
    if comm is None:
        comm = np.zeros_like(compute)
    phase = (compute + comm).max(axis=0)
    seconds = run.steady_iteration_seconds(warmup)
    if seconds is None:
        # No global iteration timer in the trace: the per-rank critical
        # path is the closest measured stand-in.
        seconds = float((compute + comm).sum(axis=1).max())
    return seconds, phase, compute.sum(axis=1)


def replay_calibration(
    doc: TraceDoc, calibration: FittedCalibration, warmup: int | None = None
) -> tuple:
    """Replay every run in ``doc`` against ``calibration``.

    Returns one :class:`RunReport` per run, in document order.  Decks and
    partitions are rebuilt exactly as traced (same method, same seed); the
    engine then runs the same iteration count and the same steady window is
    compared on both sides.
    """
    deck = build_deck(as_deck_size(doc.deck))
    faces = build_face_table(deck.mesh)
    reports = []
    for run in doc.runs:
        w = run.warmup if warmup is None else warmup
        cluster = _fitted_cluster(calibration, run.cells_per_rank, run.num_phases)
        partition = cached_partition(
            deck, run.ranks, method=run.partition_method, seed=run.seed, faces=faces
        )
        replayed = run_krak(
            deck, partition, cluster=cluster, iterations=run.iterations, faces=faces
        )
        trace = replayed.result.trace
        scale = 1.0 / (run.iterations - w)
        rep_compute = trace.window_compute(w, run.iterations) * scale
        rep_comm = trace.window_comm(w, run.iterations) * scale
        measured_seconds, phase_measured, rank_measured = _measured_summary(run, w)
        reports.append(
            RunReport(
                ranks=run.ranks,
                cells_per_rank=run.cells_per_rank,
                measured_seconds=measured_seconds,
                replayed_seconds=trace.mean_iteration_time(w, run.iterations),
                phase_measured=phase_measured,
                phase_replayed=(rep_compute + rep_comm).max(axis=0),
                rank_compute_measured=rank_measured,
                rank_compute_replayed=rep_compute.sum(axis=1),
            )
        )
    return tuple(reports)
