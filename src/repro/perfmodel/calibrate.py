"""Cost-curve calibration, both ways described in Section 3.1.

**Contrived-grid method** — "Two processes are required; in order for a
detonation to occur, high-explosive gas must be present.  However, the gas
can be isolated to a single process while the material on the second process
varies."  The sample is the second process's per-phase compute time divided
by its cell count.  On the simulated machine that compute is the node
model's charge for the second process's cells alone — no message or
collective enters it — so the samples are read from the node model
directly instead of simulating the two-process deck.

**Linear-system method** — used by the paper for its validation results:
run the *actual* deck at several processor counts and, for each phase, solve
the least-squares system ``time[rank] ≈ Σ_m c_m · cells[rank, m]`` for the
per-cell cost of each material, giving one curve sample per processor count
(at the mean cells-per-processor abscissa).

**Trace-driven fitting** — the external-data generalisation of the
linear-system method: :func:`fit_cost_table` consumes ingested phase traces
(:mod:`repro.trace`) instead of freshly simulated runs, :func:`fit_network`
recovers Equation (4)'s per-segment ``latency``/``per_byte`` parameters
from observed ping-pong message timings, and :func:`fit_calibration`
bundles both into a serialisable :class:`FittedCalibration` artifact that
the model core can price what-if questions against.

Every sampling path here is warm-up aware: per-phase times come from the
steady-state iteration window, never from the full-run totals, so
first-iteration noise cannot contaminate the calibrated knots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hydro.driver import run_krak
from repro.machine.cluster import ClusterConfig
from repro.machine.costdb import NUM_PHASES
from repro.machine.network import NetworkModel
from repro.mesh.deck import NUM_MATERIALS, InputDeck
from repro.perfmodel.costcurves import CostTable


def default_sample_sides(max_side: int = 512) -> list:
    """Power-of-two subgrid sides: sample sizes 1, 4, 16, … cells/processor.

    Figure 3 samples per-cell costs from 1 to ~10⁶ cells per processor on a
    log axis; ``max_side=512`` covers up to 262 144 cells per processor.
    """
    sides = []
    s = 1
    while s <= max_side:
        sides.append(s)
        s *= 2
    return sides


def _check_window(iterations: int, warmup: int) -> None:
    """Validate a calibration measurement window.

    Calibration always excludes the warm-up iterations, so at least two
    iterations are required — otherwise the steady-state window would be
    empty and the samples would be *only* warm-up noise.
    """
    if iterations < 2:
        raise ValueError(
            "calibration needs iterations >= 2: the warm-up iteration is "
            "excluded, so a single iteration leaves no steady-state window"
        )
    if not 0 <= warmup < iterations:
        raise ValueError("need 0 <= warmup < iterations")


def _steady_compute(run, iterations: int, warmup: int) -> np.ndarray:
    """Mean steady-state compute seconds per ``(rank, phase)``.

    Uses the per-iteration trace window exactly like
    ``KrakRun.mean_iteration_time`` does — the warm-up iterations are
    excluded, not averaged in.
    """
    window = run.result.trace.window_compute(warmup, iterations)
    return window / (iterations - warmup)


def calibrate_contrived_grid(cluster: ClusterConfig, sides=None) -> CostTable:
    """Build a :class:`CostTable` from the contrived-grid method.

    For each sample side ``s`` and each material, the second process holds
    ``s²`` cells of the material under study (the first holds the HE gas
    that drives the detonation); its per-phase compute time in the
    steady-state iteration 1, divided by ``s²``, is the per-cell cost
    sample.  The node model charges rank 1's cells in iterations 0 and 1,
    the running sums reproduce the simulator's phase buckets at its
    iteration marks, and the sample is the second mark minus the first —
    the arithmetic of a simulated run's steady window, so every knot
    equals the simulated one bit for bit.
    """
    if sides is None:
        sides = default_sample_sides()
    sides = sorted(set(int(s) for s in sides))
    if any(s < 1 for s in sides):
        raise ValueError("sample sides must be >= 1")

    cells = np.array([s * s for s in sides], dtype=np.float64)
    #: work[s, m]: rank 1's work vector with ``sides[s]²`` cells of material m.
    work = cells[:, None, None] * np.eye(NUM_MATERIALS)
    charged = np.cumsum([cluster.node.phase_times(work, 1, it) for it in (0, 1)], axis=0)
    per_cell = (charged[1] - charged[0]) / cells[:, None, None]
    return CostTable.from_arrays(cells, per_cell.transpose(2, 1, 0))


def _fill_absent_materials(coeffs: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Give the materials absent from every rank the mean cost of the
    others, so every curve stays evaluable (rare: tiny rank counts)."""
    present = counts.sum(axis=0) > 0
    if not np.any(present):
        raise ValueError("no cells on any rank — cannot fit costs")
    coeffs[:, ~present] = coeffs[:, present].mean(axis=1)[:, None]
    return coeffs


def merge_duplicate_abscissae(xs, samples) -> tuple:
    """Average curve samples that share one cells-per-PE abscissa.

    ``samples[i]`` is the ``(phases, materials)`` coefficient array measured
    at ``xs[i]``.  Returns ``(unique_ascending_xs, per_cell)`` with
    ``per_cell`` shaped ``(phases, materials, samples)``.  Duplicate
    abscissae are *averaged*, never silently dropped — two runs at the same
    processor count are both evidence about the same knot.
    """
    xs_arr = np.asarray(xs, dtype=np.float64)
    if xs_arr.size == 0:
        raise ValueError("need at least one sample")
    uniq, inverse = np.unique(xs_arr, return_inverse=True)
    merged = [
        np.mean([samples[i] for i in np.flatnonzero(inverse == u)], axis=0)
        for u in range(uniq.size)
    ]
    return uniq, np.stack(merged, axis=-1)  # (P, M, S)


def calibrate_linear_system(
    cluster: ClusterConfig,
    deck: InputDeck,
    partitions: list,
    iterations: int = 2,
    warmup: int = 1,
) -> CostTable:
    """Build a :class:`CostTable` by solving per-phase linear systems.

    Parameters
    ----------
    partitions:
        Partitions of ``deck`` at several processor counts, in any order
        (they are sorted internally); each contributes one curve sample at
        ``total_cells / num_ranks`` cells per processor.  Partitions that
        land on the same cells-per-PE abscissa are averaged into one knot.
    iterations, warmup:
        Simulated measurement window; only the steady-state iterations
        ``[warmup, iterations)`` are sampled.
    """
    from scipy.optimize import nnls  # only the linear-system fits need scipy

    _check_window(iterations, warmup)
    if not partitions:
        raise ValueError("need at least one partition")
    order = sorted(partitions, key=lambda p: -p.num_ranks)
    xs = []
    samples = []
    for partition in order:
        if partition.num_cells != deck.num_cells:
            raise ValueError("partition does not match deck")
        run = run_krak(
            deck, partition, cluster=cluster, iterations=iterations, functional=False
        )
        counts = partition.material_census(deck.cell_material, NUM_MATERIALS).astype(
            np.float64
        )
        times = _steady_compute(run, iterations, warmup)  # (ranks, phases)
        coeffs = np.zeros((NUM_PHASES, NUM_MATERIALS))
        for p in range(NUM_PHASES):
            # Non-negative least squares: per-cell costs cannot be negative,
            # and homogeneous subgrids make plain lstsq ill-conditioned.
            coeffs[p], _ = nnls(counts, times[:, p])
        xs.append(deck.num_cells / partition.num_ranks)
        samples.append(_fill_absent_materials(coeffs, counts))

    uniq, per_cell = merge_duplicate_abscissae(xs, samples)
    return CostTable.from_arrays(uniq, per_cell)


# --------------------------------------------------------------------------
# Trace-driven fitting (the external-data generalisation)
# --------------------------------------------------------------------------


def fit_phase_costs(counts: np.ndarray, times: np.ndarray) -> tuple:
    """Per-phase material costs + fixed overhead from one run's steady window.

    Solves, for every phase ``p``, the non-negative least-squares system

    ``times[r, p] ≈ Σ_m coeffs[p, m] · counts[r, m] + overhead[p]``

    — the linear-system method with an explicit intercept column, so the
    per-rank fixed phase cost is recovered as a parameter instead of being
    smeared into the material coefficients.  Returns ``(coeffs, overhead)``
    with shapes ``(phases, materials)`` and ``(phases,)``.
    """
    from scipy.optimize import nnls  # only the linear-system fits need scipy

    counts = np.asarray(counts, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if counts.ndim != 2 or times.ndim != 2 or counts.shape[0] != times.shape[0]:
        raise ValueError("counts must be (ranks, materials), times (ranks, phases)")
    num_ranks, num_materials = counts.shape
    num_phases = times.shape[1]
    design = np.hstack([counts, np.ones((num_ranks, 1))])
    coeffs = np.zeros((num_phases, num_materials))
    overhead = np.zeros(num_phases)
    for p in range(num_phases):
        solution, _ = nnls(design, times[:, p])
        coeffs[p] = solution[:num_materials]
        overhead[p] = solution[num_materials]
    return _fill_absent_materials(coeffs, counts), overhead


def fit_cost_table(samples: list) -> CostTable:
    """Fit a :class:`CostTable` from steady-state trace windows.

    ``samples`` is a list of ``(counts, times)`` pairs — one per ingested
    run — where ``counts[r, m]`` is rank ``r``'s cell count of material
    ``m`` and ``times[r, p]`` its mean steady-state compute seconds in
    phase ``p``.  Each run contributes one knot at its mean cells-per-PE
    abscissa; the recovered fixed overhead is folded into the per-cell cost
    as ``overhead / abscissa``, exactly the contrived-grid convention, so
    a rank at the knot pays ``Σ_m counts_m · per_cell_m = Σ_m counts_m ·
    coeffs_m + overhead`` — the measured time.  Duplicate abscissae are
    averaged (never dropped).
    """
    if not samples:
        raise ValueError("need at least one run to fit a cost table")
    xs = []
    knots = []
    for counts, times in samples:
        coeffs, overhead = fit_phase_costs(counts, times)
        abscissa = float(np.asarray(counts, dtype=np.float64).sum() / len(counts))
        if abscissa <= 0:
            raise ValueError("run has no cells — cannot place a curve knot")
        xs.append(abscissa)
        knots.append(coeffs + overhead[:, None] / abscissa)
    uniq, per_cell = merge_duplicate_abscissae(xs, knots)
    return CostTable.from_arrays(uniq, per_cell)


def fit_network(
    sizes,
    seconds,
    breakpoints=(),
    name: str = "fitted",
) -> NetworkModel:
    """Recover Equation (4)'s network parameters from message timings.

    ``sizes``/``seconds`` are observed point-to-point message costs (e.g.
    ping-pong one-way times); ``breakpoints`` are the known protocol-switch
    sizes (the eager→rendezvous threshold on the reference machine).  Each
    segment's ``latency``/``per_byte`` pair is a plain linear least-squares
    fit of ``T = L + S · B`` over the samples falling in that segment, so
    noise-free samples recover the generating parameters exactly.  Every
    segment needs at least two distinct sizes to be identifiable.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    seconds = np.asarray(seconds, dtype=np.float64)
    if sizes.ndim != 1 or sizes.shape != seconds.shape or sizes.size == 0:
        raise ValueError("sizes and seconds must be equal-length 1-D samples")
    if np.any(sizes < 0) or np.any(seconds < 0):
        raise ValueError("message sizes and times must be non-negative")
    bp = np.asarray(breakpoints, dtype=np.float64)
    if bp.size and np.any(np.diff(bp) <= 0):
        raise ValueError("breakpoints must be strictly ascending")
    num_segments = bp.size + 1
    segment = np.searchsorted(bp, sizes, side="left")
    latency = np.zeros(num_segments)
    per_byte = np.zeros(num_segments)
    for seg in range(num_segments):
        sel = segment == seg
        seg_sizes = sizes[sel]
        if np.unique(seg_sizes).size < 2:
            raise ValueError(
                f"network segment {seg} needs samples at >= 2 distinct "
                f"message sizes to fit latency and per-byte cost "
                f"(got {np.unique(seg_sizes).size})"
            )
        design = np.column_stack([np.ones(seg_sizes.size), seg_sizes])
        (lat, pb), *_ = np.linalg.lstsq(design, seconds[sel], rcond=None)
        # Noise can push a parameter marginally negative; clamp — a
        # negative latency or per-byte cost is unphysical.
        latency[seg] = max(lat, 0.0)
        per_byte[seg] = max(pb, 0.0)
    return NetworkModel(
        breakpoints=bp, latency=latency, per_byte=per_byte, name=name
    )


@dataclass(frozen=True)
class FittedCalibration:
    """One trace's fitted model parameters: cost curves + network.

    The serialisable calibration artifact ``repro calibrate fit`` stores and
    :func:`repro.core.assemble.assemble` prices what-if requests against
    (via ``PredictionRequest.calibration``).  ``send_overhead`` /
    ``recv_overhead`` carry the traced machine's per-message host costs so
    a trace replay can rebuild a complete simulated machine.
    """

    table: CostTable
    network: NetworkModel
    send_overhead: float = 1.5e-6
    recv_overhead: float = 2.0e-6
    meta: dict = field(default_factory=dict)

    def store_key(self) -> str:
        """Content hash of the artifact — its ``calibrations``-store key and
        the value of ``PredictionRequest.calibration`` that references it."""
        from repro.util.artifacts import stable_hash

        return stable_hash(self.to_payload())

    def to_payload(self) -> dict:
        """Plain-JSON form (exact: JSON round-trips IEEE doubles)."""
        return {
            "kind": "fitted-calibration",
            "version": 1,
            "table": self.table.to_payload(),
            "network": {
                "breakpoints": self.network.breakpoints.tolist(),
                "latency": self.network.latency.tolist(),
                "per_byte": self.network.per_byte.tolist(),
                "name": self.network.name,
            },
            "send_overhead": self.send_overhead,
            "recv_overhead": self.recv_overhead,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FittedCalibration":
        if payload.get("kind") != "fitted-calibration":
            raise ValueError("not a fitted-calibration payload")
        if payload.get("version") != 1:
            raise ValueError(
                f"unsupported fitted-calibration version {payload.get('version')!r}"
            )
        net = payload["network"]
        return cls(
            table=CostTable.from_payload(payload["table"]),
            network=NetworkModel(
                breakpoints=np.array(net["breakpoints"], dtype=np.float64),
                latency=np.array(net["latency"], dtype=np.float64),
                per_byte=np.array(net["per_byte"], dtype=np.float64),
                name=net.get("name", "fitted"),
            ),
            send_overhead=float(payload["send_overhead"]),
            recv_overhead=float(payload["recv_overhead"]),
            meta=dict(payload.get("meta", {})),
        )
