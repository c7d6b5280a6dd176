"""Top-level MiniKrak runs: "measure" iteration times on the simulated machine.

``krak_job`` builds a job (deck → partition → census → the
:class:`~repro.hydro.phases.KrakProgram` and its engine), and ``run_krak``
lowers it to one op table of every rank, runs it, and returns the trace,
plus the application diagnostics of a functional run;
``measure_iteration_time`` is the convenience most benchmarks use — it
averages the steady-state iterations, skipping a warm-up, exactly how one
times a production code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hydro.dynamic import DynamicController, DynamicRunInfo, DynamicSpec
from repro.hydro.functional import run_functional
from repro.hydro.phases import KrakProgram
from repro.hydro.state import RankState, build_rank_states
from repro.hydro.workload import WorkloadCensus, build_workload_census
from repro.machine.cluster import ClusterConfig, es45_like_cluster
from repro.machine.costdb import NUM_PHASES
from repro.mesh.connectivity import FaceTable, build_face_table
from repro.mesh.deck import InputDeck
from repro.partition.base import Partition
from repro.perturb import FAILURE_PHASE, Perturbation, PerturbSpec, degrade_cluster
from repro.simmpi.engine import Engine, SimResult


@dataclass(frozen=True)
class KrakRun:
    """Everything produced by one simulated Krak execution."""

    deck: InputDeck
    partition: Partition
    census: WorkloadCensus
    cluster: ClusterConfig
    result: SimResult
    iterations: int
    #: Final global diagnostics of the functional numerics (None in census
    #: mode).
    diagnostics: dict | None
    #: Functional rank states after the run (None in census mode).
    states: list[RankState] | None
    #: Imbalance trajectory + repartition tally (None for static runs).
    dynamic: DynamicRunInfo | None = None

    def mean_iteration_time(self, warmup: int = 1) -> float:
        """Steady-state per-iteration time, skipping ``warmup`` iterations."""
        if warmup >= self.iterations:
            raise ValueError("warmup must be smaller than the iteration count")
        return self.result.trace.mean_iteration_time(warmup, self.iterations)


@dataclass(frozen=True)
class MeasuredIteration:
    """One "measured" data point for model validation."""

    deck_name: str
    num_ranks: int
    seconds: float
    compute_by_phase: np.ndarray
    comm_by_phase: np.ndarray


def run_krak(
    deck: InputDeck,
    partition: Partition,
    cluster: ClusterConfig | None = None,
    iterations: int = 3,
    functional: bool = False,
    faces: FaceTable | None = None,
    census: WorkloadCensus | None = None,
    dynamic: DynamicSpec | None = None,
    perturb: PerturbSpec | None = None,
) -> KrakRun:
    """Run MiniKrak on the simulated cluster.

    Parameters
    ----------
    deck, partition:
        The input problem and its cell→rank assignment.
    cluster:
        Simulated machine; defaults to the ES-45/QsNet-like validation box.
    iterations:
        Full 15-phase iterations to execute.
    functional:
        Also run the real numerics on per-rank states (small problems
        only; see :mod:`repro.hydro.functional`).  Timing is charged from
        the census either way, so the trace is the census run's.
    faces, census:
        Optional precomputed structures to avoid rebuilding in sweeps.
    dynamic:
        Optional :class:`~repro.hydro.dynamic.DynamicSpec`.  When given
        (census mode only), iteration ``k`` is charged against
        ``census_at(t_k)`` — the burn front shifts per-cell cost over time —
        and the spec's policy may repartition mid-run, paying the modelled
        allgather + cell-migration cost.  ``iterations`` still sets the
        run's length; the spec's own window is the one
        :func:`repro.core.pipeline.measure` reads.  ``dynamic=None`` charges
        the one static census every iteration.
    perturb:
        Optional :class:`~repro.perturb.PerturbSpec` injecting seeded noise
        (OS jitter/stragglers on compute, link degradation on messaging, a
        rank failure with checkpoint/restart cost, churn-forced
        repartitioning).  A ``None`` or null spec is bitwise-identical to
        the clean run, including trace shape.  See ``docs/perturbations.md``.
    """
    if functional and perturb is not None:
        raise ValueError("perturbed runs execute in census (timing) mode only")
    if functional and dynamic is not None:
        raise ValueError("dynamic workloads run in census (timing) mode only")
    program, engine = krak_job(
        deck, partition, cluster, iterations, faces, census, dynamic, perturb
    )
    result = engine.run_compiled(program.lower())
    states = diagnostics = None
    if functional:
        states = build_rank_states(deck, partition)
        diagnostics = run_functional(states, program.census, iterations)

    return KrakRun(
        deck=deck,
        partition=partition,
        census=program.census,
        cluster=engine.cluster,
        result=result,
        iterations=iterations,
        diagnostics=diagnostics,
        states=states,
        dynamic=program.dynamic.run_info() if program.dynamic is not None else None,
    )


def krak_job(
    deck: InputDeck,
    partition: Partition,
    cluster: ClusterConfig | None,
    iterations: int,
    faces: FaceTable | None,
    census: WorkloadCensus | None,
    dynamic: DynamicSpec | None,
    perturb: PerturbSpec | None,
) -> tuple[KrakProgram, Engine]:
    """The job :func:`run_krak` runs, unlowered: ``(program, engine)``.

    The arguments are :func:`run_krak`'s.  The program carries the census
    and any dynamic controller, and the engine the (possibly degraded)
    machine.  ``engine.run_compiled(program.lower())`` runs the job; each
    call builds a fresh controller, so every lowering is the same.
    """
    if cluster is None:
        cluster = es45_like_cluster()
    if perturb is not None:
        if perturb.has_churn and dynamic is None:
            raise ValueError(
                "churn_prob requires a dynamic workload (the repartition "
                "machinery); pass a DynamicSpec"
            )
        # Link degradation is a machine transform: every consumer prices
        # through the same degraded coefficients.
        cluster = degrade_cluster(cluster, perturb)
    if dynamic is not None and faces is None:
        faces = build_face_table(deck.mesh)  # shared with the controller
    if census is None:
        census = build_workload_census(deck, partition, faces)

    perturbation = None
    if perturb is not None:
        perturbation = Perturbation(perturb, partition.num_ranks)

    controller = None
    num_phases = NUM_PHASES
    if dynamic is not None:
        controller = DynamicController(
            deck, partition, dynamic, faces=faces, base_census=census,
            force_repartition=(
                perturbation.churn_at
                if perturbation is not None and perturb.has_churn
                else None
            ),
        )
        # Repartition time gets its own trace phase past the 15 Krak phases.
        num_phases = NUM_PHASES + 1
    if perturb is not None and perturb.has_failure:
        # Checkpoint/restart time gets its own phase too; the repartition
        # column exists (possibly unused) whenever the failure column does,
        # so phase indices are stable across configurations.
        num_phases = FAILURE_PHASE + 1

    program = KrakProgram(
        census=census,
        node_model=cluster.node,
        iterations=iterations,
        dynamic=controller,
        perturb=perturbation,
    )
    return program, Engine(cluster, partition.num_ranks, num_phases)


def measure_iteration_time(
    deck: InputDeck,
    partition: Partition,
    cluster: ClusterConfig | None = None,
    iterations: int = 3,
    warmup: int = 1,
    faces: FaceTable | None = None,
    census: WorkloadCensus | None = None,
    dynamic: DynamicSpec | None = None,
    perturb: PerturbSpec | None = None,
) -> MeasuredIteration:
    """Produce a "measured" per-iteration time (census/timing mode).

    With ``dynamic``, the phase arrays gain one extra entry — the
    repartition phase — and the steady-state window includes whatever
    repartitions the policy fired there.  With a failure-carrying
    ``perturb``, they gain the checkpoint/restart phase as well.
    """
    run = run_krak(
        deck,
        partition,
        cluster=cluster,
        iterations=iterations,
        functional=False,
        faces=faces,
        census=census,
        dynamic=dynamic,
        perturb=perturb,
    )
    trace = run.result.trace
    per_iter = run.mean_iteration_time(warmup)
    # Phase sums cover the same steady-state window as ``seconds``: warm-up
    # iterations are excluded, not averaged in.
    scale = 1.0 / (iterations - warmup)
    return MeasuredIteration(
        deck_name=deck.name,
        num_ranks=partition.num_ranks,
        seconds=per_iter,
        compute_by_phase=trace.window_compute_max(warmup, iterations) * scale,
        comm_by_phase=trace.window_comm_max(warmup, iterations) * scale,
    )
