"""Dynamic-workload coordination for simulated Krak runs.

The burn front makes per-cell cost a function of time, so a dynamic run
charges iteration ``k`` against ``census_at(t_k)`` instead of one static
census.  A :class:`DynamicController` is shared by the whole job: at
each iteration boundary it produces (exactly once, cached by iteration
index) the :class:`DynamicStep` all ranks act on — the effective census at
``t_k`` and, when the configured policy fires, a repartition event.

A repartition is charged to the run the way a real code pays for it:

* an allgather of the per-rank census (modelled as a gather + broadcast
  through the simulated collectives — the information everyone needs to
  agree on the new partition);
* point-to-point cell-migration messages sized by the
  :func:`~repro.partition.dynamic.migration_matrix` flows at
  ``migration_bytes_per_cell`` bytes per moved cell.

Determinism: every rank reaches iteration ``k`` at the same simulation
time ``k · dt``; the first to ask for a step computes it and later
askers replay the cached value.  Steps are consumed when the job is
lowered, every rank in one pass and iteration by iteration, so steps are
computed in index order (each may repartition, changing what the next one
starts from).  The reference oracle runs the rank generators interleaved
instead; there the collectives that end every iteration keep the ranks in
step, and the later ranks only read the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hydro.burn import ProgrammedBurn
from repro.hydro.workload import DynamicCensus, WorkloadCensus
from repro.machine.costdb import NUM_PHASES
from repro.mesh.connectivity import FaceTable, build_face_table
from repro.mesh.deck import NUM_MATERIALS, InputDeck
from repro.mesh.geometry import cell_centroids
from repro.partition.base import Partition
from repro.partition.dynamic import (
    NeverPolicy,
    RepartitionPolicy,
    migration_matrix,
    weighted_repartition,
)
from repro.partition.metrics import imbalance

#: Trace phase index for repartition time (one past the 15 Krak phases).
REPARTITION_PHASE = NUM_PHASES


@dataclass(frozen=True)
class DynamicConfig:
    """Everything a dynamic run needs beyond the static inputs.

    Attributes
    ----------
    policy:
        When to repartition (:mod:`repro.partition.dynamic` policies).
    burn_multiplier:
        Cost multiplier for actively-burning cells.
    dt:
        Census-mode timestep: iteration ``k`` is charged at ``t = k · dt``.
        The default sweeps the burn front across a paper deck in tens of
        iterations, which is what repartition-cadence studies want.
    detonation_speed, ramp_time:
        Programmed-burn parameters (see :class:`~repro.hydro.burn.ProgrammedBurn`).
    migration_bytes_per_cell:
        Payload per migrated cell (state + connectivity) for repartition
        cost charging.
    partition_seed:
        Seed for the weighted repartitioner.
    """

    policy: RepartitionPolicy = field(default_factory=NeverPolicy)
    burn_multiplier: float = 4.0
    dt: float = 1.0e-5
    detonation_speed: float = 7000.0
    ramp_time: float = 2.0e-5
    migration_bytes_per_cell: int = 256
    partition_seed: int = 0

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.migration_bytes_per_cell < 0:
            raise ValueError("migration_bytes_per_cell must be non-negative")


@dataclass(frozen=True)
class MigrationPlan:
    """One repartition event, as the rank programs must charge it."""

    #: Cells moving from (old) rank a to (new) rank b; diagonal is zero.
    matrix: np.ndarray
    bytes_per_cell: int
    #: Per-rank census contribution gathered to the root.
    gather_bytes: int
    #: Full census broadcast back to everyone.
    bcast_bytes: int

    @property
    def cells_moved(self) -> int:
        """Total migrated cells."""
        return int(self.matrix.sum())


@dataclass(frozen=True)
class DynamicStep:
    """What every rank applies at the start of one iteration."""

    index: int
    time: float
    #: Census to charge this iteration against (links + effective work).
    census: WorkloadCensus
    #: Weighted load imbalance before any repartition this step.
    imbalance_before: float
    #: Weighted load imbalance actually charged (after repartition, if any).
    imbalance: float
    #: Set when this step repartitioned; ``None`` otherwise.
    migration: MigrationPlan | None = None


@dataclass(frozen=True)
class IterationRecord:
    """One point of the imbalance trajectory."""

    index: int
    time: float
    imbalance_before: float
    imbalance: float
    repartitioned: bool
    cells_moved: int


@dataclass(frozen=True)
class DynamicRunInfo:
    """Summary of a dynamic run, attached to :class:`~repro.hydro.driver.KrakRun`."""

    policy: str
    burn_multiplier: float
    dt: float
    records: tuple

    @property
    def num_repartitions(self) -> int:
        """How many iterations actually repartitioned."""
        return sum(1 for r in self.records if r.repartitioned)

    @property
    def cells_moved(self) -> int:
        """Total cells migrated across all repartitions."""
        return sum(r.cells_moved for r in self.records)

    def imbalance_series(self) -> tuple:
        """``(times, imbalances)`` of the charged per-iteration imbalance."""
        return (
            [r.time for r in self.records],
            [r.imbalance for r in self.records],
        )


class DynamicController:
    """Shared per-run coordinator of censuses and repartition events."""

    def __init__(
        self,
        deck: InputDeck,
        partition: Partition,
        config: DynamicConfig,
        faces: FaceTable | None = None,
        base_census: WorkloadCensus | None = None,
        force_repartition=None,
    ) -> None:
        self.config = config
        #: Optional ``iteration -> bool`` override: when it returns True the
        #: controller repartitions regardless of the policy (node churn —
        #: see :mod:`repro.perturb`).  The policy is still evaluated first,
        #: so its internal state advances identically to an unforced run.
        self._force = force_repartition
        self.num_ranks = partition.num_ranks
        self._faces = faces if faces is not None else build_face_table(deck.mesh)
        burn = ProgrammedBurn.from_deck(
            cell_centroids(deck.mesh),
            deck.cell_material,
            deck.detonator_xy,
            detonation_speed=config.detonation_speed,
            ramp_time=config.ramp_time,
        )
        self._dyn = DynamicCensus.build(
            deck,
            partition,
            burn=burn,
            burn_multiplier=config.burn_multiplier,
            faces=self._faces,
            base=base_census,
        )
        self._steps: dict[int, DynamicStep] = {}

    @property
    def partition(self) -> Partition:
        """The currently active partition."""
        return self._dyn.partition

    def step(self, iteration: int) -> DynamicStep:
        """The (cached) dynamic step for ``iteration``.

        The first caller computes it — evaluating the policy against the
        weighted load and, when it fires, building the new weighted
        partition plus its migration plan; later callers (the other ranks)
        replay the cached value, so all ranks act identically.
        """
        cached = self._steps.get(iteration)
        if cached is not None:
            return cached

        t = iteration * self.config.dt
        census = self._dyn.census_at(t)
        work = census.material_counts().sum(axis=1)
        imbalance_before = imbalance(work)
        migration = None
        fired = self.config.policy.should_repartition(iteration, work)
        if self._force is not None and self._force(iteration):
            fired = True
        if fired:
            dyn = self._dyn
            new_partition = weighted_repartition(
                dyn.deck.mesh,
                dyn.cell_weights(t),
                self.num_ranks,
                faces=self._faces,
                seed=self.config.partition_seed,
            )
            flows = migration_matrix(dyn.partition, new_partition)
            if flows.any():
                self._dyn = dyn.with_partition(new_partition, self._faces)
                migration = MigrationPlan(
                    matrix=flows,
                    bytes_per_cell=self.config.migration_bytes_per_cell,
                    gather_bytes=NUM_MATERIALS * 8,
                    bcast_bytes=self.num_ranks * NUM_MATERIALS * 8,
                )
                census = self._dyn.census_at(t)
                work = census.material_counts().sum(axis=1)

        step = DynamicStep(
            index=iteration,
            time=t,
            census=census,
            imbalance_before=imbalance_before,
            imbalance=imbalance(work),
            migration=migration,
        )
        self._steps[iteration] = step
        return step

    def run_info(self) -> DynamicRunInfo:
        """Imbalance trajectory + repartition tally for the finished run."""
        records = tuple(
            IterationRecord(
                index=s.index,
                time=s.time,
                imbalance_before=s.imbalance_before,
                imbalance=s.imbalance,
                repartitioned=s.migration is not None,
                cells_moved=s.migration.cells_moved if s.migration else 0,
            )
            for _, s in sorted(self._steps.items())
        )
        return DynamicRunInfo(
            policy=self.config.policy.name,
            burn_multiplier=self.config.burn_multiplier,
            dt=self.config.dt,
            records=records,
        )
