"""Dynamic-workload coordination for simulated Krak runs.

The burn front makes per-cell cost a function of time, so a dynamic run
charges iteration ``k`` against the census at ``t_k = k · dt`` instead of
one static census.  A :class:`DynamicSpec` describes such a workload: the
repartition policy as a string, the burn cost multiplier, the timestep,
the migration payload, the measurement window and the repartition seed.
It is plain, stably hashed data, so it is also the dynamic axis of a
request and of a sweep grid.

A :class:`DynamicController` is shared by the whole job.  It holds the burn
schedule, the census of the current partition and the partition itself,
and at each iteration boundary it produces (exactly once, cached by
iteration index) the :class:`DynamicStep` all ranks act on — the
effective census at ``t_k`` and, when the policy fires, a repartition
event.

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

from dataclasses import dataclass

import numpy as np

from repro.hydro.burn import ProgrammedBurn
from repro.hydro.workload import WorkloadCensus, build_workload_census
from repro.machine.costdb import NUM_PHASES
from repro.mesh.connectivity import FaceTable, build_face_table
from repro.mesh.deck import HE_GAS, NUM_MATERIALS, InputDeck
from repro.mesh.geometry import cell_centroids
from repro.partition.base import Partition
from repro.partition.dynamic import (
    migration_matrix,
    parse_policy,
    weighted_repartition,
)
from repro.partition.metrics import imbalance
from repro.util import bincount_fixed

#: Trace phase index for repartition time (one past the 15 Krak phases).
REPARTITION_PHASE = NUM_PHASES

#: Programmed-burn wave speed (m/s) of every dynamic run.
DETONATION_SPEED = 7000.0
#: Time (s) a cell takes to burn once the wave arrives.  With the default
#: ``dt`` the front sweeps a paper deck in tens of iterations, which is what
#: repartition-cadence studies want.
BURN_RAMP_TIME = 2.0e-5

#: Integer scale for per-cell partitioner weights (resolution 1/8 cell).
CELL_WEIGHT_SCALE = 8


@dataclass(frozen=True)
class DynamicSpec:
    """A dynamic workload: the burn front plus a repartition policy.

    Attributes
    ----------
    policy:
        When to repartition: ``never``, ``every:N`` or ``imbalance:X``
        (:func:`~repro.partition.dynamic.parse_policy`).
    burn_multiplier:
        Cost multiplier (>= 1) for actively-burning cells.
    dt:
        Census-mode timestep: iteration ``k`` is charged at ``t = k · dt``.
    migration_bytes_per_cell:
        Payload per migrated cell (state + connectivity) for repartition
        cost charging.
    iterations, warmup:
        The measurement window :func:`repro.core.pipeline.measure` times
        (it replaces the request's own window).
    partition_seed:
        Seed for the weighted repartitioner.

    Being a plain dataclass of primitives it hashes stably into
    :func:`~repro.core.pipeline.request_key`, so dynamic requests and sweep
    points are cached and resumable like static ones.
    """

    policy: str = "never"
    burn_multiplier: float = 4.0
    dt: float = 1.0e-5
    migration_bytes_per_cell: int = 256
    iterations: int = 12
    warmup: int = 1
    partition_seed: int = 0

    def __post_init__(self) -> None:
        parse_policy(self.policy)  # fail fast on typos
        if not 0 <= self.warmup < self.iterations:
            raise ValueError("need 0 <= warmup < iterations")
        if self.burn_multiplier < 1.0:
            raise ValueError("burn_multiplier must be >= 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.migration_bytes_per_cell < 0:
            raise ValueError("migration_bytes_per_cell must be non-negative")

    @property
    def label(self) -> str:
        """Short human-readable tag for tables and progress lines."""
        return f"dyn[{self.policy},x{self.burn_multiplier:g}]"


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
    """Shared per-run coordinator of censuses and repartition events.

    It holds the deck's burn schedule, the partition currently in force
    (:attr:`partition`) and that partition's static census, from which
    :meth:`census_at` derives the census at any simulation time.
    """

    def __init__(
        self,
        deck: InputDeck,
        partition: Partition,
        spec: DynamicSpec,
        faces: FaceTable | None = None,
        base_census: WorkloadCensus | None = None,
        force_repartition=None,
    ) -> None:
        self.spec = spec
        self._policy = parse_policy(spec.policy)
        #: Optional ``iteration -> bool`` override: when it returns True the
        #: controller repartitions regardless of the policy (node churn —
        #: see :mod:`repro.perturb`).  The policy is still evaluated first,
        #: so its internal state advances identically to an unforced run.
        self._force = force_repartition
        self.deck = deck
        self.num_ranks = partition.num_ranks
        self._faces = faces if faces is not None else build_face_table(deck.mesh)
        self.burn = ProgrammedBurn.from_deck(
            cell_centroids(deck.mesh),
            deck.cell_material,
            deck.detonator_xy,
            detonation_speed=DETONATION_SPEED,
            ramp_time=BURN_RAMP_TIME,
        )
        if base_census is None:
            base_census = build_workload_census(deck, partition, self._faces)
        if base_census.num_ranks != partition.num_ranks:
            raise ValueError("base census does not match the partition")
        #: The currently active partition.
        self.partition = partition
        self._base = base_census
        self._steps: dict[int, DynamicStep] = {}

    def census_at(self, t: float) -> WorkloadCensus:
        """The census of the current partition at simulation time ``t``.

        Actively-burning cells are charged ``burn_multiplier`` times their
        static cost: the HE column of the material census gains
        ``burn_multiplier - 1`` effective cells per burning cell.  The
        links (a function of the partition, not of time) never change, and
        with nothing burning the static census itself is returned.
        """
        multiplier = self.spec.burn_multiplier
        if multiplier == 1.0:
            return self._base
        burning = bincount_fixed(
            self.partition.cell_rank[self.burn.actively_burning(t)],
            self.num_ranks,
        )
        if not burning.any():
            return self._base
        counts = self._base.material_counts()
        counts[:, HE_GAS] += (multiplier - 1.0) * burning
        return self._base.with_material_counts(counts)

    def cell_weights(self, t: float) -> np.ndarray:
        """Integer per-cell work weights at ``t`` for the repartitioner.

        Weights are scaled by :data:`CELL_WEIGHT_SCALE` so fractional
        multipliers survive the integer vertex weights of the partition
        substrate.
        """
        weights = np.full(self.deck.num_cells, CELL_WEIGHT_SCALE, dtype=np.int64)
        weights[self.burn.actively_burning(t)] = int(
            round(self.spec.burn_multiplier * CELL_WEIGHT_SCALE)
        )
        return weights

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

        spec = self.spec
        t = iteration * spec.dt
        census = self.census_at(t)
        work = census.material_counts().sum(axis=1)
        imbalance_before = imbalance(work)
        migration = None
        fired = self._policy.should_repartition(iteration, work)
        if self._force is not None and self._force(iteration):
            fired = True
        if fired:
            new_partition = weighted_repartition(
                self.deck.mesh,
                self.cell_weights(t),
                self.num_ranks,
                faces=self._faces,
                seed=spec.partition_seed,
            )
            flows = migration_matrix(self.partition, new_partition)
            if flows.any():
                self.partition = new_partition
                # Called by name so a rebinding of the module function
                # (tracing) sees repartition censuses too.
                self._base = build_workload_census(
                    self.deck, new_partition, self._faces
                )
                migration = MigrationPlan(
                    matrix=flows,
                    bytes_per_cell=spec.migration_bytes_per_cell,
                    gather_bytes=NUM_MATERIALS * 8,
                    bcast_bytes=self.num_ranks * NUM_MATERIALS * 8,
                )
                census = self.census_at(t)
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
            policy=self._policy.name,
            burn_multiplier=self.spec.burn_multiplier,
            dt=self.spec.dt,
            records=records,
        )
