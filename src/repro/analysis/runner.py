"""Parallel, resumable sweep orchestration.

The paper's headline artifacts (Tables 5–6, Figure 5) are *sweeps*: dozens
of (deck, rank count, cluster, partition method) points, each needing a
multilevel partition and one fully simulated iteration.  This module turns
those from a serial for-loop into an orchestrated workload:

* :class:`SweepTask` — one fully specified validation point;
* :func:`evaluate_point` — measure + predict one point (the former body of
  ``validation_sweep``'s loop, bit-for-bit);
* :func:`run_points` — execute tasks serially (``jobs=1``, the default —
  results identical to the historical loop) or on a
  :class:`~concurrent.futures.ProcessPoolExecutor`, consulting an optional
  :class:`~repro.analysis.store.ResultStore` so finished points are never
  recomputed;
* :class:`SweepSpec` / :func:`run_sweep` — declarative cartesian grids
  (decks × rank counts × clusters × partition methods × seeds) for the CLI
  and scripted studies, plus :func:`sweep_status` for resumability
  reporting.

Every point is deterministic given its parameters (partitioners, the
simulator's jitter, and the models are all seeded), so parallel execution
and cache replay both reproduce the serial results exactly.
"""

from __future__ import annotations

import itertools
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

from repro.core.assemble import calibration_table, faces_for
from repro.core.parsing import as_deck_size
from repro.core.pipeline import run_point
from repro.core.request import ClusterSpec
from repro.machine.cluster import ClusterConfig
from repro.mesh.connectivity import FaceTable
from repro.mesh.deck import InputDeck, build_deck
from repro.perfmodel.calibrate import default_sample_sides
from repro.perfmodel.costcurves import CostTable
from repro.analysis.store import ResultStore, calibration_store
from repro.util.artifacts import MODEL_VERSION

#: Model labels understood by :func:`evaluate_point`.
KNOWN_MODELS = ("mesh-specific", "homogeneous", "heterogeneous")
DEFAULT_MODELS = KNOWN_MODELS


@dataclass(frozen=True)
class ValidationPoint:
    """One (deck, rank count) validation row."""

    deck_name: str
    num_ranks: int
    measured: float
    #: model label → predicted seconds.
    predicted: dict

    def error(self, model: str) -> float:
        """Signed relative error of ``model`` (paper's convention)."""
        return (self.measured - self.predicted[model]) / self.measured

    def to_payload(self) -> dict:
        """JSON-serialisable form for the result store."""
        return {
            "deck_name": self.deck_name,
            "num_ranks": self.num_ranks,
            "measured": self.measured,
            "predicted": dict(self.predicted),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ValidationPoint":
        """Rebuild a point from :meth:`to_payload` output (exact: JSON
        round-trips IEEE doubles via ``repr``)."""
        return cls(
            deck_name=payload["deck_name"],
            num_ranks=int(payload["num_ranks"]),
            measured=payload["measured"],
            predicted=dict(payload["predicted"]),
        )


@dataclass(frozen=True)
class SweepTask:
    """One fully specified sweep point: everything a worker needs.

    Tasks carry the *objects* (deck, cluster, cost table), not references,
    so a worker process computes from inputs identical to the parent's and
    the result cannot drift from the serial path.
    """

    deck: InputDeck
    num_ranks: int
    cluster: ClusterConfig
    #: May be ``None`` when ``models`` is empty (measurement-only points,
    #: e.g. partition studies).
    table: CostTable | None
    models: tuple = DEFAULT_MODELS
    partition_method: str = "multilevel"
    seed: int = 1
    #: Optional :class:`~repro.analysis.sweep.DynamicSpec` — a time-evolving
    #: workload with a repartitioning policy; ``None`` is the static path.
    dynamic: object = None
    #: Optional rank→node placement strategy name (``"block"``,
    #: ``"round-robin"``, ``"random[:seed]"``, ``"comm-aware"``); requires
    #: an SMP cluster.  ``None`` keeps the implicit block map.
    placement: str | None = None
    #: Optional :class:`~repro.perturb.PerturbSpec` — seeded noise injected
    #: into the measurement only; ``None`` is the clean path.
    perturb: object = None

    def store_key(self) -> str:
        """Content hash of every input that determines this point's result."""
        params = {
            "kind": "validation-point",
            "version": MODEL_VERSION,
            "deck": self.deck,
            "num_ranks": self.num_ranks,
            "cluster": self.cluster,
            "table": self.table,
            "models": tuple(self.models),
            "partition_method": self.partition_method,
            "seed": self.seed,
        }
        if self.dynamic is not None:
            # Only dynamic points hash the spec, so every static key (and
            # the results already stored under it) is unchanged.
            params["dynamic"] = self.dynamic
        if self.placement is not None:
            # Same contract as the dynamic axis: default-placement keys are
            # byte-identical to what they were before the axis existed.
            params["placement"] = self.placement
        if self.perturb is not None:
            # And again: unperturbed keys (every sweep result stored before
            # the perturbation axis existed) are byte-identical.
            params["perturb"] = self.perturb
        return ResultStore.key_for(params)


def evaluate_point(
    deck: InputDeck,
    num_ranks: int,
    cluster: ClusterConfig,
    table: CostTable,
    models=DEFAULT_MODELS,
    seed: int = 1,
    partition_method: str = "multilevel",
    faces: FaceTable | None = None,
    dynamic=None,
    placement: str | None = None,
    perturb=None,
) -> ValidationPoint:
    """Measure ``deck`` at ``num_ranks`` on the simulated machine and
    predict it with each requested model (``models=()`` measures only).

    ``dynamic`` is an optional :class:`~repro.analysis.sweep.DynamicSpec`:
    the measurement then runs the time-evolving workload (burn-front cost
    shifts plus the spec's repartitioning policy) over the spec's iteration
    window, while model predictions stay static — their error under an
    evolving workload is exactly what such sweeps study.

    ``placement`` is an optional rank→node strategy name (see
    :func:`repro.placement.make_placement`): the measurement then runs
    under that explicit map on the SMP hierarchy — the comm-aware strategy
    optimises against this point's own census — while model predictions
    keep the flat network, quantifying what placement does to their error.

    ``perturb`` is an optional :class:`~repro.perturb.PerturbSpec`: the
    measurement then runs under seeded noise (stragglers, degraded links,
    failures, churn) while model predictions stay clean, quantifying how
    far a perturbed machine drifts from the model.
    """
    measured, predictions = run_point(
        deck,
        num_ranks,
        cluster,
        table,
        models=models,
        seed=seed,
        partition_method=partition_method,
        faces=faces,
        dynamic=dynamic,
        placement=placement,
        perturb=perturb,
    )
    return ValidationPoint(
        deck_name=deck.name,
        num_ranks=num_ranks,
        measured=measured,
        predicted={model: pred.total for model, pred in predictions.items()},
    )


def _run_task(task: SweepTask) -> ValidationPoint:
    """Worker entry point: evaluate one task (module-level for pickling)."""
    return evaluate_point(
        task.deck,
        task.num_ranks,
        task.cluster,
        task.table,
        models=task.models,
        seed=task.seed,
        partition_method=task.partition_method,
        faces=faces_for(task.deck),
        dynamic=task.dynamic,
        placement=task.placement,
        perturb=task.perturb,
    )


def run_points(
    tasks,
    jobs: int = 1,
    store: ResultStore | None = None,
    progress=None,
) -> list:
    """Evaluate ``tasks`` and return their :class:`ValidationPoint`\\ s in
    task order.

    Parameters
    ----------
    jobs:
        ``1`` (default) evaluates in-process, in order — the historical
        serial path.  ``> 1`` fans pending tasks out to a process pool;
        results are reassembled in task order and are identical to the
        serial path because every point is deterministic in its inputs.
    store:
        When given, each task's :meth:`SweepTask.store_key` is looked up
        first and finished points are replayed from disk; fresh results are
        persisted as they complete, so an interrupted sweep resumes where
        it stopped.
    progress:
        Optional callback ``progress(done, total, task, point, cached)``
        invoked once per task as it completes (cache hits first).
    """
    tasks = list(tasks)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    results: list = [None] * len(tasks)
    done = 0

    def notify(task, point, cached):
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, len(tasks), task, point, cached)

    pending = []
    keys = {}
    for i, task in enumerate(tasks):
        if store is not None:
            keys[i] = task.store_key()
            payload = store.get(keys[i])
            if payload is not None:
                results[i] = ValidationPoint.from_payload(payload)
                notify(task, results[i], True)
                continue
        pending.append(i)

    def record(i, point):
        results[i] = point
        if store is not None:
            store.put(keys[i], point.to_payload())
        notify(tasks[i], point, False)

    if jobs == 1 or len(pending) <= 1:
        for i in pending:
            record(i, _run_task(tasks[i]))
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = {pool.submit(_run_task, tasks[i]): i for i in pending}
            remaining = set(futures)
            first_error = None
            while remaining:
                finished, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in finished:
                    try:
                        point = future.result()
                    except Exception as exc:
                        # Drain the rest of the pool before re-raising so
                        # every finished point is recorded (and stored) —
                        # a failing task must not cost its siblings' work.
                        if first_error is None:
                            first_error = exc
                        continue
                    record(futures[future], point)
            if first_error is not None:
                raise first_error
    return results


def powers_of_two(max_ranks: int) -> tuple:
    """``(1, 2, 4, …, max_ranks)`` — Figure 5's processor-count axis."""
    counts = []
    p = 1
    while p <= max_ranks:
        counts.append(p)
        p *= 2
    return tuple(counts)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep grid: the cartesian product of its axes.

    Points are enumerated deck-major (deck → cluster → partition method →
    seed → workload → placement → perturbation → rank count), matching the
    paper's table layout.
    """

    decks: tuple = ("small",)
    rank_counts: tuple = (1, 2, 4, 8, 16, 32, 64)
    clusters: tuple = (ClusterSpec(),)
    partition_methods: tuple = ("multilevel",)
    models: tuple = DEFAULT_MODELS
    seeds: tuple = (1,)
    #: Workload axis: ``None`` is the static run; a
    #: :class:`~repro.analysis.sweep.DynamicSpec` runs the time-evolving
    #: workload under its repartitioning policy.
    dynamics: tuple = (None,)
    #: Placement axis: ``None`` is the implicit block map; strategy names
    #: (``"block"``, ``"round-robin"``, ``"random[:seed]"``,
    #: ``"comm-aware"``) run under that explicit rank→node map and require
    #: an SMP cluster spec.
    placements: tuple = (None,)
    #: Perturbation axis: ``None`` is the clean machine; a
    #: :class:`~repro.perturb.PerturbSpec` injects seeded stragglers /
    #: degraded links / failures / churn into the measurement only.
    perturbs: tuple = (None,)
    #: Calibration range for the contrived-grid cost table.
    max_side: int = 256

    def __post_init__(self) -> None:
        for name in (
            "decks",
            "rank_counts",
            "clusters",
            "partition_methods",
            "models",
            "seeds",
            "dynamics",
            "placements",
            "perturbs",
        ):
            value = getattr(self, name)
            if isinstance(value, (str, int)) or value is None:
                value = (value,)
            object.__setattr__(self, name, tuple(value))
            # An empty ``models`` axis is a measurement-only sweep; every
            # other axis must contribute at least one grid value.
            if name != "models" and not getattr(self, name):
                raise ValueError(f"sweep axis {name!r} must be non-empty")

    @classmethod
    def figure5(
        cls, decks=("medium",), max_ranks: int = 1024, max_side: int = 512
    ) -> "SweepSpec":
        """The Figure-5 strong-scaling grid (general models only)."""
        return cls(
            decks=tuple(decks),
            rank_counts=powers_of_two(max_ranks),
            models=("homogeneous", "heterogeneous"),
            max_side=max_side,
        )

    @property
    def num_points(self) -> int:
        """Grid cardinality."""
        return (
            len(self.decks)
            * len(self.rank_counts)
            * len(self.clusters)
            * len(self.partition_methods)
            * len(self.seeds)
            * len(self.dynamics)
            * len(self.placements)
            * len(self.perturbs)
        )

    def tasks(self) -> list:
        """Materialise the grid into :class:`SweepTask`\\ s.

        Heavy shared inputs (decks, clusters, calibrated cost tables) are
        built once per distinct axis value, in the parent process, so every
        task of a group shares identical objects.
        """
        decks = [build_deck(as_deck_size(d)) for d in self.decks]
        built = []
        for cluster_spec in self.clusters:
            cluster = cluster_spec.build()
            table = (
                calibration_table(
                    cluster,
                    default_sample_sides(self.max_side),
                    store=calibration_store(),
                )
                if self.models
                else None
            )
            built.append((cluster, table))
        out = []
        for deck, (cluster, table), method, seed, dynamic, placement, perturb, ranks in (
            itertools.product(
                decks,
                built,
                self.partition_methods,
                self.seeds,
                self.dynamics,
                self.placements,
                self.perturbs,
                self.rank_counts,
            )
        ):
            out.append(
                SweepTask(
                    deck=deck,
                    num_ranks=ranks,
                    cluster=cluster,
                    table=table,
                    models=self.models,
                    partition_method=method,
                    seed=seed,
                    dynamic=dynamic,
                    placement=placement,
                    perturb=perturb,
                )
            )
        return out


@dataclass(frozen=True)
class SweepOutcome:
    """One executed grid point: its task, result, and provenance."""

    task: SweepTask
    point: ValidationPoint
    cached: bool


@dataclass(frozen=True)
class SweepStatus:
    """Resumability report for a grid against a store."""

    total: int
    completed: int
    #: Store keys of the still-missing points, in grid order.
    pending_keys: tuple = field(default_factory=tuple)

    @property
    def pending(self) -> int:
        """Number of points that still need simulation."""
        return self.total - self.completed


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    store: ResultStore | None = None,
    progress=None,
) -> list:
    """Execute a declarative grid; returns :class:`SweepOutcome`\\ s in grid
    order."""
    tasks = spec.tasks()
    cached_flags = {}

    def wrapped(done, total, task, point, cached):
        cached_flags[id(task)] = cached
        if progress is not None:
            progress(done, total, task, point, cached)

    points = run_points(tasks, jobs=jobs, store=store, progress=wrapped)
    return [
        SweepOutcome(task=t, point=p, cached=cached_flags.get(id(t), False))
        for t, p in zip(tasks, points)
    ]


def sweep_status(spec: SweepSpec, store: ResultStore) -> SweepStatus:
    """How much of ``spec`` is already in ``store``."""
    tasks = spec.tasks()
    pending = tuple(k for k in (t.store_key() for t in tasks) if k not in store)
    return SweepStatus(
        total=len(tasks), completed=len(tasks) - len(pending), pending_keys=pending
    )
