"""Parallel, resumable sweep orchestration.

The paper's headline artifacts (Tables 5–6, Figure 5) are *sweeps*: dozens
of (deck, rank count, cluster, partition method) points, each needing a
multilevel partition and one fully simulated iteration.  Every point is a
:class:`~repro.core.request.PredictionRequest` answered by
:func:`repro.core.measure`, the same call the CLI and the prediction
service make; this module only enumerates and schedules them:

* :class:`SweepSpec` — a declarative cartesian grid (decks × rank counts ×
  clusters × partition methods × seeds × workloads × placements ×
  perturbations) that materialises into :class:`SweepTask`\\ s;
* :func:`evaluate_point` — measure one task;
* :func:`run_points` / :func:`run_sweep` — execute tasks serially
  (``jobs=1``, the default) or on a
  :class:`~concurrent.futures.ProcessPoolExecutor`, consulting an optional
  :class:`~repro.analysis.store.ResultStore` under
  :func:`~repro.core.pipeline.request_key` so finished points are never
  recomputed; :func:`sweep_status` reports resumability.

Every point is deterministic given its request (partitioners, the
simulator's jitter, and the models are all seeded), so parallel execution
and cache replay both reproduce the serial results exactly.
"""

from __future__ import annotations

import itertools
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

from repro.analysis.store import ResultStore
from repro.core.parsing import as_deck_size
from repro.core.pipeline import measure, request_key
from repro.core.request import ClusterSpec, PredictionRequest, PredictionResult
from repro.mesh.deck import InputDeck, build_deck

#: The models a sweep prices by default: the paper's three variants.
DEFAULT_MODELS = ("mesh-specific", "homogeneous", "heterogeneous")


@dataclass(frozen=True)
class ValidationPoint:
    """One (deck, rank count) validation row: the measured-vs-predicted view
    of a :class:`~repro.core.request.PredictionResult`."""

    deck_name: str
    num_ranks: int
    measured: float
    #: model label → predicted seconds.
    predicted: dict

    def error(self, model: str) -> float:
        """Signed relative error of ``model`` (paper's convention)."""
        return (self.measured - self.predicted[model]) / self.measured

    def to_payload(self) -> dict:
        """JSON-serialisable form of the row."""
        return {
            "deck_name": self.deck_name,
            "num_ranks": self.num_ranks,
            "measured": self.measured,
            "predicted": dict(self.predicted),
        }

    @classmethod
    def from_result(cls, result: PredictionResult) -> "ValidationPoint":
        """The row of a measured result."""
        return cls(
            deck_name=result.meta["deck_name"],
            num_ranks=result.request.ranks,
            measured=result.measured,
            predicted=dict(result.predicted),
        )


@dataclass(frozen=True)
class SweepTask:
    """One grid point: its request plus the deck the request names.

    The deck is built once per grid (:meth:`SweepSpec.tasks`) so progress
    lines and tables can label points; evaluation reads only the request.
    The axis attributes below read through to the request.
    """

    request: PredictionRequest
    deck: InputDeck

    @property
    def num_ranks(self) -> int:
        return self.request.ranks

    @property
    def models(self) -> tuple:
        return self.request.models

    @property
    def partition_method(self) -> str:
        return self.request.partition_method

    @property
    def seed(self) -> int:
        return self.request.seed

    @property
    def dynamic(self):
        return self.request.dynamic

    @property
    def placement(self) -> str | None:
        return self.request.placement

    @property
    def perturb(self):
        return self.request.perturb

    def store_key(self) -> str:
        """The store key of this point's measured result."""
        return request_key(self.request, "measure")


def evaluate_point(task: SweepTask) -> PredictionResult:
    """Measure and predict one point (module-level so pool workers can
    run it)."""
    return measure(task.request)


@dataclass(frozen=True)
class SweepOutcome:
    """One executed grid point: its task, result, and provenance."""

    task: SweepTask
    point: ValidationPoint
    #: ``True`` when the point was replayed from the store.
    cached: bool


def run_points(
    tasks,
    jobs: int = 1,
    store: ResultStore | None = None,
    progress=None,
) -> list:
    """Evaluate ``tasks`` and return their :class:`SweepOutcome`\\ s in task
    order.

    Parameters
    ----------
    jobs:
        ``1`` (default) evaluates in-process, in order.  ``> 1`` fans
        pending tasks out to a process pool; outcomes are reassembled in
        task order and are identical to the serial path because every
        point is deterministic in its request.
    store:
        When given, each task's :meth:`SweepTask.store_key` is looked up
        first and finished points are replayed from disk; fresh results
        are persisted (as :meth:`PredictionResult.to_payload` dicts) as
        they complete, so an interrupted sweep resumes where it stopped.
    progress:
        Optional callback ``progress(done, total, task, point, cached)``
        invoked once per task as it completes (cache hits first).
    """
    tasks = list(tasks)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    outcomes: list = [None] * len(tasks)
    keys = [task.store_key() for task in tasks] if store is not None else None
    done = 0

    def record(i, result, cached):
        nonlocal done
        if store is not None and not cached:
            store.put(keys[i], result.to_payload())
        outcome = SweepOutcome(
            task=tasks[i], point=ValidationPoint.from_result(result), cached=cached
        )
        outcomes[i] = outcome
        done += 1
        if progress is not None:
            progress(done, len(tasks), outcome.task, outcome.point, cached)

    pending = []
    for i in range(len(tasks)):
        payload = store.get(keys[i]) if store is not None else None
        if payload is None:
            pending.append(i)
        else:
            record(i, PredictionResult.from_payload(payload), True)

    if jobs == 1 or len(pending) <= 1:
        for i in pending:
            record(i, evaluate_point(tasks[i]), False)
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = {pool.submit(evaluate_point, tasks[i]): i for i in pending}
            remaining = set(futures)
            first_error = None
            while remaining:
                finished, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in finished:
                    try:
                        result = future.result()
                    except Exception as exc:
                        # Drain the rest of the pool before re-raising so
                        # every finished point is recorded (and stored) —
                        # a failing task must not cost its siblings' work.
                        if first_error is None:
                            first_error = exc
                        continue
                    record(futures[future], result, False)
            if first_error is not None:
                raise first_error
    return outcomes


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
    paper's table layout.  Decks are deck specs (named sizes or ``NXxNY``).
    """

    decks: tuple = ("small",)
    rank_counts: tuple = (1, 2, 4, 8, 16, 32, 64)
    clusters: tuple = (ClusterSpec(),)
    partition_methods: tuple = ("multilevel",)
    models: tuple = DEFAULT_MODELS
    seeds: tuple = (1,)
    #: Workload axis: ``None`` is the static run; a
    #: :class:`~repro.hydro.dynamic.DynamicSpec` runs the time-evolving
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

    def requests(self) -> list:
        """The grid's :class:`~repro.core.request.PredictionRequest`\\ s in
        grid order.

        Every request runs its own checks and every deck spec must name a
        buildable deck, so an invalid grid fails here, before anything is
        built or calibrated.
        """
        requests = [
            PredictionRequest(
                deck=deck,
                ranks=ranks,
                cluster=cluster,
                partition_method=method,
                seed=seed,
                placement=placement,
                dynamic=dynamic,
                models=self.models,
                max_side=self.max_side,
                perturb=perturb,
            )
            for deck, cluster, method, seed, dynamic, placement, perturb, ranks in (
                itertools.product(
                    self.decks,
                    self.clusters,
                    self.partition_methods,
                    self.seeds,
                    self.dynamics,
                    self.placements,
                    self.perturbs,
                    self.rank_counts,
                )
            )
        ]
        for deck in self.decks:
            as_deck_size(deck)
        return requests

    def store_keys(self) -> list:
        """Store keys of the grid's measured results, in grid order."""
        return [request_key(request, "measure") for request in self.requests()]

    def tasks(self) -> list:
        """Materialise the grid into :class:`SweepTask`\\ s.

        The grid is validated first (:meth:`requests`), then each deck is
        built once.
        """
        requests = self.requests()
        decks = {spec: build_deck(as_deck_size(spec)) for spec in self.decks}
        return [SweepTask(request=r, deck=decks[r.deck]) for r in requests]


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
    return run_points(spec.tasks(), jobs=jobs, store=store, progress=progress)


def sweep_status(spec: SweepSpec, store: ResultStore) -> SweepStatus:
    """How much of ``spec`` is already in ``store`` (hashes the grid's
    requests; builds no deck and calibrates nothing)."""
    keys = spec.store_keys()
    pending = tuple(k for k in keys if k not in store)
    return SweepStatus(
        total=len(keys), completed=len(keys) - len(pending), pending_keys=pending
    )
