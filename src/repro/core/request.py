"""Typed request/result dataclasses of the model-core API.

A :class:`PredictionRequest` is the declarative, JSON-round-trippable unit
of work every surface shares: the CLI subcommands, the declarative sweep
grids, and the asyncio prediction service all describe "this deck, on this
machine, at P ranks, with this placement → predicted time + phase
breakdown" with the same object, and the content hash of that object is
the cache key under which the result store memoises the answer.

Everything here is pure data: scalars, strings, and nested frozen
dataclasses — no filesystem, no live model objects.  Materialisation into
decks/partitions/clusters happens in :mod:`repro.core.assemble`, and the
number-producing pipeline lives in :mod:`repro.core.pipeline`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from repro.core.parsing import is_weak_deck, weak_cells_per_rank
from repro.hydro.dynamic import DynamicSpec
from repro.machine.cluster import ClusterConfig, es45_like_cluster
from repro.partition.cache import PARTITION_METHODS
from repro.perturb.spec import PerturbSpec

__all__ = [
    "KNOWN_MODELS",
    "ClusterSpec",
    "DynamicSpec",
    "PerturbSpec",
    "PredictionRequest",
    "PredictionResult",
]

#: Model labels the core pipeline can price.  The first three are the
#: sweep-grid models (measured vs predicted tables); ``transition`` is the
#: deck-aware variant the ``validate`` command adds; ``sparse`` is the
#: O(P log P) path for ``weak:`` decks at extreme rank counts.
KNOWN_MODELS = (
    "mesh-specific",
    "homogeneous",
    "heterogeneous",
    "transition",
    "sparse",
)


@dataclass(frozen=True)
class ClusterSpec:
    """Declarative simulated-machine axis (CLI/JSON-expressible subset).

    The default spec materialises the paper's ES-45/QsNet-like validation
    box; ``smp`` enables the two-level hierarchy, and the ``intra_*``
    knobs mirror :meth:`repro.machine.cluster.ClusterConfig.with_smp` —
    their defaults build a machine bit-identical to the historical
    ``es45_like_cluster(speed).with_smp()`` path.
    """

    speed: float = 1.0
    smp: bool = False
    ranks_per_node: int = 4
    intra_latency: float = 3e-6
    intra_bandwidth: float = 1.2e9
    intra_send_overhead: float | None = None
    intra_recv_overhead: float | None = None

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ValueError("speed must be positive")
        if self.ranks_per_node < 1:
            raise ValueError("ranks_per_node must be >= 1")

    def build(self) -> ClusterConfig:
        """Materialise the simulated machine."""
        cluster = es45_like_cluster(speed=self.speed)
        if not self.smp:
            return cluster
        return cluster.with_smp(
            ranks_per_node=self.ranks_per_node,
            intra_latency=self.intra_latency,
            intra_bandwidth=self.intra_bandwidth,
            intra_send_overhead=self.intra_send_overhead,
            intra_recv_overhead=self.intra_recv_overhead,
        )

    @property
    def label(self) -> str:
        """Short human-readable tag for tables and progress lines."""
        tag = f"x{self.speed:g}"
        return f"es45{tag}+smp" if self.smp else f"es45{tag}"


def _from_dict(cls, data: dict):
    """Rebuild a frozen dataclass, rejecting unknown keys loudly."""
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    return cls(**data)


@dataclass(frozen=True)
class PredictionRequest:
    """One fully specified what-if question.

    ``deck`` accepts every spec of :mod:`repro.core.parsing` — named sizes,
    ``NXxNY`` extents, or ``weak:<cells_per_rank>`` synthetic weak-scaled
    meshes (the first-class ``--ranks`` scaling axis; only the ``sparse``
    model can price those, and they cannot be measured).  ``iterations`` /
    ``warmup`` configure the simulated measurement window of
    :func:`repro.core.pipeline.measure`; when ``dynamic`` is set, the
    dynamic spec's own window wins, exactly as the sweep runner always
    behaved.  ``perturb`` injects seeded noise into the *measurement*
    (stragglers, degraded links, failures, churn — see
    :mod:`repro.perturb`); model predictions stay clean, which is exactly
    what lets a study ask how far noise pushes reality from the model.
    """

    deck: str = "small"
    ranks: int = 16
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    partition_method: str = "multilevel"
    seed: int = 1
    placement: str | None = None
    dynamic: DynamicSpec | None = None
    models: tuple = ("homogeneous", "heterogeneous")
    max_side: int = 256
    iterations: int = 3
    warmup: int = 1
    perturb: PerturbSpec | None = None
    #: Store key of a :class:`~repro.perfmodel.calibrate.FittedCalibration`
    #: in the ``calibrations`` namespace.  When set, assembly loads the
    #: fitted cost table and installs the fitted network/overheads on the
    #: cluster instead of running the contrived-grid calibration — the
    #: machine becomes "whatever the trace measured".
    calibration: str | None = None

    #: A request without the newer optional axes must hash to the key it
    #: had before those fields existed, so every stored sweep/service
    #: result stays addressable (see :func:`repro.util.artifacts.stable_hash`).
    _HASH_OPTIONAL_FIELDS_ = ("perturb", "calibration")

    def __post_init__(self) -> None:
        object.__setattr__(self, "models", tuple(self.models))
        if self.ranks < 1:
            raise ValueError("ranks must be >= 1")
        if self.partition_method not in PARTITION_METHODS:
            raise ValueError(
                f"unknown partition method {self.partition_method!r}; "
                f"options: {PARTITION_METHODS}"
            )
        for model in self.models:
            if model not in KNOWN_MODELS:
                raise ValueError(f"unknown model {model!r}")
        if self.max_side < 1:
            raise ValueError("max_side must be >= 1")
        if not 0 <= self.warmup < self.iterations:
            raise ValueError("need 0 <= warmup < iterations")
        if self.placement is not None:
            if not self.cluster.smp:
                raise ValueError("a placement requires an SMP cluster spec")
            from repro.placement.strategies import parse_strategy

            name, seed = parse_strategy(self.placement)
            if name == "random" and seed is None and self.seed < 0:
                raise ValueError(
                    "a random placement needs a non-negative seed, "
                    f"got {self.seed}"
                )
        if self.perturb is not None:
            if self.perturb.has_churn and self.dynamic is None:
                raise ValueError(
                    "churn_prob requires a dynamic workload spec"
                )
            if (
                self.perturb.fail_rank is not None
                and self.perturb.fail_rank >= self.ranks
            ):
                raise ValueError(
                    f"fail_rank {self.perturb.fail_rank} out of range "
                    f"for {self.ranks} ranks"
                )
        if is_weak_deck(self.deck):
            weak_cells_per_rank(self.deck)  # validate the suffix eagerly
            if self.placement is not None or self.dynamic is not None:
                raise ValueError(
                    "weak-scaled decks take no placement/dynamic axes"
                )
            if self.perturb is not None:
                raise ValueError(
                    "weak-scaled decks cannot be measured, so a perturbation "
                    "has nothing to act on"
                )
            for model in self.models:
                if model != "sparse":
                    raise ValueError(
                        "weak-scaled decks are priced by the 'sparse' model only"
                    )

    # ------------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """Plain-JSON form (nested dataclasses become dicts).

        The ``perturb`` and ``calibration`` keys are omitted while unset:
        requests not using them keep the exact wire format (and golden
        payloads) they had before the fields existed.
        """
        data = dataclasses.asdict(self)
        data["models"] = list(self.models)
        if self.perturb is None:
            del data["perturb"]
        if self.calibration is None:
            del data["calibration"]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PredictionRequest":
        """Rebuild a request, rejecting unknown keys loudly."""
        data = dict(data)
        if isinstance(data.get("cluster"), dict):
            data["cluster"] = _from_dict(ClusterSpec, data["cluster"])
        if isinstance(data.get("dynamic"), dict):
            data["dynamic"] = _from_dict(DynamicSpec, data["dynamic"])
        if isinstance(data.get("perturb"), dict):
            data["perturb"] = _from_dict(PerturbSpec, data["perturb"])
        if "models" in data:
            data["models"] = tuple(data["models"])
        return _from_dict(cls, data)

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys, exact float round trip)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PredictionRequest":
        return cls.from_dict(json.loads(text))

    def label(self) -> str:
        """Compact one-line description for logs and progress output."""
        bits = [self.deck, f"p={self.ranks}", self.cluster.label]
        if self.partition_method != "multilevel":
            bits.append(self.partition_method)
        if self.placement is not None:
            bits.append(f"place={self.placement}")
        if self.dynamic is not None:
            bits.append(self.dynamic.label)
        if self.perturb is not None:
            bits.append(f"perturb[{self.perturb.label}]")
        if self.calibration is not None:
            bits.append(f"cal={self.calibration[:10]}")
        bits.append("+".join(self.models))
        return " ".join(bits)


@dataclass(frozen=True)
class PredictionResult:
    """The answer to one request: totals plus per-component breakdowns.

    ``predicted`` maps each requested model to its total per-iteration
    seconds; ``phases`` carries the paper's decomposition (computation,
    boundary exchange, ghost updates, collectives) per model.  ``measured``
    is ``None`` for pure model predictions and the simulated per-iteration
    seconds for :func:`repro.core.pipeline.measure`.  ``meta`` holds
    request-level facts (cell counts, link counts) the table renderers
    want without re-assembling anything.
    """

    request: PredictionRequest
    measured: float | None
    #: model label → predicted total seconds.
    predicted: dict
    #: model label → {component → seconds} (includes ``"total"``).
    phases: dict
    meta: dict = field(default_factory=dict)

    def error(self, model: str) -> float:
        """Signed relative error of ``model`` (paper's convention)."""
        if self.measured is None:
            raise ValueError("no measurement to compare against")
        return (self.measured - self.predicted[model]) / self.measured

    def to_payload(self) -> dict:
        """JSON-serialisable form for stores and the service wire format."""
        return {
            "request": self.to_request_payload(),
            "measured": self.measured,
            "predicted": dict(self.predicted),
            "phases": {m: dict(p) for m, p in self.phases.items()},
            "meta": dict(self.meta),
        }

    def to_request_payload(self) -> dict:
        return self.request.to_dict()

    @classmethod
    def from_payload(cls, payload: dict) -> "PredictionResult":
        """Rebuild a result from :meth:`to_payload` output (exact: JSON
        round-trips IEEE doubles via ``repr``)."""
        return cls(
            request=PredictionRequest.from_dict(payload["request"]),
            measured=payload["measured"],
            predicted=dict(payload["predicted"]),
            phases={m: dict(p) for m, p in payload["phases"].items()},
            meta=dict(payload.get("meta", {})),
        )
