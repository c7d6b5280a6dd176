"""Seeded random scenario generation for differential verification.

A :class:`Scenario` is a *declarative*, JSON-serializable description of one
simulated configuration: mesh extents, partitioner, machine (network curve,
node costs, host overheads), optional SMP hierarchy + rank placement, and
optional dynamic-workload configuration.  :func:`build_scenario` turns it
into the live objects both the optimized stack and the oracle consume, so a
scenario file is a complete, replayable repro case
(``repro verify diff <scenario.json>``).

:func:`random_scenario` draws a valid scenario from a seed using only
:class:`random.Random` (the stdlib Mersenne Twister is specified to be
platform- and version-stable), rotating through edge-case archetypes —
1 rank, ranks == cells, capacity-tight placements, zero-cost curves, burn
bursts — so even a small ``--seeds N`` sweep exercises all of them.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.assemble import apply_placement
from repro.hydro.dynamic import DynamicSpec
from repro.hydro.workload import build_workload_census
from repro.machine.cluster import ClusterConfig
from repro.machine.costdb import NUM_MATERIALS, NUM_PHASES, krak_node_model
from repro.machine.network import QSNET_LIKE, NetworkModel, make_network
from repro.machine.node import NodeModel
from repro.mesh.connectivity import build_face_table
from repro.mesh.deck import build_deck
from repro.partition import PARTITION_METHODS, make_partition
from repro.perturb import PerturbSpec

#: Edge-case archetypes, rotated by seed so every small sweep covers all.
ARCHETYPES = (
    "general",
    "one_rank",
    "ranks_eq_cells",
    "smp_tight",
    "zero_cost_network",
    "zero_cost_node",
    "burn_burst",
    "smp_overheads",
    # Appended last so seeds 0..7 keep their historical archetypes.
    "large_sparse_mesh",
    "batch_lowering",
    # Perturbation archetypes, appended so earlier seeds keep theirs too.
    "straggler_noise",
    "rank_failure_restart",
)


@dataclass(frozen=True)
class Scenario:
    """One declarative verification scenario (all fields JSON-scalar)."""

    #: Generator seed (provenance only; building never re-draws randomness).
    seed: int
    nx: int = 8
    ny: int = 4
    num_ranks: int = 4
    partition_method: str = "multilevel"
    partition_seed: int = 1
    iterations: int = 3
    # --- machine ----------------------------------------------------------
    speed: float = 1.0
    jitter_frac: float = 0.015
    machine_seed: int = 0
    #: All per-phase/per-material compute costs identically zero.
    zero_cost_node: bool = False
    #: ``None`` → the default QsNet-like curve; ``{"zero": true}`` → a
    #: zero-cost curve; otherwise ``make_network`` keyword values.
    network: dict | None = None
    send_overhead: float = 1.5e-6
    recv_overhead: float = 2.0e-6
    # --- SMP hierarchy + placement ---------------------------------------
    smp: bool = False
    ranks_per_node: int = 4
    intra_latency: float = 3e-6
    intra_bandwidth: float = 1.2e9
    intra_send_overhead: float | None = None
    intra_recv_overhead: float | None = None
    #: ``None`` → implicit block map; else a
    #: :func:`repro.placement.make_placement` strategy name.
    placement: str | None = None
    # --- dynamic workload -------------------------------------------------
    #: ``None`` → static run; else :class:`~repro.hydro.dynamic.DynamicSpec`
    #: keyword values (missing keys take the spec's defaults).
    dynamic: dict | None = None
    # --- perturbation ------------------------------------------------------
    #: ``None`` → clean machine; else
    #: :meth:`repro.perturb.PerturbSpec.to_dict` keys (missing keys take
    #: the spec's defaults), injected into both sides of the differential.
    perturb: dict | None = None

    def __post_init__(self) -> None:
        if self.nx < NUM_MATERIALS:
            raise ValueError(f"nx must be >= {NUM_MATERIALS} (one column per material)")
        if self.ny < 1:
            raise ValueError("ny must be >= 1")
        if not 1 <= self.num_ranks <= self.nx * self.ny:
            raise ValueError("num_ranks must lie in [1, num_cells]")
        if self.partition_method not in PARTITION_METHODS:
            raise ValueError(f"unknown partition method {self.partition_method!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.placement is not None and not self.smp:
            raise ValueError("a placement requires the SMP hierarchy")
        if self.dynamic is not None:
            DynamicSpec(**self.dynamic)  # validates the knobs
        if self.perturb is not None:
            spec = PerturbSpec.from_dict(self.perturb)  # validates the knobs
            if spec.has_churn and self.dynamic is None:
                raise ValueError("churn_prob requires a dynamic workload")
            if spec.fail_rank is not None and spec.fail_rank >= self.num_ranks:
                raise ValueError(
                    f"fail_rank {spec.fail_rank} out of range for "
                    f"{self.num_ranks} ranks"
                )

    def label(self) -> str:
        """Compact one-line description for progress output."""
        bits = [
            f"seed={self.seed}",
            f"{self.nx}x{self.ny}",
            f"p={self.num_ranks}",
            self.partition_method,
            f"it={self.iterations}",
        ]
        if self.zero_cost_node:
            bits.append("node=zero")
        if self.network is not None:
            bits.append("net=zero" if self.network.get("zero") else "net=custom")
        if self.smp:
            bits.append(f"smp{self.ranks_per_node}")
            if self.intra_send_overhead is not None or (
                self.intra_recv_overhead is not None
            ):
                bits.append("smp-oh")
        if self.placement is not None:
            bits.append(f"place={self.placement}")
        if self.dynamic is not None:
            spec = DynamicSpec(**self.dynamic)
            bits.append(f"dyn={spec.policy}x{spec.burn_multiplier:g}")
        if self.perturb is not None:
            bits.append(f"perturb={PerturbSpec.from_dict(self.perturb).label}")
        return " ".join(bits)


@dataclass(frozen=True)
class BuiltScenario:
    """The live objects a scenario describes (shared by the production run
    and the oracle)."""

    scenario: Scenario
    deck: object
    faces: object
    partition: object
    census: object
    #: The cluster the run uses (placement applied when configured).
    cluster: ClusterConfig
    #: The SMP cluster *before* any placement (``None`` without SMP) —
    #: property checks vary the placement against this base machine.
    smp_base: ClusterConfig | None
    dynamic: DynamicSpec | None
    iterations: int
    #: Materialised perturbation spec (``None`` for clean scenarios).
    perturb: PerturbSpec | None = None


def _build_network(spec: dict | None) -> NetworkModel:
    """The scenario's inter-node message-cost curve."""
    if spec is None:
        return QSNET_LIKE
    if spec.get("zero"):
        return NetworkModel(
            breakpoints=np.array([4096.0]),
            latency=np.zeros(2),
            per_byte=np.zeros(2),
            name="zero-cost",
        )
    return make_network(
        small_latency=spec["small_latency"],
        large_latency=spec["large_latency"],
        eager_threshold=spec["eager_threshold"],
        bandwidth_bytes_per_s=spec["bandwidth"],
        name="fuzz",
    )


def _build_node(scenario: Scenario) -> NodeModel:
    """The scenario's per-processor compute-cost model."""
    if scenario.zero_cost_node:
        return NodeModel(
            phase_overhead=np.zeros(NUM_PHASES),
            cell_cost=np.zeros((NUM_PHASES, NUM_MATERIALS)),
            jitter_frac=scenario.jitter_frac,
            seed=scenario.machine_seed,
        )
    return krak_node_model(
        speed=scenario.speed,
        jitter_frac=scenario.jitter_frac,
        seed=scenario.machine_seed,
    )


def _build_partition(scenario: Scenario, mesh, faces):
    """Dispatch to the configured partitioner (the shared assembly seam)."""
    return make_partition(
        mesh,
        scenario.num_ranks,
        method=scenario.partition_method,
        seed=scenario.partition_seed,
        faces=faces,
    )


def build_scenario(scenario: Scenario) -> BuiltScenario:
    """Materialise a scenario into live deck/partition/cluster objects."""
    deck = build_deck((scenario.nx, scenario.ny))
    faces = build_face_table(deck.mesh)
    partition = _build_partition(scenario, deck.mesh, faces)
    census = build_workload_census(deck, partition, faces)

    cluster = ClusterConfig(
        name=f"fuzz-{scenario.seed}",
        node=_build_node(scenario),
        network=_build_network(scenario.network),
        send_overhead=scenario.send_overhead,
        recv_overhead=scenario.recv_overhead,
    )
    smp_base = None
    if scenario.smp:
        cluster = smp_base = cluster.with_smp(
            ranks_per_node=scenario.ranks_per_node,
            intra_latency=scenario.intra_latency,
            intra_bandwidth=scenario.intra_bandwidth,
            intra_send_overhead=scenario.intra_send_overhead,
            intra_recv_overhead=scenario.intra_recv_overhead,
        )
        if scenario.placement is not None:
            # The same constructor path core.predict() runs (strategy name →
            # make_placement on the SMP hierarchy, default seed).
            cluster = apply_placement(
                cluster, scenario.placement, scenario.num_ranks, census
            )

    dynamic = None
    if scenario.dynamic is not None:
        dynamic = DynamicSpec(**scenario.dynamic)

    perturb = None
    if scenario.perturb is not None:
        perturb = PerturbSpec.from_dict(scenario.perturb)

    return BuiltScenario(
        scenario=scenario,
        deck=deck,
        faces=faces,
        partition=partition,
        census=census,
        cluster=cluster,
        smp_base=smp_base,
        dynamic=dynamic,
        iterations=scenario.iterations,
        perturb=perturb,
    )


# ---------------------------------------------------------------- generation


def _random_network(rng: random.Random) -> dict | None:
    """Either the default curve or a randomized two-segment one."""
    if rng.random() < 0.4:
        return None
    return {
        "small_latency": rng.choice([0.0, 1e-6, 18e-6, 50e-6]),
        "large_latency": rng.choice([0.0, 2e-6, 36e-6, 80e-6]),
        "eager_threshold": float(rng.choice([64, 1024, 4096, 16384])),
        "bandwidth": rng.choice([50e6, 300e6, 1e9, 10e9]),
    }


def _random_dynamic(rng: random.Random, burst: bool = False) -> dict:
    """A dynamic-workload spec; ``burst`` forces aggressive burning."""
    policy = rng.choice(["never", "every:2", "every:3", "imbalance:1.1"])
    return {
        "policy": policy,
        "burn_multiplier": (
            float(rng.choice([8.0, 16.0, 32.0]))
            if burst
            else float(rng.choice([1.0, 2.0, 4.0]))
        ),
        "dt": 1.0e-5,
        "migration_bytes_per_cell": rng.choice([0, 64, 256]),
        "partition_seed": rng.randrange(4),
    }


def _random_placement(rng: random.Random) -> str:
    return rng.choice(
        ["block", "round-robin", f"random:{rng.randrange(8)}", "comm-aware"]
    )


def _feasible_method(method: str, nx: int, ny: int, num_ranks: int) -> str:
    """Fall back to ``block`` when the drawn partitioner cannot apply."""
    if method == "structured-block":
        from repro.partition.block import choose_tile_grid

        try:
            choose_tile_grid(nx, ny, num_ranks)
        except ValueError:
            return "block"
    if method == "multilevel" and num_ranks == nx * ny:
        # One cell per rank leaves the multilevel pipeline nothing to
        # coarsen; the block map is the canonical ranks == cells partition.
        return "block"
    return method


def random_scenario(seed: int) -> Scenario:
    """Draw one valid scenario from ``seed`` (stdlib RNG, fully portable).

    The archetype rotates with ``seed % len(ARCHETYPES)`` so consecutive
    seeds sweep every edge-case family; all remaining knobs are drawn from
    the seeded stream.
    """
    rng = random.Random(seed)
    archetype = ARCHETYPES[seed % len(ARCHETYPES)]

    nx = rng.randrange(4, 13)
    ny = rng.randrange(1, 9)
    num_cells = nx * ny
    num_ranks = min(num_cells, rng.choice([1, 2, 3, 4, 6, 8, 12, 16]))
    fields: dict = {
        "seed": seed,
        "nx": nx,
        "ny": ny,
        "num_ranks": num_ranks,
        "partition_method": rng.choice(PARTITION_METHODS),
        "partition_seed": rng.randrange(8),
        "iterations": rng.randrange(2, 5),
        "speed": rng.choice([0.5, 1.0, 2.0]),
        "jitter_frac": rng.choice([0.0, 0.015, 0.1]),
        "machine_seed": rng.randrange(4),
        "network": _random_network(rng),
        "send_overhead": rng.choice([0.0, 1.5e-6, 5e-6]),
        "recv_overhead": rng.choice([0.0, 2.0e-6, 5e-6]),
    }

    if archetype == "one_rank":
        fields["num_ranks"] = 1
    elif archetype == "ranks_eq_cells":
        # Every cell its own rank — the extreme the partitioners and the
        # ghost census must still handle.
        fields["nx"], fields["ny"] = rng.choice([(4, 2), (5, 1), (6, 2)])
        fields["num_ranks"] = fields["nx"] * fields["ny"]
        fields["partition_method"] = "block"
    elif archetype == "smp_tight":
        # Capacity-tight: every node exactly full.
        rpn = rng.choice([2, 4])
        nodes = rng.randrange(2, 5)
        fields["num_ranks"] = min(num_cells, rpn * nodes)
        fields["smp"] = True
        fields["ranks_per_node"] = rpn
        fields["placement"] = _random_placement(rng)
    elif archetype == "zero_cost_network":
        fields["network"] = {"zero": True}
    elif archetype == "zero_cost_node":
        fields["zero_cost_node"] = True
    elif archetype == "burn_burst":
        fields["iterations"] = rng.randrange(4, 7)
        fields["dynamic"] = _random_dynamic(rng, burst=True)
    elif archetype == "large_sparse_mesh":
        # High rank count, low degree: the structured-block partition of a
        # large mesh gives every rank a handful of neighbours — the regime
        # the CSR placement structures are built for, so the fuzz lane
        # and the placement golden cover graphs whose sparsity matters.
        fields["nx"] = rng.randrange(10, 14)
        fields["ny"] = rng.randrange(6, 10)
        fields["num_ranks"] = min(
            fields["nx"] * fields["ny"], rng.choice([16, 24, 32])
        )
        fields["partition_method"] = "structured-block"
        fields["iterations"] = 2
        if rng.random() < 0.6:
            fields["smp"] = True
            fields["ranks_per_node"] = rng.choice([4, 8])
            if rng.random() < 0.5:
                fields["placement"] = _random_placement(rng)
    elif archetype == "batch_lowering":
        # Lowering stress: run longer with repartition bursts so the op
        # stream mixes migration point-to-points with the phase schedule,
        # and sprinkle SMP so the split inter/intra send sweep is exercised
        # too.  The draw below once picked an engine; it is kept (and
        # discarded) so every seed still maps to the same scenario.
        rng.choice(["batch", "scalar", "auto"])
        fields["iterations"] = rng.randrange(3, 6)
        if rng.random() < 0.7:
            fields["dynamic"] = _random_dynamic(rng, burst=True)
        if rng.random() < 0.4:
            fields["smp"] = True
            fields["ranks_per_node"] = rng.choice([2, 4])
            fields["intra_send_overhead"] = rng.choice([None, 0.5e-6])
            fields["intra_recv_overhead"] = rng.choice([None, 0.7e-6])
    elif archetype == "straggler_noise":
        # Seeded OS-noise/straggler injection: the production perturbation
        # machinery (cached vectorized draws) must match the
        # oracle's naive per-draw re-implementation bit for bit.  Zero
        # amplitudes are drawn on purpose — the null-identity edge.
        fields["iterations"] = rng.randrange(3, 6)
        perturb: dict = {
            "seed": rng.randrange(16),
            "compute_noise": rng.choice([0.0, 0.02, 0.1]),
            "straggler_prob": rng.choice([0.0, 0.2, 0.5]),
            "straggler_factor": rng.choice([2.0, 4.0, 8.0]),
        }
        if rng.random() < 0.5:
            perturb["link_degrade"] = rng.choice([0.25, 1.0])
        if rng.random() < 0.4:
            fields["smp"] = True
            fields["ranks_per_node"] = rng.choice([2, 4])
        fields["perturb"] = perturb
    elif archetype == "rank_failure_restart":
        # A mid-run failure pays its checkpoint/restart cost in the
        # dedicated trace phase; with a dynamic workload the spec may also
        # churn-force repartitions through the controller.
        fields["iterations"] = rng.randrange(3, 6)
        perturb = {
            "seed": rng.randrange(16),
            "fail_rank": rng.randrange(fields["num_ranks"]),
            "fail_iteration": rng.randrange(1, fields["iterations"]),
            "restart_seconds": rng.choice([0.0, 1e-4, 5e-3]),
        }
        if rng.random() < 0.5:
            perturb["compute_noise"] = 0.05
        if rng.random() < 0.5:
            fields["dynamic"] = _random_dynamic(rng)
            perturb["churn_prob"] = rng.choice([0.0, 0.3, 0.7])
        fields["perturb"] = perturb
    elif archetype == "smp_overheads":
        fields["smp"] = True
        fields["ranks_per_node"] = rng.choice([2, 3, 4])
        fields["intra_send_overhead"] = rng.choice([0.0, 0.5e-6])
        fields["intra_recv_overhead"] = rng.choice([0.0, 0.7e-6])
        fields["placement"] = _random_placement(rng)
    else:  # general: independently sprinkle the optional axes
        if rng.random() < 0.4:
            fields["smp"] = True
            fields["ranks_per_node"] = rng.choice([2, 4])
            if rng.random() < 0.6:
                fields["placement"] = _random_placement(rng)
        if rng.random() < 0.3:
            fields["dynamic"] = _random_dynamic(rng)

    fields["partition_method"] = _feasible_method(
        fields["partition_method"], fields["nx"], fields["ny"], fields["num_ranks"]
    )
    return Scenario(**fields)


# -------------------------------------------------------------- serialization


def scenario_to_dict(scenario: Scenario) -> dict:
    """Plain-JSON form of a scenario."""
    return dataclasses.asdict(scenario)


def scenario_from_dict(data: dict) -> Scenario:
    """Rebuild a scenario, rejecting unknown keys loudly.

    A legacy ``engine`` key (from files written when runs could choose
    between engines that priced identically) is dropped.
    """
    data = {k: v for k, v in data.items() if k != "engine"}
    known = {f.name for f in dataclasses.fields(Scenario)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
    return Scenario(**data)


def save_scenario(scenario: Scenario, path) -> Path:
    """Write a scenario as JSON; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(scenario_to_dict(scenario), indent=1) + "\n")
    return path


def load_scenario(path) -> Scenario:
    """Read a scenario JSON written by :func:`save_scenario`."""
    return scenario_from_dict(json.loads(Path(path).read_text()))
