"""Generate a schema-conforming trace from the simulated machine itself.

This is the closed loop's test harness: the engine runs a deck on a known
cluster, and :func:`synthesize_trace` writes exactly what an instrumented
real application would log — per-rank, per-iteration, per-phase compute
and communication seconds, the material census, point-to-point message
counts/bytes, and a ping-pong message-timing ladder.  Because every number
came from known model parameters, fitting the trace back
(:func:`repro.trace.replay.fit_calibration`) must recover those parameters
— the round-trip property the calibration subsystem is tested against, and
the CI smoke lane's data source.
"""

from __future__ import annotations

import numpy as np

from repro.core.parsing import as_deck_size
from repro.hydro.driver import krak_job
from repro.machine.cluster import ClusterConfig, es45_like_cluster
from repro.machine.network import NetworkModel
from repro.mesh.deck import NUM_MATERIALS, build_deck
from repro.mesh.connectivity import build_face_table
from repro.partition.cache import cached_partition
from repro.simmpi.compile import OP_ISEND, CompiledProgram
from repro.trace.schema import TraceDoc, TraceMachine, TraceRun

__all__ = ["default_pingpong_sizes", "synthesize_trace"]


def default_pingpong_sizes(network: NetworkModel) -> np.ndarray:
    """A ping-pong size ladder with ≥3 distinct sizes in every segment.

    Segment membership follows the network's own convention
    (``searchsorted(breakpoints, size, side="left")``): a bounded segment
    ``(lo, hi]`` is sampled at 25 %, 50 %, and 100 % of its span, and the
    open last segment at 2×, 8×, and 32× its lower edge — enough points for
    the per-segment linear fit in
    :func:`repro.perfmodel.calibrate.fit_network` to be overdetermined.
    """
    sizes: list[float] = []
    lo = 0.0
    for hi in np.asarray(network.breakpoints, dtype=np.float64):
        span = float(hi) - lo
        sizes.extend(lo + span * f for f in (0.25, 0.5, 1.0))
        lo = float(hi)
    if lo == 0.0:
        sizes.extend([64.0, 4096.0, 65536.0])
    else:
        sizes.extend([lo * 2.0, lo * 8.0, lo * 32.0])
    return np.unique(np.asarray(sizes, dtype=np.float64))


def _count_messages(table: CompiledProgram):
    """Per-rank point-to-point ``{"count", "bytes"}`` totals of a lowered job.

    Each rank's ``OP_ISEND`` rows of the table the engine ran are tallied
    — so counts/bytes are exactly what the run sent, not a model of it.
    """
    messages = []
    for rank in range(table.num_ranks):
        opcode, farg, _, _ = table.rank_columns(rank)
        sel = opcode == OP_ISEND
        messages.append({"count": int(sel.sum()), "bytes": float(farg[sel].sum())})
    return tuple(messages)


def synthesize_trace(
    deck: str = "16x8",
    ranks=(2, 4),
    cluster: ClusterConfig | None = None,
    iterations: int = 4,
    warmup: int = 1,
    partition_method: str = "block",
    seed: int = 1,
    pingpong_sizes=None,
) -> TraceDoc:
    """Run ``deck`` at each rank count on ``cluster`` and log a trace.

    Ping-pong samples are taken straight from the network's ``tmsg`` (a
    zero-noise ping-pong benchmark); per-phase windows come from the run's
    own :class:`~repro.simmpi.PhaseTrace` marks, iteration by iteration.
    Requires a flat cluster — the trace schema carries one network's
    breakpoints, which an SMP hierarchy's two fabrics would not fit.
    """
    if cluster is None:
        cluster = es45_like_cluster()
    if cluster.hierarchy is not None:
        raise ValueError(
            "synthesize_trace needs a flat cluster: the trace schema "
            "describes a single network"
        )
    deck_spec = str(deck)
    built = build_deck(as_deck_size(deck_spec))
    faces = build_face_table(built.mesh)

    runs = []
    num_phases = None
    for num_ranks in ranks:
        partition = cached_partition(
            built, int(num_ranks), method=partition_method, seed=seed, faces=faces
        )
        program, engine = krak_job(
            built, partition, cluster, iterations, faces, None, None, None
        )
        table = program.lower()
        trace = engine.run_compiled(table).trace
        compute = np.stack(
            [trace.window_compute(i, i + 1) for i in range(iterations)]
        )
        comm = np.stack([trace.window_comm(i, i + 1) for i in range(iterations)])
        iteration_seconds = np.array(
            [trace.iteration_time(i, i + 1) for i in range(iterations)]
        )
        num_phases = compute.shape[2]
        runs.append(
            TraceRun(
                ranks=int(num_ranks),
                iterations=iterations,
                warmup=warmup,
                partition_method=partition_method,
                seed=seed,
                compute=compute,
                comm=comm,
                iteration_seconds=iteration_seconds,
                material_cells=partition.material_census(
                    built.cell_material, NUM_MATERIALS
                ),
                messages=_count_messages(table),
            )
        )

    if pingpong_sizes is None:
        pingpong_sizes = default_pingpong_sizes(cluster.network)
    pingpong_sizes = np.asarray(pingpong_sizes, dtype=np.float64)
    pingpong_seconds = np.array(
        [float(cluster.network.tmsg(s)) for s in pingpong_sizes]
    )

    return TraceDoc(
        deck=deck_spec,
        machine=TraceMachine(
            name=cluster.name,
            network_breakpoints=tuple(
                float(b) for b in cluster.network.breakpoints
            ),
            send_overhead=cluster.send_overhead,
            recv_overhead=cluster.recv_overhead,
        ),
        num_phases=int(num_phases),
        runs=tuple(runs),
        pingpong_bytes=pingpong_sizes,
        pingpong_seconds=pingpong_seconds,
    )
