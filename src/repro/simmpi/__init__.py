"""A deterministic discrete-event simulated MPI runtime.

Each simulated rank is a stream of communication and compute *requests*
(a generator, or columns written straight into the event tables); the
engine advances per-rank virtual clocks, matches sends to receives, and
synchronises collectives.  The timing rules mirror the application
behaviour described in Section 4 of the paper:

* point-to-point sends are asynchronous (``Isend``) with blocking receives;
* back-to-back sends from one rank pipeline their start-up latencies but
  serialise their bandwidth terms through the NIC, so messages to multiple
  neighbours genuinely overlap (the analytic model deliberately ignores this
  — one of its documented approximations);
* collectives use binary trees: ``log2(P)`` message steps for one-to-all,
  ``2·log2(P)`` for allreduce.

Virtual time is exact and bit-reproducible; no wall clocks anywhere.
"""

from repro.simmpi.api import (
    Allreduce,
    Barrier,
    Bcast,
    Compute,
    Gather,
    Isend,
    MarkIteration,
    MessageKey,
    NotLowerable,
    Op,
    Recv,
    SetPhase,
    WaitSends,
)
from repro.simmpi.engine import DeadlockError, Engine, SimResult
from repro.simmpi.collectives import (
    allreduce_time,
    bcast_time,
    gather_time,
    tree_depth,
)
from repro.simmpi.tracing import PhaseTrace

__all__ = [
    "Allreduce",
    "Barrier",
    "Bcast",
    "Compute",
    "Gather",
    "Isend",
    "MarkIteration",
    "MessageKey",
    "NotLowerable",
    "Op",
    "Recv",
    "SetPhase",
    "WaitSends",
    "DeadlockError",
    "Engine",
    "SimResult",
    "allreduce_time",
    "bcast_time",
    "gather_time",
    "tree_depth",
    "PhaseTrace",
]
