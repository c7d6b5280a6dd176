"""Request objects yielded by simulated rank programs — the simmpi op API.

A rank program is a generator or list of these requests.  The vocabulary
matches what Krak needs (Section 4): asynchronous sends + blocking receives,
waits on outstanding sends, and the three collective types of Table 4.
Requests describe timing only: messages carry sizes, and nothing is sent
back into the program.

Every request type derives from :class:`Op` and implements
:meth:`Op.lower`, writing its own ``(opcode, farg, a, b)`` row through
:meth:`ProgramWriter.row <repro.simmpi.compile.ProgramWriter.row>` — the
hook :func:`~repro.simmpi.compile.lower_programs` uses to write
hand-written programs into the columnar event table the engine executes.

Collectives take keyword arguments only, so a stray positional value can
never be priced as a byte count.

Message identity is a named :class:`MessageKey` ``(src, dst, tag)`` (the
deadlock report names messages by it).  It subclasses ``tuple``, so it
compares and hashes equal to the positional ``(src, dst, tag)`` triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.simmpi import compile as simc


class MessageKey(NamedTuple):
    """Named identity of one point-to-point message stream.

    Being a ``NamedTuple`` it compares and hashes equal to the positional
    ``(src, dst, tag)`` triple.
    """

    src: int
    dst: int
    tag: int


class NotLowerable(Exception):
    """Raised when a request cannot be lowered to the columnar tables."""


class Op:
    """Base class of every engine request.

    Subclasses implement :meth:`lower` to append their row to a
    :class:`~repro.simmpi.compile.ProgramWriter`.
    """

    def lower(self, writer) -> None:
        """Append this op's row to ``writer`` (batch compilation)."""
        raise NotLowerable(f"{type(self).__name__} cannot be lowered")


@dataclass(frozen=True)
class Compute(Op):
    """Charge ``seconds`` of computation to the current phase."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError(f"compute time must be non-negative, got {self.seconds}")

    def lower(self, writer) -> None:
        writer.row(simc.OP_COMPUTE, self.seconds, 0, 0)


@dataclass(frozen=True)
class SetPhase(Op):
    """Attribute subsequent compute/comm time to iteration phase ``phase``."""

    phase: int

    def lower(self, writer) -> None:
        writer.row(simc.OP_SETPHASE, 0.0, self.phase, 0)


@dataclass(frozen=True)
class MarkIteration(Op):
    """Record the rank's clock at the start of iteration ``index``."""

    index: int

    def lower(self, writer) -> None:
        writer.row(simc.OP_MARK, 0.0, self.index, 0)


@dataclass(frozen=True)
class Isend(Op):
    """Post an asynchronous send of ``nbytes`` to ``dst`` with ``tag``."""

    dst: int
    tag: int
    nbytes: float

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {self.nbytes}")

    def lower(self, writer) -> None:
        writer.row(simc.OP_ISEND, self.nbytes, self.dst, self.tag)


@dataclass(frozen=True)
class Recv(Op):
    """Blocking receive of the matching message from ``src`` with ``tag``."""

    src: int
    tag: int

    def lower(self, writer) -> None:
        writer.row(simc.OP_RECV, 0.0, self.src, self.tag)


@dataclass(frozen=True)
class WaitSends(Op):
    """Block until all of this rank's posted sends have left the NIC."""

    def lower(self, writer) -> None:
        writer.row(simc.OP_WAITSENDS, 0.0, 0, 0)


@dataclass(frozen=True, kw_only=True)
class Allreduce(Op):
    """Global reduce + broadcast of ``nbytes`` per tree message (Table 4:
    4 or 8 bytes)."""

    nbytes: float = 8.0

    def lower(self, writer) -> None:
        writer.row(simc.OP_COLL, self.nbytes, 0, simc.COLL_ALLREDUCE)


@dataclass(frozen=True, kw_only=True)
class Bcast(Op):
    """Broadcast from ``root`` (priced by the root's ``nbytes``)."""

    root: int = 0
    nbytes: float = 8.0

    def lower(self, writer) -> None:
        writer.row(simc.OP_COLL, self.nbytes, self.root, simc.COLL_BCAST)


@dataclass(frozen=True, kw_only=True)
class Gather(Op):
    """Gather to ``root`` (priced by the largest ``nbytes`` of any rank)."""

    root: int = 0
    nbytes: float = 32.0

    def lower(self, writer) -> None:
        writer.row(simc.OP_COLL, self.nbytes, self.root, simc.COLL_GATHER)


@dataclass(frozen=True)
class Barrier(Op):
    """Synchronise all ranks (priced as a 4-byte allreduce)."""

    def lower(self, writer) -> None:
        writer.row(simc.OP_COLL, 0.0, 0, simc.COLL_BARRIER)


__all__ = [
    "Op",
    "NotLowerable",
    "MessageKey",
    "Compute",
    "SetPhase",
    "MarkIteration",
    "Isend",
    "Recv",
    "WaitSends",
    "Allreduce",
    "Bcast",
    "Gather",
    "Barrier",
]
