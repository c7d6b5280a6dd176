"""Request objects yielded by simulated rank programs — the simmpi op API.

A rank program is a generator or list of these requests.  The vocabulary
matches what Krak needs (Section 4): asynchronous sends + blocking receives,
waits on outstanding sends, and the three collective types of Table 4.
Requests describe timing only: messages carry sizes, and nothing is sent
back into the program.

Every request type derives from :class:`Op` and implements
:meth:`Op.lower`, appending itself to a
:class:`~repro.simmpi.compile.ProgramWriter` — the hook
:func:`~repro.simmpi.compile.lower_ops` and Krak's rare event blocks use to
write ops into the columnar event tables the engine executes.

Message identity is a named :class:`MessageKey` ``(src, dst, tag)``.  It
subclasses ``tuple``, so it compares and hashes equal to the positional
``(src, dst, tag)`` triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple


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

    Subclasses implement :meth:`lower` to append themselves to a
    :class:`~repro.simmpi.compile.ProgramWriter`.
    """

    def lower(self, writer) -> None:
        """Append this op to ``writer`` (batch compilation)."""
        raise NotLowerable(f"{type(self).__name__} cannot be lowered")


@dataclass(frozen=True)
class Compute(Op):
    """Charge ``seconds`` of computation to the current phase."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError(f"compute time must be non-negative, got {self.seconds}")

    def lower(self, writer) -> None:
        writer.compute(self.seconds)


@dataclass(frozen=True)
class SetPhase(Op):
    """Attribute subsequent compute/comm time to iteration phase ``phase``."""

    phase: int

    def lower(self, writer) -> None:
        writer.set_phase(self.phase)


@dataclass(frozen=True)
class MarkIteration(Op):
    """Record the rank's clock at the start of iteration ``index``."""

    index: int

    def lower(self, writer) -> None:
        writer.mark(self.index)


@dataclass(frozen=True)
class Isend(Op):
    """Post an asynchronous send of ``nbytes`` to ``dst`` with ``tag``."""

    dst: int
    tag: int
    nbytes: float

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {self.nbytes}")

    def message_key(self, src: int) -> MessageKey:
        """The :class:`MessageKey` this send posted from rank ``src``."""
        return MessageKey(src, self.dst, self.tag)

    def lower(self, writer) -> None:
        writer.isend(self.dst, self.tag, self.nbytes)


@dataclass(frozen=True)
class Recv(Op):
    """Blocking receive of the matching message from ``src`` with ``tag``."""

    src: int
    tag: int

    def message_key(self, dst: int) -> MessageKey:
        """The :class:`MessageKey` this receive waits on at rank ``dst``."""
        return MessageKey(self.src, dst, self.tag)

    def lower(self, writer) -> None:
        writer.recv(self.src, self.tag)


@dataclass(frozen=True)
class WaitSends(Op):
    """Block until all of this rank's posted sends have left the NIC."""


    def lower(self, writer) -> None:
        writer.wait_sends()


@dataclass(frozen=True)
class Allreduce(Op):
    """Reduce this rank's ``value`` with ``op`` (``"sum"|"min"|"max"``).

    ``nbytes`` is the wire payload per tree message (Table 4: 4 or 8 bytes);
    ``value`` and ``op`` name the reduction, the engine prices ``nbytes``.
    """

    value: Any
    op: str = "sum"
    nbytes: float = 8.0

    def __post_init__(self) -> None:
        if self.op not in ("sum", "min", "max"):
            raise ValueError(f"unsupported reduction op {self.op!r}")

    def lower(self, writer) -> None:
        writer.allreduce(self.nbytes)


@dataclass(frozen=True)
class Bcast(Op):
    """Broadcast ``value`` from ``root`` (priced by root's ``nbytes``)."""

    value: Any
    root: int = 0
    nbytes: float = 8.0

    def lower(self, writer) -> None:
        writer.bcast(self.root, self.nbytes)


@dataclass(frozen=True)
class Gather(Op):
    """Gather per-rank values to ``root`` (priced by the largest ``nbytes``)."""

    value: Any
    root: int = 0
    nbytes: float = 32.0

    def lower(self, writer) -> None:
        writer.gather(self.root, self.nbytes)


@dataclass(frozen=True)
class Barrier(Op):
    """Synchronise all ranks (modelled as a zero-payload allreduce)."""

    def lower(self, writer) -> None:
        writer.barrier()


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
