"""Request objects yielded by simulated rank programs — the simmpi op API.

A rank program is a generator; it communicates with the engine by yielding
these requests and receiving results back via ``send()``.  The vocabulary
matches what Krak needs (Section 4): asynchronous sends + blocking receives,
waits on outstanding sends, and the three collective types of Table 4.

Every request type derives from :class:`Op` and registers itself in the
frozen :data:`OP_REGISTRY`, which is how the engine dispatches (no
``isinstance`` ladders).  Each op also implements :meth:`Op.lower`,
appending itself to a :class:`~repro.simmpi.compile.ProgramWriter` — the
hook :func:`~repro.simmpi.compile.lower_ops` and Krak's rare event blocks
use to write ops into columnar event tables — or raising
:class:`NotLowerable` when it cannot be priced array-at-a-time (payload
data, unknown extensions).

Message identity is a named :class:`MessageKey` ``(src, dst, tag)``.  It
subclasses ``tuple``, so it compares and hashes equal to the positional
``(src, dst, tag)`` triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, ClassVar, NamedTuple


class MessageKey(NamedTuple):
    """Named identity of one point-to-point message stream.

    The mailbox key of both engines; being a ``NamedTuple`` it compares
    and hashes equal to the positional ``(src, dst, tag)`` triple.
    """

    src: int
    dst: int
    tag: int


class NotLowerable(Exception):
    """Raised by :meth:`Op.lower` when an op cannot be batch-compiled."""


class Op:
    """Base class of every engine request.

    Subclasses set ``kind`` (the registry name) and ``collective`` (whether
    the op uses rendezvous semantics), and implement :meth:`lower` to append
    themselves to a :class:`~repro.simmpi.compile.ProgramWriter` — or raise
    :class:`NotLowerable` for data the columnar form cannot carry.
    """

    kind: ClassVar[str] = "op"
    collective: ClassVar[bool] = False

    def lower(self, writer) -> None:
        """Append this op to ``writer`` (batch compilation)."""
        raise NotLowerable(f"{type(self).__name__} cannot be lowered")


_REGISTRY: dict[str, type[Op]] = {}


def _register(cls: type[Op]) -> type[Op]:
    if cls.kind in _REGISTRY:  # pragma: no cover - definition-time guard
        raise ValueError(f"duplicate op kind {cls.kind!r}")
    _REGISTRY[cls.kind] = cls
    return cls


@_register
@dataclass(frozen=True)
class Compute(Op):
    """Charge ``seconds`` of computation to the current phase."""

    seconds: float
    kind: ClassVar[str] = "compute"

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError(f"compute time must be non-negative, got {self.seconds}")

    def lower(self, writer) -> None:
        writer.compute(self.seconds)


@_register
@dataclass(frozen=True)
class SetPhase(Op):
    """Attribute subsequent compute/comm time to iteration phase ``phase``."""

    phase: int
    kind: ClassVar[str] = "set_phase"

    def lower(self, writer) -> None:
        writer.set_phase(self.phase)


@_register
@dataclass(frozen=True)
class MarkIteration(Op):
    """Record the rank's clock at the start of iteration ``index``."""

    index: int
    kind: ClassVar[str] = "mark_iteration"

    def lower(self, writer) -> None:
        writer.mark(self.index)


@_register
@dataclass(frozen=True)
class Isend(Op):
    """Post an asynchronous send of ``nbytes`` to ``dst`` with ``tag``.

    ``payload`` is optional application data (functional mode); timing-only
    runs send ``None`` payloads and pay for ``nbytes`` on the wire.
    """

    dst: int
    tag: int
    nbytes: float
    payload: Any = None
    kind: ClassVar[str] = "isend"

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {self.nbytes}")

    def message_key(self, src: int) -> MessageKey:
        """The :class:`MessageKey` this send posted from rank ``src``."""
        return MessageKey(src, self.dst, self.tag)

    def lower(self, writer) -> None:
        if self.payload is not None:
            # Columnar tables carry sizes, not data: functional-mode sends
            # force the scalar engine.
            raise NotLowerable("Isend with a payload cannot be lowered")
        writer.isend(self.dst, self.tag, self.nbytes)


@_register
@dataclass(frozen=True)
class Recv(Op):
    """Blocking receive from ``src`` with ``tag``; yields ``(nbytes, payload)``."""

    src: int
    tag: int
    kind: ClassVar[str] = "recv"

    def message_key(self, dst: int) -> MessageKey:
        """The :class:`MessageKey` this receive waits on at rank ``dst``."""
        return MessageKey(self.src, dst, self.tag)

    def lower(self, writer) -> None:
        writer.recv(self.src, self.tag)


@_register
@dataclass(frozen=True)
class WaitSends(Op):
    """Block until all of this rank's posted sends have left the NIC."""

    kind: ClassVar[str] = "wait_sends"

    def lower(self, writer) -> None:
        writer.wait_sends()


@_register
@dataclass(frozen=True)
class Allreduce(Op):
    """Combine ``value`` across all ranks with ``op`` (``"sum"|"min"|"max"``).

    ``nbytes`` is the wire payload per tree message (Table 4: 4 or 8 bytes).
    """

    value: Any
    op: str = "sum"
    nbytes: float = 8.0
    kind: ClassVar[str] = "allreduce"
    collective: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if self.op not in ("sum", "min", "max"):
            raise ValueError(f"unsupported reduction op {self.op!r}")

    def lower(self, writer) -> None:
        writer.allreduce(self.nbytes)


@_register
@dataclass(frozen=True)
class Bcast(Op):
    """Broadcast ``value`` from ``root``; every rank receives root's value."""

    value: Any
    root: int = 0
    nbytes: float = 8.0
    kind: ClassVar[str] = "bcast"
    collective: ClassVar[bool] = True

    def lower(self, writer) -> None:
        writer.bcast(self.root, self.nbytes)


@_register
@dataclass(frozen=True)
class Gather(Op):
    """Gather per-rank values to ``root``; root receives the full list."""

    value: Any
    root: int = 0
    nbytes: float = 32.0
    kind: ClassVar[str] = "gather"
    collective: ClassVar[bool] = True

    def lower(self, writer) -> None:
        writer.gather(self.root, self.nbytes)


@_register
@dataclass(frozen=True)
class Barrier(Op):
    """Synchronise all ranks (modelled as a zero-payload allreduce)."""

    kind: ClassVar[str] = "barrier"
    collective: ClassVar[bool] = True

    def lower(self, writer) -> None:
        writer.barrier()


#: Frozen kind → op-class registry: the closed request vocabulary.  The
#: engine builds its dispatch table from this mapping; extending the
#: vocabulary means registering here, not editing a type ladder.
OP_REGISTRY = MappingProxyType(dict(_REGISTRY))

#: Collective op classes, in registry order (rendezvous semantics).
COLLECTIVE_OPS = tuple(cls for cls in OP_REGISTRY.values() if cls.collective)


__all__ = [
    "Op",
    "NotLowerable",
    "MessageKey",
    "OP_REGISTRY",
    "COLLECTIVE_OPS",
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
