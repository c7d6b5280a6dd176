"""Columnar event tables: what the engine executes.

The engine prices a whole run array-at-a-time instead of one request
object per Python-level event.  The bridge is this module: a
:class:`ProgramWriter` accumulates one rank's op stream into flat columns
(opcode, float argument, two integer arguments) and a
:class:`CompiledProgram` freezes them as NumPy arrays.

There are two producers.  Krak runs emit their columns directly
(:meth:`repro.hydro.phases.KrakProgram.lower_into`), and
:func:`lower_ops` compiles an op sequence or generator through each op's
:meth:`~repro.simmpi.api.Op.lower` hook, for tests, tools and
:meth:`repro.simmpi.engine.Engine.run` — see ``docs/engine.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.simmpi import api

# Opcodes of the columnar event table (column ``opcode``).
OP_COMPUTE = 0
OP_SETPHASE = 1
OP_MARK = 2
OP_ISEND = 3
OP_RECV = 4
OP_WAITSENDS = 5
OP_COLL = 6

# Collective sub-kinds (column ``b`` of an ``OP_COLL`` row).
COLL_ALLREDUCE = 0
COLL_BCAST = 1
COLL_GATHER = 2
COLL_BARRIER = 3


class ProgramWriter:
    """Append-only builder of one rank's columnar op stream.

    Each method appends one row: ``opcode`` selects the handler, ``farg``
    carries the float argument (seconds or bytes), ``a``/``b`` carry the
    integer arguments (peer rank / phase / index / root, tag / collective
    sub-kind).  :meth:`finish` freezes the columns into a
    :class:`CompiledProgram`.
    """

    __slots__ = ("opcode", "farg", "a", "b")

    def __init__(self) -> None:
        self.opcode: list[int] = []
        self.farg: list[float] = []
        self.a: list[int] = []
        self.b: list[int] = []

    def _row(self, opcode: int, farg: float, a: int, b: int) -> None:
        self.opcode.append(opcode)
        self.farg.append(farg)
        self.a.append(a)
        self.b.append(b)

    def compute(self, seconds: float) -> None:
        """Charge ``seconds`` of computation."""
        self._row(OP_COMPUTE, seconds, 0, 0)

    def set_phase(self, phase: int) -> None:
        """Attribute subsequent time to ``phase``."""
        self._row(OP_SETPHASE, 0.0, phase, 0)

    def mark(self, index: int) -> None:
        """Record the clock at the start of iteration ``index``."""
        self._row(OP_MARK, 0.0, index, 0)

    def isend(self, dst: int, tag: int, nbytes: float) -> None:
        """Post an asynchronous ``nbytes`` send to ``dst``."""
        self._row(OP_ISEND, nbytes, dst, tag)

    def recv(self, src: int, tag: int) -> None:
        """Block for the matching message from ``src``."""
        self._row(OP_RECV, 0.0, src, tag)

    def wait_sends(self) -> None:
        """Drain this rank's NIC."""
        self._row(OP_WAITSENDS, 0.0, 0, 0)

    def exchange(self, sends, recvs) -> None:
        """Post ``sends``, drain the NIC, then block on ``recvs``.

        ``sends`` holds ``(dst, tag, nbytes)`` and ``recvs`` ``(src, tag)``;
        the rows are those of the matching :meth:`isend`,
        :meth:`wait_sends` and :meth:`recv` calls, appended in one go.
        """
        n, m = len(sends), len(recvs)
        self.opcode += [OP_ISEND] * n + [OP_WAITSENDS] + [OP_RECV] * m
        self.farg += [nbytes for _, _, nbytes in sends] + [0.0] * (m + 1)
        self.a += [dst for dst, _, _ in sends] + [0] + [src for src, _ in recvs]
        self.b += [tag for _, tag, _ in sends] + [0] + [tag for _, tag in recvs]

    def extend(self, opcode: list, farg: list, a: list, b: list) -> None:
        """Append rows given column by column, one extend per column."""
        self.opcode += opcode
        self.farg += farg
        self.a += a
        self.b += b

    def allreduce(self, nbytes: float) -> None:
        """Enter an allreduce of ``nbytes`` per tree message."""
        self._row(OP_COLL, nbytes, 0, COLL_ALLREDUCE)

    def bcast(self, root: int, nbytes: float) -> None:
        """Enter a broadcast from ``root``."""
        self._row(OP_COLL, nbytes, root, COLL_BCAST)

    def gather(self, root: int, nbytes: float) -> None:
        """Enter a gather to ``root``."""
        self._row(OP_COLL, nbytes, root, COLL_GATHER)

    def barrier(self) -> None:
        """Enter a barrier (zero-payload allreduce)."""
        self._row(OP_COLL, 0.0, 0, COLL_BARRIER)

    def finish(self) -> "CompiledProgram":
        """Freeze the accumulated rows."""
        return CompiledProgram(
            opcode=np.asarray(self.opcode, dtype=np.int64),
            farg=np.asarray(self.farg, dtype=np.float64),
            a=np.asarray(self.a, dtype=np.int64),
            b=np.asarray(self.b, dtype=np.int64),
        )


@dataclass(frozen=True)
class CompiledProgram:
    """One rank's op stream as flat columns (see :class:`ProgramWriter`)."""

    opcode: np.ndarray
    farg: np.ndarray
    a: np.ndarray
    b: np.ndarray

    @property
    def num_ops(self) -> int:
        """Total rows in this rank's stream."""
        return int(self.opcode.shape[0])


def lower_ops(ops: Iterable[api.Op]) -> CompiledProgram:
    """Compile an op sequence; raises :class:`api.NotLowerable` on a non-op."""
    writer = ProgramWriter()
    for op in ops:
        lower = getattr(op, "lower", None)
        if lower is None:
            raise api.NotLowerable(f"unknown request {op!r}")
        lower(writer)
    return writer.finish()


__all__ = [
    "OP_COMPUTE",
    "OP_SETPHASE",
    "OP_MARK",
    "OP_ISEND",
    "OP_RECV",
    "OP_WAITSENDS",
    "OP_COLL",
    "COLL_ALLREDUCE",
    "COLL_BCAST",
    "COLL_GATHER",
    "COLL_BARRIER",
    "ProgramWriter",
    "CompiledProgram",
    "lower_ops",
]
