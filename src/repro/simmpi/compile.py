"""Columnar event tables: what the engine executes.

The engine prices a whole run array-at-a-time instead of one request
object per Python-level event.  The bridge is this module: a
:class:`ProgramWriter` accumulates a job's op streams into one table of
flat columns (opcode, float argument, two integer arguments), rank after
rank, and a :class:`CompiledProgram` freezes it as NumPy arrays with each
rank's row offsets.

There are two producers, each filling one writer for the whole job.  Krak
runs load every rank's columns in one pass
(:meth:`repro.hydro.phases.KrakProgram.lower_into`), and
:func:`lower_programs` compiles one op sequence or generator per rank
through each op's :meth:`~repro.simmpi.api.Op.lower` hook, for tests,
tools and :meth:`repro.simmpi.engine.Engine.run` — see ``docs/engine.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

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
    """Append-only builder of a job's columnar op table, rank-major.

    :meth:`row` appends one row to the rank being written and
    :meth:`end_rank` closes that rank, so rank ``r``'s rows follow rank
    ``r - 1``'s.  ``opcode`` selects the handler, ``farg`` carries the
    float argument (seconds or bytes), ``a``/``b`` carry the integer
    arguments (peer rank / phase / index / root, tag / collective
    sub-kind); each op's :meth:`~repro.simmpi.api.Op.lower` writes its
    own row.  :meth:`load` instead fills an empty writer with every
    rank's columns at once.  :meth:`finish` freezes the table into a
    :class:`CompiledProgram`.
    """

    __slots__ = ("opcode", "farg", "a", "b", "offsets")

    def __init__(self) -> None:
        self.opcode: list[int] = []
        self.farg: list[float] = []
        self.a: list[int] = []
        self.b: list[int] = []
        #: 0, then the row count at the end of each closed rank.
        self.offsets: list[int] = [0]

    def row(self, opcode: int, farg: float, a: int, b: int) -> None:
        """Append one row to the rank being written."""
        self.opcode.append(opcode)
        self.farg.append(farg)
        self.a.append(a)
        self.b.append(b)

    def end_rank(self) -> None:
        """Close the rank being written; later rows belong to the next."""
        self.offsets.append(len(self.opcode))

    def load(self, opcode, farg, a, b, offsets) -> None:
        """Fill this empty writer with every rank's rows at once.

        The columns are arrays of the whole table, rank-major, and
        ``offsets`` holds each rank's first row followed by the total.
        """
        if len(self.opcode) or len(self.offsets) > 1:
            raise ValueError("load needs an empty writer")
        self.opcode, self.farg, self.a, self.b = opcode, farg, a, b
        self.offsets = offsets

    def finish(self) -> "CompiledProgram":
        """Freeze the table; every rank must be closed."""
        offsets = np.asarray(self.offsets, dtype=np.int64)
        if int(offsets[-1]) != len(self.opcode):
            raise ValueError("the last rank is still open (call end_rank)")
        return CompiledProgram(
            opcode=np.asarray(self.opcode, dtype=np.int64),
            farg=np.asarray(self.farg, dtype=np.float64),
            a=np.asarray(self.a, dtype=np.int64),
            b=np.asarray(self.b, dtype=np.int64),
            offsets=offsets,
        )


@dataclass(frozen=True)
class CompiledProgram:
    """A job's op streams as one table (see :class:`ProgramWriter`).

    Rank ``r``'s rows are ``offsets[r]:offsets[r + 1]`` of every column.
    """

    opcode: np.ndarray
    farg: np.ndarray
    a: np.ndarray
    b: np.ndarray
    offsets: np.ndarray

    @property
    def num_ranks(self) -> int:
        """Ranks in the table."""
        return int(self.offsets.shape[0]) - 1

    @property
    def num_ops(self) -> int:
        """Total rows over all ranks."""
        return int(self.opcode.shape[0])

    def rank_columns(self, rank: int) -> tuple:
        """Rank ``rank``'s ``(opcode, farg, a, b)`` rows (views)."""
        lo, hi = int(self.offsets[rank]), int(self.offsets[rank + 1])
        return (
            self.opcode[lo:hi], self.farg[lo:hi], self.a[lo:hi], self.b[lo:hi]
        )


def lower_programs(programs: Iterable[Iterable]) -> CompiledProgram:
    """Compile one op sequence per rank, in rank order, into one table.

    Raises :class:`~repro.simmpi.api.NotLowerable` on anything that is not
    an op.
    """
    from repro.simmpi.api import NotLowerable

    writer = ProgramWriter()
    for ops in programs:
        for op in ops:
            lower = getattr(op, "lower", None)
            if lower is None:
                raise NotLowerable(f"unknown request {op!r}")
            lower(writer)
        writer.end_rank()
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
    "lower_programs",
]
