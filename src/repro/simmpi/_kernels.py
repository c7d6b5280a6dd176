"""Batch-engine execution kernels (optionally numba-JIT-compiled).

The per-rank executor's inner loop — advancing one rank through its
compiled op stream until it blocks — lives here as a single source
function, :func:`advance_rank`, written against the common indexing subset
of Python lists and NumPy arrays.  It is the engine's general executor and
the reference for the superstep executor in :mod:`repro.simmpi.engine`,
which replays a regular table's rows with this function's IEEE operations
in each rank's program order, every rank at once.  The engine calls it in
one of two configurations:

* **Pure Python** (always available): plain lists, where element access is
  an order of magnitude cheaper than NumPy scalar indexing.
* **JIT** (``pip install repro[jit]``): the same function compiled by numba
  over NumPy arrays, exported as :data:`advance_rank_jit`.

numba is strictly optional: the import is guarded, and without it (or with
``REPRO_JIT=0`` in the environment) ``advance_rank_jit`` *is* the pure
Python function.  Both configurations perform the identical sequence of
IEEE double operations, so simulated clocks and traces are bitwise
identical either way — the CI matrix runs the suite in both lanes and a
test asserts :data:`JIT_ENABLED` matches the lane's expectation
(``REPRO_EXPECT_JIT``).
"""

from __future__ import annotations

import os

try:  # pragma: no cover - exercised via the CI jit lane
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the default lane
    numba = None
    HAVE_NUMBA = False

#: Whether the array kernel is actually numba-compiled in this process.
JIT_ENABLED = HAVE_NUMBA and os.environ.get("REPRO_JIT", "1") != "0"

# advance_rank status codes.
ST_FINISHED = 0
ST_BLOCKED = 1
ST_COLLECTIVE = 2

# Opcodes, duplicated from repro.simmpi.compile as plain literals so the
# kernel has no imports numba would need to resolve; guarded by a test
# against the canonical values.
_OP_COMPUTE = 0
_OP_SETPHASE = 1
_OP_MARK = 2
_OP_ISEND = 3
_OP_RECV = 4
_OP_WAITSENDS = 5
_OP_COLL = 6


def advance_rank(
    r,
    pcs,
    clocks,
    nics,
    off,
    opcode,
    farg,
    phase,
    startup,
    bw,
    soh,
    roh,
    match,
    mark_slot,
    arrival,
    done,
    comp_rows,
    comm_rows,
    mark_clock,
    mark_comp,
    mark_comm,
    num_phases,
):
    """Advance rank ``r`` through its op stream until it blocks or finishes.

    Mutates the per-rank cursors (``pcs``/``clocks``/``nics``), the send
    bookkeeping (``arrival``/``done``), the per-(rank, phase) accumulation
    rows, and the mark snapshot tables.  Returns ``(status, blocker)``:
    ``ST_FINISHED``; ``ST_BLOCKED`` with the global index of the unposted
    matching send (or -1 for a statically unmatchable receive); or
    ``ST_COLLECTIVE`` with the op position, the cursor left *at* the
    collective for the orchestrator to rendezvous.

    Every float operation follows the timing rules in program order —
    element-wise adds into the row buckets in execution order, one
    ``nic``/arrival formula — so charged times are bitwise identical to
    the reference oracle's (:class:`repro.verify.oracle.OracleEngine`).
    """
    pc = pcs[r]
    end = off[r + 1]
    clock = clocks[r]
    nic = nics[r]
    comp_row = comp_rows[r]
    comm_row = comm_rows[r]
    status = ST_FINISHED
    blocker = -1
    while pc < end:
        op = opcode[pc]
        if op == _OP_COMPUTE:
            s = farg[pc]
            clock += s
            comp_row[phase[pc]] += s
        elif op == _OP_ISEND:
            oh = soh[pc]
            clock += oh
            comm_row[phase[pc]] += oh
            nic_start = nic if nic > clock else clock
            arrival[pc] = nic_start + startup[pc] + bw[pc]
            nic = nic_start + bw[pc]
            done[pc] = 1
        elif op == _OP_RECV:
            m = match[pc]
            if m < 0 or done[m] == 0:
                status = ST_BLOCKED
                blocker = m
                break
            wait = arrival[m] - clock
            if wait < 0.0:
                wait = 0.0
            wait += roh[pc]
            clock += wait
            comm_row[phase[pc]] += wait
        elif op == _OP_WAITSENDS:
            if nic > clock:
                comm_row[phase[pc]] += nic - clock
                clock = nic
        elif op == _OP_SETPHASE:
            pass  # the phase column is resolved at compile time
        elif op == _OP_MARK:
            slot = mark_slot[pc]
            mark_clock[slot] = clock
            mc = mark_comp[slot]
            mm = mark_comm[slot]
            for p in range(num_phases):
                mc[p] = comp_row[p]
                mm[p] = comm_row[p]
        else:  # _OP_COLL: rendezvous is the orchestrator's job
            status = ST_COLLECTIVE
            blocker = pc
            break
        pc += 1
    pcs[r] = pc
    clocks[r] = clock
    nics[r] = nic
    return status, blocker


if JIT_ENABLED:  # pragma: no cover - exercised via the CI jit lane
    advance_rank_jit = numba.njit(cache=False)(advance_rank)
else:
    advance_rank_jit = advance_rank


__all__ = [
    "HAVE_NUMBA",
    "JIT_ENABLED",
    "ST_FINISHED",
    "ST_BLOCKED",
    "ST_COLLECTIVE",
    "advance_rank",
    "advance_rank_jit",
]
