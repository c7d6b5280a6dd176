"""The per-rank executor's kernel.

The per-rank executor's inner loop — advancing one rank through its
compiled op stream until it blocks — lives here as a single function,
:func:`advance_rank`, over plain Python lists, where element access is an
order of magnitude cheaper than NumPy scalar indexing.  It is the engine's
general executor and the reference for the superstep executor in
:mod:`repro.simmpi.engine`, which replays a regular table's rows with this
function's IEEE operations in each rank's program order, every rank at once.
"""

from __future__ import annotations

from repro.simmpi.compile import (
    OP_COMPUTE, OP_ISEND, OP_MARK, OP_RECV, OP_SETPHASE, OP_WAITSENDS,
)

#: Always ``False``: read only by ``perfbench/run.py:fingerprint``.
JIT_ENABLED = False

# advance_rank status codes.
ST_FINISHED = 0
ST_BLOCKED = 1
ST_COLLECTIVE = 2


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
        if op == OP_COMPUTE:
            s = farg[pc]
            clock += s
            comp_row[phase[pc]] += s
        elif op == OP_ISEND:
            oh = soh[pc]
            clock += oh
            comm_row[phase[pc]] += oh
            nic_start = nic if nic > clock else clock
            arrival[pc] = nic_start + startup[pc] + bw[pc]
            nic = nic_start + bw[pc]
            done[pc] = 1
        elif op == OP_RECV:
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
        elif op == OP_WAITSENDS:
            if nic > clock:
                comm_row[phase[pc]] += nic - clock
                clock = nic
        elif op == OP_SETPHASE:
            pass  # the phase column is resolved at compile time
        elif op == OP_MARK:
            slot = mark_slot[pc]
            mark_clock[slot] = clock
            mc = mark_comp[slot]
            mm = mark_comm[slot]
            for p in range(num_phases):
                mc[p] = comp_row[p]
                mm[p] = comm_row[p]
        else:  # OP_COLL: rendezvous is the orchestrator's job
            status = ST_COLLECTIVE
            blocker = pc
            break
        pc += 1
    pcs[r] = pc
    clocks[r] = clock
    nics[r] = nic
    return status, blocker


__all__ = [
    "JIT_ENABLED",
    "ST_FINISHED",
    "ST_BLOCKED",
    "ST_COLLECTIVE",
    "advance_rank",
]
