"""The batch-compiled engine core: lowering, bitwise agreement, errors.

The contract under test (docs/engine.md): every program prices bitwise
identically on the engine and the reference oracle — clocks, traces and
marks — and Krak's direct emission writes exactly the op stream its
generator yields.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hydro import DynamicSpec, build_workload_census, run_krak
from repro.hydro.dynamic import DynamicController
from repro.core.assemble import apply_placement
from repro.hydro.phases import KrakProgram
from repro.machine.cluster import es45_like_cluster
from repro.machine.costdb import NUM_PHASES
from repro.mesh.deck import build_deck
from repro.mesh.connectivity import build_face_table
from repro.partition import make_partition
from repro.perturb import FAILURE_PHASE, Perturbation, PerturbSpec
from repro.simmpi import (
    Allreduce,
    Barrier,
    Bcast,
    Compute,
    DeadlockError,
    Engine,
    Gather,
    Isend,
    MarkIteration,
    MessageKey,
    NotLowerable,
    Recv,
    SetPhase,
    WaitSends,
)
from repro.simmpi import _kernels
from repro.simmpi import compile as simc
from repro.simmpi import engine as engine_module
from repro.simmpi.compile import ProgramWriter, lower_programs
from repro.verify.oracle import OracleEngine, oracle_run_krak


def flat_cluster():
    return es45_like_cluster()


def smp_cluster():
    return es45_like_cluster().with_smp(
        ranks_per_node=2,
        intra_latency=3e-6,
        intra_bandwidth=1.2e9,
        intra_send_overhead=0.5e-6,
        intra_recv_overhead=0.7e-6,
    )


def mixed_program(ranks, iters=3):
    """Sends, recvs, NIC waits, all four collectives, phases, marks."""

    def make(rank):
        right = (rank + 1) % ranks
        left = (rank - 1) % ranks
        for it in range(iters):
            yield MarkIteration(it)
            yield SetPhase(0)
            yield Compute(1e-6 * (rank + 1))
            yield Isend(right, tag=it, nbytes=256.0 * (rank + 1))
            yield Isend(right, tag=100 + it, nbytes=64.0)
            yield WaitSends()
            yield Recv(left, tag=it)
            yield Recv(left, tag=100 + it)
            yield SetPhase(1)
            yield Allreduce(nbytes=8)
            yield Bcast(root=0, nbytes=4)
            yield Gather(root=0, nbytes=32)
            yield Barrier()
        yield MarkIteration(iters)

    return make


def hand_compile(make, ranks):
    """Lower every rank's program into one columnar op table."""
    return lower_programs(make(r) for r in range(ranks))


def run_against_oracle(cluster, ranks, make, num_phases=2):
    """The batch core on hand-compiled programs, and the oracle on the same."""
    batch = Engine(cluster, ranks, num_phases).run_compiled(hand_compile(make, ranks))
    oracle = OracleEngine(cluster, ranks, num_phases).run(make)
    return batch, oracle


def assert_matches_oracle(result, oracle):
    """Exact equality of a SimResult with an OracleResult."""
    assert np.array_equal(result.final_clocks, oracle.final_clocks)
    assert np.array_equal(result.trace.compute, oracle.compute)
    assert np.array_equal(result.trace.comm, oracle.comm)
    assert set(result.trace.iteration_starts) == set(oracle.iteration_starts)
    for i, row in oracle.iteration_starts.items():
        assert np.array_equal(result.trace.iteration_starts[i], row, equal_nan=True)


class TestBitwiseAgreement:
    def test_flat_cluster(self):
        batch, oracle = run_against_oracle(flat_cluster(), 4, mixed_program(4))
        assert_matches_oracle(batch, oracle)

    def test_smp_cluster_with_intra_overheads(self):
        batch, oracle = run_against_oracle(smp_cluster(), 6, mixed_program(6))
        assert_matches_oracle(batch, oracle)

    def test_phase_attribution_stays_within_each_rank(self):
        # Rank 1's last SetPhase must not leak into rank 2, which never sets
        # a phase, and rank 1's first compute precedes its own SetPhase.
        def make(rank):
            if rank == 0:
                yield SetPhase(2)
            yield Compute(1e-6 * (rank + 1))
            yield Barrier()
            if rank == 1:
                yield SetPhase(1)
            yield Compute(2e-6)

        batch, oracle = run_against_oracle(flat_cluster(), 3, make, num_phases=3)
        assert_matches_oracle(batch, oracle)
        assert batch.trace.compute[2, 0] == 1e-6 * 3 + 2e-6

    def test_window_summaries_agree(self):
        # The last mark is the program's last op, so the full window is the
        # oracle's per-bucket totals, and iteration times come from marks
        # the oracle records identically.
        batch, oracle = run_against_oracle(flat_cluster(), 4, mixed_program(4, iters=4))
        assert np.array_equal(batch.trace.window_compute(0, 4), oracle.compute)
        assert np.array_equal(batch.trace.window_comm(0, 4), oracle.comm)
        starts = oracle.iteration_starts
        assert batch.trace.mean_iteration_time(1, 4) == (
            float(starts[4].max() - starts[1].max()) / 3
        )

    @pytest.mark.parametrize(
        "tags",
        [(-7, -1, 0, 5, 2**40), (-(2**62), 3, 2**62)],
        ids=["offset", "too-wide-for-offset"],
    )
    def test_negative_and_widely_spaced_tags(self, tags):
        # Receive matching keys tags by their offset from the smallest, and
        # falls back to compressing them when the span would overflow the
        # int64 key.  Either way the match equals that of small tags in
        # the same order, and the prices equal the oracle's.
        def program(tag_values):
            def make(rank):
                ranks = 4
                right, left = (rank + 1) % ranks, (rank - 1) % ranks
                yield Compute(1e-6 * (rank + 1))
                for tag in tag_values:
                    yield Isend(right, tag=tag, nbytes=100.0 * (rank + 1))
                    yield Isend(right, tag=tag, nbytes=7.0)
                yield WaitSends()
                for tag in reversed(tag_values):
                    yield Recv(left, tag=tag)
                    yield Recv(left, tag=tag)
                yield Barrier()

            return make

        make = program(tags)
        batch, oracle = run_against_oracle(flat_cluster(), 4, make)
        assert_matches_oracle(batch, oracle)
        engine = Engine(flat_cluster(), 4, 2)
        small = program(tuple(range(len(tags))))
        job = engine.structure(hand_compile(make, 4))
        assert np.array_equal(
            job.match, engine.structure(hand_compile(small, 4)).match
        )
        # Every receive meets a send on its own (src, dst, tag) key.
        rank_of = np.repeat(np.arange(4), np.diff(job.off))
        recv, send = job.recv_idx, job.match[job.recv_idx]
        assert (send >= 0).all() and recv.size == 4 * 2 * len(tags)
        assert np.array_equal(rank_of[send], job.acol[recv])
        assert np.array_equal(job.acol[send], rank_of[recv])
        assert np.array_equal(job.bcol[send], job.bcol[recv])

    def test_forced_batch_engine_on_compiled_program(self):
        # Engine.run lowers generators itself and runs the same core.
        make = mixed_program(4)
        result = Engine(flat_cluster(), 4, 2).run(make)
        oracle = OracleEngine(flat_cluster(), 4, 2).run(make)
        assert_matches_oracle(result, oracle)


class TestCompile:
    def test_lower_ops_columns(self):
        compiled = lower_programs(
            [
                [Compute(1e-6)],
                [
                    SetPhase(1),
                    Compute(2.5e-6),
                    Isend(3, tag=9, nbytes=128.0),
                    Recv(2, tag=4),
                    WaitSends(),
                    MarkIteration(5),
                    Allreduce(nbytes=8),
                    Bcast(root=1, nbytes=4),
                    Gather(root=2, nbytes=32),
                    Barrier(),
                ],
                [],
            ]
        )
        assert compiled.num_ranks == 3
        assert compiled.num_ops == 11
        assert compiled.offsets.tolist() == [0, 1, 11, 11]

        def rows(rank):
            return list(zip(*(col.tolist() for col in compiled.rank_columns(rank))))

        # Every column of every row: (opcode, farg, a, b).
        assert rows(0) == [(simc.OP_COMPUTE, 1e-6, 0, 0)]
        assert rows(1) == [
            (simc.OP_SETPHASE, 0.0, 1, 0),
            (simc.OP_COMPUTE, 2.5e-6, 0, 0),
            (simc.OP_ISEND, 128.0, 3, 9),
            (simc.OP_RECV, 0.0, 2, 4),
            (simc.OP_WAITSENDS, 0.0, 0, 0),
            (simc.OP_MARK, 0.0, 5, 0),
            (simc.OP_COLL, 8.0, 0, simc.COLL_ALLREDUCE),
            (simc.OP_COLL, 4.0, 1, simc.COLL_BCAST),
            (simc.OP_COLL, 32.0, 2, simc.COLL_GATHER),
            (simc.OP_COLL, 0.0, 0, simc.COLL_BARRIER),
        ]
        assert compiled.rank_columns(2)[0].size == 0

    def test_writer_refuses_an_open_rank_and_a_second_load(self):
        writer = ProgramWriter()
        writer.row(simc.OP_COMPUTE, 1.0, 0, 0)
        with pytest.raises(ValueError, match="still open"):
            writer.finish()
        with pytest.raises(ValueError, match="empty writer"):
            writer.load(*([np.zeros(0)] * 4), np.zeros(1, dtype=np.int64))


class TestOpProtocol:
    def test_message_key_is_tuple_compatible(self):
        key = MessageKey(0, 1, 7)
        assert key == (0, 1, 7)
        assert hash(key) == hash((0, 1, 7))
        assert key.src == 0 and key.dst == 1 and key.tag == 7

    def test_collectives_refuse_positional_arguments(self):
        """A leftover ``(value, op, nbytes)`` call must not price ``1.0`` as
        its byte count: collectives take keywords only."""
        with pytest.raises(TypeError):
            Allreduce(1.0, "sum", 8)
        with pytest.raises(TypeError):
            Bcast(0, 4)
        with pytest.raises(TypeError):
            Gather(0, 32)

    def test_unknown_request_rejected_by_both_paths(self):
        class Bogus:
            pass

        def make(rank):
            yield Bogus()

        # It has no lower() hook: Engine.run and hand lowering both refuse.
        with pytest.raises(NotLowerable, match="unknown request"):
            Engine(flat_cluster(), 1, 1).run(make)
        with pytest.raises(NotLowerable, match="unknown request"):
            hand_compile(make, 1)


class TestValidationParity:
    """Engine.run and run_compiled raise the same validation messages."""

    @pytest.mark.parametrize(
        "op, message",
        [
            (Isend(7, tag=0, nbytes=8.0), "Isend to invalid rank 7"),
            (Isend(0, tag=0, nbytes=8.0), "self-sends are not supported"),
            (SetPhase(9), "phase 9 out of range"),
            (Bcast(root=5, nbytes=8.0), "Bcast root 5 out of range"),
            (Bcast(root=-1, nbytes=8.0), "Bcast root -1 out of range"),
            (Gather(root=5, nbytes=8.0), "Gather root 5 out of range"),
        ],
    )
    def test_error_messages(self, op, message):
        def make(rank):
            yield op

        with pytest.raises(ValueError) as run_err:
            Engine(flat_cluster(), 2, 2).run(make)
        with pytest.raises(ValueError) as compiled_err:
            Engine(flat_cluster(), 2, 2).run_compiled(hand_compile(make, 2))
        assert str(run_err.value) == message
        assert str(compiled_err.value) == message

    def test_collective_mismatch_message(self):
        mismatch = "collective mismatch at sequence 0"
        compiled = lower_programs([[Allreduce(nbytes=8)], [Barrier()]])
        with pytest.raises(RuntimeError, match=mismatch):
            Engine(flat_cluster(), 2, 1).run_compiled(compiled)

        # Ranks naming different roots for one collective: rank r roots its
        # Bcast at itself, so each would price a different payload.
        def split_bcast(rank):
            yield Bcast(root=rank, nbytes=8.0 * (1 + 1000 * rank))

        with pytest.raises(RuntimeError, match=mismatch):
            Engine(flat_cluster(), 2, 1).run(split_bcast)
        with pytest.raises(RuntimeError, match=mismatch):
            OracleEngine(flat_cluster(), 2, 1).run(split_bcast)

        # On 8 ranks a table that is regular but for its Gather roots is not
        # planned, so the per-rank executor reports it.
        def ring(root_of):
            def make(rank):
                for tag in range(2):
                    yield Isend((rank + 1) % 8, tag=tag, nbytes=64.0)
                for tag in range(2):
                    yield Recv((rank - 1) % 8, tag=tag)
                yield Gather(root=root_of(rank), nbytes=8.0)

            return make

        engine = Engine(flat_cluster(), 8, 1)
        agreed = lower_programs(ring(lambda rank: 0)(r) for r in range(8))
        assert engine.structure(agreed).plan is not None
        split = lower_programs(ring(lambda rank: rank % 2)(r) for r in range(8))
        assert engine.structure(split).plan is None
        with pytest.raises(RuntimeError, match=mismatch):
            engine.run_compiled(split)
        with pytest.raises(RuntimeError, match=mismatch):
            OracleEngine(flat_cluster(), 8, 1).run(ring(lambda rank: rank % 2))


class TestDeadlockReport:
    def make_deadlocked(self):
        # Rank 0 posts tag 5 but rank 1 waits on tag 6: a tag mismatch,
        # the classic bug the enriched report exists to expose.
        def make(rank):
            if rank == 0:
                yield Isend(1, tag=5, nbytes=64.0)
                yield Recv(1, tag=0)
            else:
                yield Recv(0, tag=6)

        return make

    def test_report_contents(self):
        with pytest.raises(DeadlockError) as err:
            Engine(flat_cluster(), 2, 1).run(self.make_deadlocked())
        text = str(err.value)
        assert "2 ranks blocked forever" in text
        assert "rank 1: parked on recv MessageKey(src=0, dst=1, tag=6)" in text
        assert "rank 0 pending sends: MessageKey(src=0, dst=1, tag=5) (64 B)" in text
        assert "rank 1 has no pending sends" in text

    def test_collective_wait_reported(self):
        compiled = lower_programs([[Barrier()], [Recv(0, tag=3)]])
        with pytest.raises(DeadlockError) as err:
            Engine(flat_cluster(), 2, 1).run_compiled(compiled)
        text = str(err.value)
        assert "rank 0: waiting in collective sequence 0" in text
        assert "rank 1: parked on recv MessageKey(src=0, dst=1, tag=3)" in text
        assert "rank 0 has no pending sends" in text


def random_regular_program(seed, ranks, supersteps=6):
    """Per-rank op lists of a random regular (bulk-synchronous) program.

    Every superstep block reads: leading SetPhase/Compute/MarkIteration
    rows, a ragged run of Isends (some of zero bytes), an optional
    WaitSends, the receives of messages sent in this or the previous
    superstep (shuffled), then trailing Compute rows; a collective of one
    sub-kind for every rank closes it.  Some supersteps are empty, and the
    last one sends nothing it does not receive.
    """
    rng = np.random.default_rng(seed)
    ops = [[] for _ in range(ranks)]
    inbox = [[] for _ in range(ranks)]  # (src, tag) received next superstep
    for step in range(supersteps + 1):
        empty = rng.random() < 0.2
        later = [[] for _ in range(ranks)]
        now = [list(pending) for pending in inbox]
        for r in range(ranks):
            if empty:
                continue
            block = ops[r]
            block.append(SetPhase(int(rng.integers(0, 3))))
            if step == 0 or rng.random() < 0.2:
                block.append(MarkIteration(step))
            block.append(Compute(float(rng.uniform(0.0, 5e-6))))
            for _ in range(int(rng.integers(0, 5))):
                dst = int((r + rng.integers(1, ranks)) % ranks)
                tag = int(rng.integers(0, 3))
                nbytes = 0.0 if rng.random() < 0.2 else float(rng.integers(1, 40000))
                block.append(Isend(dst, tag=tag, nbytes=nbytes))
                late = step < supersteps and rng.random() < 0.3
                (later if late else now)[dst].append((r, tag))
        for r in range(ranks):
            if empty:
                continue
            block = ops[r]
            if rng.random() < 0.6:
                block.append(WaitSends())
            # Messages on one (src, tag) key must be received in send order
            # for the k-th send to meet the k-th receive; shuffling the
            # keys, not the messages, keeps that.
            keys = sorted(set(now[r]))
            rng.shuffle(keys)
            for key in keys:
                block.extend(Recv(key[0], tag=key[1]) for m in now[r] if m == key)
            if rng.random() < 0.5:
                block.append(Compute(float(rng.uniform(0.0, 5e-6))))
                if rng.random() < 0.3:
                    block.append(SetPhase(int(rng.integers(0, 3))))
                    block.append(Compute(float(rng.uniform(0.0, 1e-6))))
        inbox = later if not empty else [a + b for a, b in zip(now, later)]
        if step == supersteps:
            break
        kind = int(rng.integers(0, 4))
        root = int(rng.integers(0, ranks))
        for r in range(ranks):
            nbytes = float(rng.integers(0, 64))
            ops[r].append(
                [
                    Allreduce(nbytes=nbytes),
                    Bcast(root=root, nbytes=nbytes),
                    Gather(root=root, nbytes=nbytes),
                    Barrier(),
                ][kind]
            )
    for r in range(ranks):
        ops[r].append(MarkIteration(supersteps + 1))
    return ops


def both_executors(cluster, ranks, compiled, num_phases=3):
    """The same table through the per-rank and the superstep executor."""
    engine = Engine(cluster, ranks, num_phases)
    structure = engine._structure(compiled, 0.0)
    assert structure.plan is not None, "expected a regular table"
    job = engine._priced(structure, compiled.farg[structure.compute_idx])
    return engine._run_per_rank(job), engine._run_supersteps(job, structure.plan)


def assert_same_bits(a, b):
    """Two SimResults equal bit for bit, mark snapshots included."""
    assert a.final_clocks.tobytes() == b.final_clocks.tobytes()
    assert a.trace.compute.tobytes() == b.trace.compute.tobytes()
    assert a.trace.comm.tobytes() == b.trace.comm.tobytes()
    assert set(a.trace.iteration_starts) == set(b.trace.iteration_starts)
    for i in a.trace.iteration_starts:
        assert a.trace.iteration_starts[i].tobytes() == b.trace.iteration_starts[i].tobytes()
        assert a.trace._compute_at_mark[i].tobytes() == b.trace._compute_at_mark[i].tobytes()
        assert a.trace._comm_at_mark[i].tobytes() == b.trace._comm_at_mark[i].tobytes()


class TestSuperstepExecutor:
    """Regular tables price bitwise alike on both executors (docs/engine.md)."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_regular_programs_flat(self, seed):
        ranks = 3 + seed % 7
        ops = random_regular_program(seed, ranks)
        per_rank, superstep = both_executors(
            flat_cluster(), ranks, lower_programs(ops)
        )
        assert_same_bits(per_rank, superstep)
        oracle = OracleEngine(flat_cluster(), ranks, 3).run(lambda r: iter(ops[r]))
        assert_matches_oracle(superstep, oracle)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_regular_programs_smp(self, seed):
        ranks = 6
        ops = random_regular_program(100 + seed, ranks)
        per_rank, superstep = both_executors(smp_cluster(), ranks, lower_programs(ops))
        assert_same_bits(per_rank, superstep)

    def test_generator_covers_the_shapes(self):
        # The random programs exercise what the executor special-cases:
        # ragged runs, empty supersteps, a mark before the sends, compute
        # after the receives, zero-byte sends and receives of messages
        # sent a superstep earlier.
        tables = [lower_programs(random_regular_program(s, 5)) for s in range(12)]
        seen = set()
        for table in tables:
            job = Engine(flat_cluster(), 5, 3).structure(table)
            sends = job.send_idx
            per_rank_step = np.bincount(
                job.send_src * (int(job.step.max()) + 1) + job.step[sends]
            )
            if len(set(per_rank_step[per_rank_step > 0].tolist())) > 1:
                seen.add("ragged")
            if (table.farg[sends] == 0.0).any():
                seen.add("zero-byte")
            recvs = job.recv_idx
            if (job.step[job.match[recvs]] < job.step[recvs]).any():
                seen.add("late receive")
            for r in range(5):
                opcode, _, _, _ = table.rank_columns(r)
                text = "".join("CSMIRWX"[o] for o in opcode)
                if "XX" in text:
                    seen.add("empty superstep")
                if "MC" in text and "MCI" in text:
                    seen.add("mark before sends")
                if "RC" in text:
                    seen.add("compute after receives")
        assert seen == {
            "ragged", "zero-byte", "late receive", "empty superstep",
            "mark before sends", "compute after receives",
        }

    def test_krak_smp_comm_aware_table(self):
        deck = build_deck((16, 8))
        faces = build_face_table(deck.mesh)
        partition = make_partition(deck.mesh, 8, method="multilevel", faces=faces)
        census = build_workload_census(deck, partition, faces)
        cluster = apply_placement(smp_cluster(), "comm-aware", 8, census)
        writer = ProgramWriter()
        KrakProgram(census, cluster.node, iterations=2).lower_into(writer)
        per_rank, superstep = both_executors(cluster, 8, writer.finish(), 15)
        assert_same_bits(per_rank, superstep)

    def test_dispatch_prefers_supersteps_for_wide_exchanges(self):
        ops = random_regular_program(7, 32, supersteps=3)
        engine = Engine(flat_cluster(), 32, 3)
        assert engine.structure(lower_programs(ops)).plan is not None

    def test_dispatch_keeps_few_ranks_per_rank(self, monkeypatch):
        # Fewer than _ROWS_PER_STEP ranks cannot reach the threshold, so
        # such a table is never even planned.
        ranks = engine_module._ROWS_PER_STEP - 1
        ops = random_regular_program(3, ranks)

        def refuse(*args):
            raise AssertionError("planned a narrow table")

        monkeypatch.setattr(engine_module, "_superstep_plan", refuse)
        result = Engine(flat_cluster(), ranks, 3).run_compiled(lower_programs(ops))
        oracle = OracleEngine(flat_cluster(), ranks, 3).run(lambda r: iter(ops[r]))
        assert_matches_oracle(result, oracle)

    def test_ring_receiving_before_waitsends_is_irregular(self):
        # The micro.engine_event_loop ring: Isend, Recv, then WaitSends.
        ranks = 16

        def make(rank):
            for it in range(3):
                yield SetPhase(0)
                yield Compute(1e-6)
                yield Isend((rank + 1) % ranks, tag=it, nbytes=256.0)
                yield Recv((rank - 1) % ranks, tag=it)
                yield WaitSends()
                yield Allreduce(nbytes=8)

        engine = Engine(flat_cluster(), ranks, 1)
        table = hand_compile(make, ranks)
        assert engine._structure(table, 0.0).plan is None
        assert engine.structure(table).plan is None
        assert engine._run_other(table) is None
        oracle = OracleEngine(flat_cluster(), ranks, 1).run(make)
        assert_matches_oracle(engine.run(make), oracle)

    def test_deadlock_takes_the_per_rank_path_with_its_report(self):
        ranks = 8

        def make(rank):
            yield SetPhase(0)
            yield Compute(1e-6 * (rank + 1))
            yield Isend((rank + 1) % ranks, tag=5, nbytes=64.0)
            yield WaitSends()
            yield Recv((rank - 1) % ranks, tag=5 if rank else 6)
            yield Allreduce(nbytes=8)

        engine = Engine(flat_cluster(), ranks, 1)
        assert engine._structure(hand_compile(make, ranks), 0.0).plan is None
        with pytest.raises(DeadlockError) as err:
            engine.run(make)
        assert str(err.value) == "\n".join([
            "8 ranks blocked forever (first few: [0, 1, 2, 3, 4, 5, 6, 7])",
            "  rank 0: parked on recv MessageKey(src=7, dst=0, tag=6)",
            "    rank 7 pending sends: MessageKey(src=7, dst=0, tag=5) (64 B)",
            *[f"  rank {r}: waiting in collective sequence 0" for r in range(1, 8)],
        ])

    def test_collective_mismatch_takes_the_per_rank_path(self):
        ranks = 8
        compiled = lower_programs(
            [[Compute(1e-6), Allreduce(nbytes=8)] for _ in range(ranks - 1)]
            + [[Compute(1e-6), Gather(nbytes=8)]]
        )
        engine = Engine(flat_cluster(), ranks, 1)
        assert engine._structure(compiled, 0.0).plan is None
        with pytest.raises(RuntimeError) as err:
            engine.run_compiled(compiled)
        assert str(err.value) == "collective mismatch at sequence 0"

    def test_uneven_collective_counts_and_bad_roots_are_irregular(self):
        engine = Engine(flat_cluster(), 2, 1)
        uneven = lower_programs([[Barrier(), Barrier()], [Barrier()]])
        assert engine._structure(uneven, 0.0).plan is None
        # A root outside the job is refused before any executor is planned.
        bad_root = lower_programs([[Bcast(root=5, nbytes=8)], [Bcast(root=5, nbytes=8)]])
        with pytest.raises(ValueError, match="Bcast root 5 out of range"):
            engine.structure(bad_root)


class TestStructureAndPricing:
    """One structure, built from one machine's table, prices on any machine
    of its rank count bitwise as ``run_compiled`` does on a table lowered
    for that machine (docs/engine.md, "Structure and pricing")."""

    @pytest.fixture(scope="class")
    def census(self):
        def make(ranks):
            deck = build_deck((64, 32))
            faces = build_face_table(deck.mesh)
            partition = make_partition(deck.mesh, ranks, method="multilevel", faces=faces)
            return build_workload_census(deck, partition, faces)

        return make

    @staticmethod
    def lower(census, cluster, iterations=3):
        writer = ProgramWriter()
        KrakProgram(census, cluster.node, iterations=iterations).lower_into(writer)
        return writer.finish()

    @staticmethod
    def machines(census, ranks):
        return (
            flat_cluster(),
            es45_like_cluster(speed=1.7),
            apply_placement(smp_cluster(), "comm-aware", ranks, census),
        )

    @pytest.mark.parametrize("ranks, planned", [(16, True), (4, False)])
    def test_one_structure_prices_every_machine(self, census, ranks, planned):
        census = census(ranks)
        structure = Engine(flat_cluster(), ranks, NUM_PHASES).structure(
            self.lower(census, flat_cluster())
        )
        assert (structure.plan is not None) is planned
        for cluster in self.machines(census, ranks):
            table = self.lower(census, cluster)
            seconds = KrakProgram(census, cluster.node, iterations=3).compute_seconds()
            assert seconds.tobytes() == table.farg[structure.compute_idx].tobytes()
            engine = Engine(cluster, ranks, NUM_PHASES)
            assert_same_bits(engine.price(structure, seconds), engine.run_compiled(table))

    @pytest.mark.parametrize("ranks", [16, 4])
    def test_nodes_wider_than_a_narrow_rank_type(self, ranks):
        # 200 ranks per node and no placement: same_node_mask divides each
        # rank by 200, more than int8 holds, so the structure's rank
        # columns must not be narrowed to the job's rank count.
        cluster = es45_like_cluster().with_smp(
            ranks_per_node=200, intra_latency=3e-6, intra_bandwidth=1.2e9
        )
        deck = build_deck((64, 32))
        faces = build_face_table(deck.mesh)
        partition = make_partition(deck.mesh, ranks, method="multilevel", faces=faces)
        run = run_krak(deck, partition, cluster=cluster, iterations=2, faces=faces)
        oracle = oracle_run_krak(deck, partition, cluster=cluster, iterations=2, faces=faces)
        assert_matches_oracle(run.result, oracle.result)
        ops = random_regular_program(11, 16)
        per_rank, superstep = both_executors(cluster, 16, lower_programs(ops))
        assert_same_bits(per_rank, superstep)
        assert_matches_oracle(superstep, OracleEngine(cluster, 16, 3).run(ops.__getitem__))

    def test_non_finite_compute_falls_back_to_the_per_rank_executor(
        self, census, monkeypatch
    ):
        census = census(16)
        table = self.lower(census, flat_cluster())
        engine = Engine(flat_cluster(), 16, NUM_PHASES)
        structure = engine.structure(table)
        assert structure.plan is not None
        seconds = table.farg[structure.compute_idx].copy()
        seconds[7] = np.inf
        broken = simc.CompiledProgram(
            opcode=table.opcode, farg=table.farg.copy(), a=table.a, b=table.b,
            offsets=table.offsets,
        )
        broken.farg[structure.compute_idx[7]] = np.inf

        def refuse(*args):
            raise AssertionError("superstep executor on a non-finite argument")

        monkeypatch.setattr(Engine, "_run_supersteps", refuse)
        priced = engine.price(structure, seconds)
        assert_same_bits(priced, engine.run_compiled(broken))
        assert not np.isfinite(priced.makespan)

    def test_only_static_jobs_have_fixed_compute_rows(self, census):
        census = census(4)
        for extra in ({"dynamic": object()}, {"perturb": object()}):
            program = KrakProgram(census, flat_cluster().node, **extra)
            with pytest.raises(ValueError, match="static, unperturbed"):
                program.compute_seconds()

    def test_price_rejects_a_foreign_structure(self):
        ops = random_regular_program(5, 8)
        structure = Engine(flat_cluster(), 8, 3).structure(lower_programs(ops))
        seconds = np.zeros(structure.compute_idx.size)
        with pytest.raises(ValueError, match="structure of 8 ranks and 3 phases"):
            Engine(flat_cluster(), 8, 4).price(structure, seconds)
        with pytest.raises(ValueError, match="compute seconds"):
            Engine(flat_cluster(), 8, 3).price(structure, seconds[1:])

    def test_structure_reads_no_machine_and_is_read_only(self, census):
        census = census(16)
        table = self.lower(census, flat_cluster())
        flat = Engine(flat_cluster(), 16, NUM_PHASES).structure(table)
        smp = Engine(smp_cluster(), 16, NUM_PHASES).structure(table)
        for name in flat._fields:
            a, b = getattr(flat, name), getattr(smp, name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
                assert not a.flags.writeable, name
        assert flat.opcode.dtype == np.int8 and flat.phase.dtype == np.int8
        assert flat.plan.coll_arg == smp.plan.coll_arg
        # The table itself is left writeable: the structure holds copies.
        assert table.opcode.flags.writeable and table.farg.flags.writeable
        assert (flat.farg[flat.compute_idx] == 0.0).all()


class TestKrakLowering:
    @pytest.fixture(scope="class")
    def problem(self):
        deck = build_deck((8, 4))
        faces = build_face_table(deck.mesh)
        partition = make_partition(deck.mesh, 4, method="block", faces=faces)
        return deck, faces, partition

    def krak_program(self, problem, iterations, dynamic=None, perturb=None):
        """A census-mode job wired as ``run_krak`` wires it."""
        deck, faces, partition = problem
        census = build_workload_census(deck, partition, faces)
        perturbation = (
            None if perturb is None else Perturbation(perturb, partition.num_ranks)
        )
        controller = None
        if dynamic is not None:
            churn = perturbation.churn_at if perturb is not None else None
            controller = DynamicController(
                deck, partition, dynamic, faces=faces, base_census=census,
                force_repartition=churn,
            )
        program = KrakProgram(
            census=census,
            node_model=es45_like_cluster().node,
            iterations=iterations,
            dynamic=controller,
            perturb=perturbation,
        )
        return program, controller

    def assert_emission_matches_executed_generator(
        self, make_program, cluster=None
    ):
        """``lower_into``'s one table, sliced per rank, is exactly what the
        oracle executes.

        Each rank's ``rank_ops`` generator runs on the reference oracle
        under a wrapper that lowers each yielded op into that rank's
        writer, so the recorded streams are the ones an interleaved
        execution — ranks taking turns at the shared dynamic controller —
        drove.  A fresh job (its own controller) is then lowered in one
        pass.
        """
        cluster = es45_like_cluster() if cluster is None else cluster

        def recording(ops, writer):
            for op in ops:
                op.lower(writer)
                yield op
            writer.end_rank()

        executed, _ = make_program()
        writers = [ProgramWriter() for _ in range(executed.num_ranks)]
        OracleEngine(cluster, executed.num_ranks, FAILURE_PHASE + 1).run(
            lambda r: recording(executed.rank_ops(r), writers[r])
        )
        lowered, controller = make_program()
        writer = ProgramWriter()
        lowered.lower_into(writer)
        table = writer.finish()
        assert table.num_ranks == lowered.num_ranks
        for r, recorded in enumerate(writers):
            via_generator = recorded.finish()
            for col, direct in zip(("opcode", "farg", "a", "b"), table.rank_columns(r)):
                expected = getattr(via_generator, col)
                assert direct.dtype == expected.dtype, (r, col)
                assert np.array_equal(direct, expected), (r, col)
        return controller, table

    def test_direct_emission_matches_generator_lowering(self, problem):
        self.assert_emission_matches_executed_generator(
            lambda: self.krak_program(problem, iterations=2)
        )

    def test_direct_emission_matches_generator_smp_comm_aware(self, problem):
        deck, faces, partition = problem
        census = build_workload_census(deck, partition, faces)
        cluster = apply_placement(
            smp_cluster(), "comm-aware", partition.num_ranks, census
        )
        self.assert_emission_matches_executed_generator(
            lambda: self.krak_program(problem, iterations=2), cluster=cluster
        )
        run = run_krak(deck, partition, cluster=cluster, iterations=2, faces=faces)
        oracle = oracle_run_krak(
            deck, partition, cluster=cluster, iterations=2, faces=faces
        )
        assert_matches_oracle(run.result, oracle.result)

    def test_direct_emission_matches_generator_dynamic(self, problem):
        dynamic = DynamicSpec(policy="imbalance:1.1", burn_multiplier=8.0)
        controller, _ = self.assert_emission_matches_executed_generator(
            lambda: self.krak_program(problem, iterations=4, dynamic=dynamic)
        )
        assert controller.run_info().num_repartitions >= 1

    def test_direct_emission_matches_generator_perturbed(self, problem):
        dynamic = DynamicSpec(policy="imbalance:1.5", burn_multiplier=8.0)
        spec = PerturbSpec(
            seed=3, compute_noise=0.05, straggler_prob=0.2,
            fail_rank=1, fail_iteration=1, churn_prob=0.5,
        )
        controller, table = self.assert_emission_matches_executed_generator(
            lambda: self.krak_program(
                problem, iterations=4, dynamic=dynamic, perturb=spec
            )
        )
        opcode, _, a, _ = table.rank_columns(table.num_ranks - 1)
        failure_rows = (opcode == simc.OP_SETPHASE) & (a == FAILURE_PHASE)
        assert failure_rows.sum() == 1
        assert controller.run_info().num_repartitions >= 1

    def test_compute_rows_are_phase_times_bitwise(self, small_deck, small_faces):
        """Every compute row of the one-pass table is bitwise the per-rank,
        per-iteration ``NodeModel.phase_times`` (jitter on)."""
        partition = make_partition(small_deck.mesh, 16, seed=1, faces=small_faces)
        census = build_workload_census(small_deck, partition, small_faces)
        node = es45_like_cluster().node
        assert node.jitter_frac > 0
        iterations = 3
        grid = node.phase_times_grid(
            census.cell_profiles, census.profile_of_rank, range(iterations)
        )
        writer = ProgramWriter()
        KrakProgram(census, node, iterations=iterations).lower_into(writer)
        table = writer.finish()
        for r in range(census.num_ranks):
            opcode, farg, _, _ = table.rank_columns(r)
            charged = farg[opcode == simc.OP_COMPUTE].reshape(iterations, -1)
            for it in range(iterations):
                expected = node.phase_times(census.work_vector(r), r, it)
                assert grid[it, r].tobytes() == expected.tobytes()
                assert charged[it].tobytes() == expected[: charged.shape[1]].tobytes()

    def test_run_krak_engines_agree(self, problem):
        deck, faces, partition = problem
        run = run_krak(deck, partition, iterations=2, faces=faces)
        oracle = oracle_run_krak(deck, partition, iterations=2, faces=faces)
        assert_matches_oracle(run.result, oracle.result)

    def test_run_krak_dynamic_engines_agree(self, problem):
        deck, faces, partition = problem
        dynamic = DynamicSpec(policy="imbalance:1.1", burn_multiplier=8.0)
        run = run_krak(deck, partition, iterations=4, faces=faces, dynamic=dynamic)
        oracle = oracle_run_krak(
            deck, partition, iterations=4, faces=faces, dynamic=dynamic
        )
        assert_matches_oracle(run.result, oracle.result)
        assert run.dynamic.num_repartitions == oracle.dynamic.num_repartitions
        assert run.dynamic.num_repartitions >= 1


class TestKernelContainers:
    """The kernel runs over plain Python lists."""

    def test_list_run_charges_computes_and_marks(self):
        compiled = lower_programs(
            [
                [
                    SetPhase(0),
                    Compute(3e-6),
                    MarkIteration(0),
                    Compute(2e-6),
                    WaitSends(),
                ]
            ]
        )
        n = compiled.num_ops
        clocks = [0.0]
        comp_rows = [[0.0]]
        mark_clock = [0.0]
        status, _ = _kernels.advance_rank(
            0, [0], clocks, [0.0], [0, n], compiled.opcode.tolist(),
            compiled.farg.tolist(), [0] * n, [0.0] * n, [0.0] * n, [0.0] * n,
            [0.0] * n, [-1] * n, [0, -1, -1, -1, -1], [0.0] * n, [0] * n,
            comp_rows, [[0.0]], mark_clock, [[[0.0]]], [[[0.0]]], 1,
        )
        assert status == _kernels.ST_FINISHED
        assert clocks[0] == 3e-6 + 2e-6
        assert comp_rows[0][0] == 3e-6 + 2e-6
        assert mark_clock[0] == 3e-6  # snapshot taken after the first compute
