"""The bitwise premises the array-at-a-time warm paths rest on.

Each vectorised body replaced a scalar loop without changing a bit of its
results, because NumPy and BLAS evaluate these operations identically
either way:

* :meth:`~repro.perfmodel.CostTable.per_cell_grid` evaluates every curve of
  a table in one pass at sizes of any shape, and each value equals
  ``np.interp`` of that curve alone in log space, with exact sample hits
  resolved in the cells domain;
* a batched ``np.matmul(A[..., None, :], B[..., :, None])``
  (:func:`~repro.util.row_dots`) equals the per-row 1-D ``A[i] @ B[i]``:
  each 1×n·n×1 batch is the same BLAS ``ddot`` call, so the computation
  model contracts every (rank, phase) at once and the node model charges
  every work vector at once;
* :meth:`~repro.machine.node.NodeModel.phase_times` and
  :meth:`~repro.machine.node.NodeModel.phase_times_grid` equal the scalar
  per-phase expression with the Python-integer jitter hash, so lowering
  fills a whole job's compute rows in one call;
* a row of a C-contiguous ``(B, P)`` array reduced with ``sum``/``max``
  along axis 1 equals the 1-D reduction of that row, so the exhaustive
  minimax placement scores all its trials as rows of one matrix.

A NumPy or BLAS upgrade that breaks one of them fails here, not as a drift
in a golden far downstream.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.node import NodeModel, _hash_jitter
from repro.perfmodel import CostCurve, CostTable
from repro.util import row_dots


def _knots(draw, n):
    """``n`` ascending sample sizes, possibly colliding in log space."""
    if draw(st.booleans()):
        # Large abscissae a few ULPs apart: distinct, but equal after log.
        start = draw(st.floats(1e14, 1e16))
        return start + np.arange(n) * np.spacing(start)
    raw = draw(st.lists(st.floats(1.0, 1e7), min_size=n, max_size=n, unique=True))
    return np.sort(np.array(raw))


def _interp_reference(cells, per_cell, n):
    """One curve the way it was priced alone: ``np.interp`` in log space,
    then exact sample hits resolved in the cells domain."""
    n = np.asarray(n, dtype=np.float64)
    out = np.interp(np.log(n), np.log(cells), per_cell)
    idx = np.minimum(np.searchsorted(cells, n), cells.size - 1)
    return np.where(cells[idx] == n, per_cell[idx], out)


@st.composite
def curves_and_queries(draw):
    """A curve, possibly with knots that collide in log space, and queries
    that include every knot."""
    n = draw(st.integers(1, 8))
    cells = _knots(draw, n)
    per_cell = np.array(draw(st.lists(st.floats(0.0, 1e-3), min_size=n, max_size=n)))
    extra = draw(st.lists(st.floats(0.25, 1e17), max_size=24))
    queries = np.concatenate([cells, np.array(extra)])
    return CostCurve(cells=cells, per_cell=per_cell), queries


@given(case=curves_and_queries())
@settings(max_examples=150, deadline=None)
def test_cost_curve_array_call_equals_scalar_calls(case):
    curve, queries = case
    stacked = np.array([curve(float(q)) for q in queries])
    assert np.array_equal(curve(queries), stacked)


@st.composite
def tables_and_queries(draw):
    """A table, its knots possibly colliding in log space, and queries of
    shape ``()``, ``(k,)`` or ``(a, b)`` drawn from every knot, both
    clamps, the knots' next floats and arbitrary sizes."""
    n = draw(st.integers(1, 8))
    cells = _knots(draw, n)
    phases, materials = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    size = phases * materials * n
    costs = draw(st.lists(st.floats(0.0, 1e-3), min_size=size, max_size=size))
    costs = np.array(costs).reshape(phases, materials, n)
    extra = draw(st.lists(st.floats(0.25, 1e17), max_size=24))
    pool = np.concatenate([
        cells, cells[:1] / 2, cells[-1:] * 2, np.nextafter(cells, np.inf), extra
    ])
    shape = draw(st.sampled_from([(), (pool.size,), (2, 3)]))
    if shape == (pool.size,):
        return CostTable.from_arrays(cells, costs), pool
    count = int(np.prod(shape))
    picks = draw(st.lists(st.integers(0, pool.size - 1), min_size=count, max_size=count))
    return CostTable.from_arrays(cells, costs), pool[picks].reshape(shape)


def _same_bits(got, expected) -> bool:
    got, expected = np.asarray(got), np.asarray(expected)
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


@given(case=tables_and_queries())
@settings(max_examples=200, deadline=None)
def test_stacked_table_evaluation_equals_per_curve_interp(case):
    table, queries = case
    grid = table.per_cell_grid(queries)
    assert grid.shape == queries.shape + (table.num_phases, table.num_materials)
    for p, row in enumerate(table.curves):
        for m, curve in enumerate(row):
            expected = _interp_reference(table.cells, table.costs[p, m], queries)
            assert _same_bits(grid[..., p, m], expected)
            assert _same_bits(curve(queries), expected)
            if queries.ndim == 0:
                assert _same_bits(table.per_cell(p, m, float(queries)), expected)


@given(
    length=st.sampled_from([2, 4, 17]),
    batch=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_batched_matmul_equals_per_row_dots(length, batch, seed):
    rng = np.random.default_rng(seed)
    shape = (*batch, length)
    a = rng.random(shape) * 10.0 ** rng.integers(-9, 7, size=shape)
    b = rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 7, size=shape)
    rows_a, rows_b = a.reshape(-1, length), b.reshape(-1, length)
    got = np.matmul(a[..., None, :], b[..., :, None])
    assert got.shape == (*batch, 1, 1)
    assert got.reshape(-1).tolist() == [x @ y for x, y in zip(rows_a, rows_b)]
    # One operand broadcast across the batch, as the node model's cost rows are.
    shared = rng.random(length) * 1e-6
    assert row_dots(shared, a).reshape(-1).tolist() == [shared @ x for x in rows_a]


def _scalar_phase_time(node: NodeModel, phase, work, rank, iteration) -> float:
    """The per-phase charge as one scalar expression and the integer hash."""
    n = float(work.sum())
    cache = 1.0 + node.cache_penalty * n / (n + node.cache_cells) if n > 0 else 1.0
    base = float(node.phase_overhead[phase]) + cache * float(node.cell_cost[phase] @ work)
    if node.jitter_frac:
        base *= 1.0 + node.jitter_frac * _hash_jitter(rank, phase, iteration, node.seed)
    return base


@given(
    rank=st.one_of(st.integers(0, 64), st.integers(10**6 - 64, 10**6 + 64)),
    iteration=st.integers(0, 10**5),
    seed=st.one_of(st.integers(0, 64), st.integers(2**31 - 64, 2**31 + 64)),
    jitter=st.sampled_from([0.0, 0.015, 0.3]),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_phase_times_equals_scalar_phase_charges(rank, iteration, seed, jitter, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    phases, materials = 17, 4
    node = NodeModel(
        phase_overhead=rng.random(phases) * 1e-5,
        cell_cost=rng.random((phases, materials)) * 1e-6,
        jitter_frac=jitter,
        seed=seed,
    )
    work = np.floor(rng.random(materials) * 10 ** rng.integers(0, 7))
    times = node.phase_times(work, rank, iteration)
    expected = [
        _scalar_phase_time(node, p, work, rank, iteration) for p in range(phases)
    ]
    assert times.tolist() == expected
    assert [node.phase_time(p, work, rank, iteration) for p in range(phases)] == expected


@given(
    jitter=st.sampled_from([0.0, 0.015, 0.3]),
    num_profiles=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_phase_times_grid_equals_scalar_phase_charges(jitter, num_profiles, seed):
    rng = np.random.default_rng(seed)
    phases, materials = 15, 4
    node = NodeModel(
        phase_overhead=rng.random(phases) * 1e-5,
        cell_cost=rng.random((phases, materials)) * 1e-6,
        jitter_frac=jitter,
        seed=int(rng.integers(0, 2**31)),
    )
    scale = 10.0 ** rng.integers(0, 7, size=(num_profiles, 1))
    profiles = np.floor(rng.random((num_profiles, materials)) * scale)
    profiles[rng.random(num_profiles) < 0.3] = 0.0  # the cache factor's 1.0 branch
    profile_of_rank = rng.integers(0, num_profiles, size=int(rng.integers(1, 48)))
    iterations = [0, int(rng.integers(1, 10**5))]
    grid = node.phase_times_grid(profiles, profile_of_rank, iterations)
    assert grid.shape == (2, profile_of_rank.size, phases)
    for i, it in enumerate(iterations):
        for rank, profile in enumerate(profile_of_rank.tolist()):
            work = profiles[profile]
            assert grid[i, rank].tolist() == [
                _scalar_phase_time(node, p, work, rank, it) for p in range(phases)
            ]


@given(
    num_cols=st.integers(2, 512),
    num_rows=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_matrix_row_reductions_equal_1d_reductions(num_cols, num_rows, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-9, 3, size=(num_rows, num_cols))
    rows = rng.standard_normal((num_rows, num_cols)) * scale
    sums, maxes = rows.sum(axis=1), rows.max(axis=1)
    for i, row in enumerate(rows):
        assert sums[i] == row.sum() and maxes[i] == row.max()
    # The minimax placement's gather-sums: a C-contiguous column gather,
    # reduced along its rows, equals each row's 1-D gather-then-sum.
    cols = np.flatnonzero(rng.random(num_cols) < 0.3)
    gathered = np.ascontiguousarray(rows[:, cols]).sum(axis=1)
    assert gathered.tolist() == [row[cols].sum() for row in rows]
