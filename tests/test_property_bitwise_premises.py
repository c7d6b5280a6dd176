"""The bitwise premises the array-at-a-time warm paths rest on.

Each vectorised body replaced a scalar loop without changing a bit of its
results, because NumPy evaluates these operations identically either way:

* a :class:`~repro.perfmodel.CostCurve` called on an array equals the
  stacked scalar calls (``np.log`` and ``np.interp`` are elementwise), so
  ``phase_computation_time`` evaluates each curve once over all ranks;
* :meth:`~repro.machine.node.NodeModel.phase_times` equals the scalar
  per-phase expression with the Python-integer jitter hash, so lowering
  fills a whole iteration's compute rows in one call;
* a row of a C-contiguous ``(B, P)`` array reduced with ``sum``/``max``
  along axis 1 equals the 1-D reduction of that row, so the exhaustive
  minimax placement scores all its trials as rows of one matrix.

A NumPy upgrade that breaks one of them fails here, not as a drift in a
golden far downstream.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.node import NodeModel, _hash_jitter
from repro.perfmodel import CostCurve


@st.composite
def curves_and_queries(draw):
    """A curve, possibly with knots that collide in log space, and queries
    that include every knot."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        # Large abscissae a few ULPs apart: distinct, but equal after log.
        start = draw(st.floats(1e14, 1e16))
        cells = start + np.arange(n) * np.spacing(start)
    else:
        raw = draw(st.lists(st.floats(1.0, 1e7), min_size=n, max_size=n, unique=True))
        cells = np.sort(np.array(raw))
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


def _scalar_phase_time(node: NodeModel, phase, work, rank, iteration) -> float:
    """The per-phase charge as one scalar expression and the integer hash."""
    n = float(work.sum())
    base = float(node.phase_overhead[phase]) + node.cache_factor(n) * float(
        node.cell_cost[phase] @ work
    )
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
