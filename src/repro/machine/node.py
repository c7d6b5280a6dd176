"""Single-processor compute-cost model.

The "measured" per-phase, per-rank computation time charged by the
discrete-event simulator is

``T(p, rank) = overhead[p] + cache(n) · Σ_m cell_cost[p, m] · work[m]``

where ``n`` is the rank's total local cell count and ``work[m]`` the
(possibly multiplier-weighted) cell count per material.  The ``overhead[p]``
floor produces the Figure-3 knee: per-cell cost ``T/n`` is flat for large
``n`` and rises as ``1/n`` once subgrids shrink below
``overhead / cell_cost`` cells.  A deterministic per-(rank, phase) jitter
models real-machine variability so the max-over-ranks in Equation (3) is a
meaningful statistic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util import as_float_array, row_dots


_MASK64 = 0xFFFFFFFFFFFFFFFF
_MIX_RANK = 0x9E3779B97F4A7C15
_MIX_PHASE = 0xC2B2AE3D27D4EB4F
_MIX_ITERATION = 0x165667B19E3779F9
_MIX_SEED = 0x27D4EB2F165667C5
_FINALIZE = 0xFF51AFD7ED558CCD


def _hash_jitter(rank: int, phase: int, iteration: int, seed: int) -> float:
    """Deterministic pseudo-random value in [-1, 1) from a 64-bit mix."""
    x = (
        (rank + 1) * _MIX_RANK
        ^ (phase + 1) * _MIX_PHASE
        ^ (iteration + 1) * _MIX_ITERATION
        ^ (seed + 1) * _MIX_SEED
    ) & _MASK64
    x ^= x >> 33
    x = (x * _FINALIZE) & _MASK64
    x ^= x >> 33
    return (x / 2**63) - 1.0


def _hash_jitter_grid(ranks, iterations, seed: int, num_phases: int) -> np.ndarray:
    """:func:`_hash_jitter` of every phase, for each of ``iterations`` and
    ``ranks``, as an ``(iterations, ranks, phases)`` array, bitwise.

    The mix is taken modulo 2**64 either way, so wrapping ``uint64``
    products give the masked Python-integer ones, and ``x / 2**63`` is a
    correctly rounded conversion scaled by a power of two in both forms.
    """
    u64 = np.uint64
    rank_mix = (np.asarray(ranks, dtype=u64) + u64(1)) * u64(_MIX_RANK)
    its = (np.asarray(iterations, dtype=u64) + u64(1)) * u64(_MIX_ITERATION)
    key = its[:, None] ^ rank_mix[None, :] ^ u64(((seed + 1) * _MIX_SEED) & _MASK64)
    shift = u64(33)
    phases = np.arange(1, num_phases + 1, dtype=u64) * u64(_MIX_PHASE)
    x = key[:, :, None] ^ phases
    x ^= x >> shift
    x *= u64(_FINALIZE)
    x ^= x >> shift
    return x / 2.0**63 - 1.0


@dataclass(frozen=True)
class NodeModel:
    """Per-processor compute-cost parameters.

    Attributes
    ----------
    phase_overhead:
        Fixed per-phase cost per rank, shape ``(num_phases,)`` seconds.
    cell_cost:
        Per-cell cost, shape ``(num_phases, num_materials)`` seconds.
    cache_cells:
        Working-set scale (cells) beyond which the cache penalty saturates.
    cache_penalty:
        Fractional slowdown for out-of-cache subgrids (0 disables).
    jitter_frac:
        Amplitude of deterministic per-(rank, phase, iteration) compute
        jitter as a fraction of the cost (0 disables).
    seed:
        Seed folded into the jitter hash.
    """

    phase_overhead: np.ndarray
    cell_cost: np.ndarray
    cache_cells: float = 40000.0
    cache_penalty: float = 0.20
    jitter_frac: float = 0.015
    seed: int = 0

    def __post_init__(self) -> None:
        ov = as_float_array(self.phase_overhead, "phase_overhead")
        cc = as_float_array(self.cell_cost, "cell_cost")
        object.__setattr__(self, "phase_overhead", ov)
        object.__setattr__(self, "cell_cost", cc)
        if cc.ndim != 2 or cc.shape[0] != ov.shape[0]:
            raise ValueError("cell_cost must be (num_phases, num_materials)")
        if np.any(ov < 0) or np.any(cc < 0):
            raise ValueError("costs must be non-negative")
        if not 0 <= self.cache_penalty < 10:
            raise ValueError("cache_penalty out of sane range")
        if not 0 <= self.jitter_frac < 0.5:
            raise ValueError("jitter_frac out of sane range")

    @property
    def num_phases(self) -> int:
        """Number of iteration phases this model covers."""
        return int(self.phase_overhead.shape[0])

    @property
    def num_materials(self) -> int:
        """Number of materials this model covers."""
        return int(self.cell_cost.shape[1])

    def cache_factor(self, total_cells):
        """Multiplicative slowdown for subgrid(s) of ``total_cells`` cells.

        Smoothly rises from 1 (fits in cache) to ``1 + cache_penalty``.
        """
        n = np.asarray(total_cells, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(
                n > 0, 1.0 + self.cache_penalty * n / (n + self.cache_cells), 1.0
            )
        return float(factor) if factor.ndim == 0 else factor

    def _base_times(self, work: np.ndarray) -> np.ndarray:
        """Noise-free time of every phase for each work vector on the last
        axis of ``work``: shape ``work.shape[:-1] + (phases,)``.

        Each row's ``cell_cost[p] @ work`` is one :func:`~repro.util.row_dots`
        product, bitwise the 1-D product of that row alone.
        """
        work = np.ascontiguousarray(work, dtype=np.float64)
        if work.ndim == 0 or work.shape[-1] != self.num_materials:
            raise ValueError(f"work vectors must have {self.num_materials} materials")
        if np.any(work < 0):
            raise ValueError("work counts must be non-negative")
        cache = self.cache_factor(work.sum(axis=-1))
        dots = row_dots(self.cell_cost, work[..., None, :])
        return self.phase_overhead + np.asarray(cache)[..., None] * dots

    def phase_times(
        self, work_by_material: np.ndarray, rank: int = 0, iteration: int = 0
    ) -> np.ndarray:
        """Compute time of every phase on one rank in one iteration.

        Parameters
        ----------
        work_by_material:
            Effective cell counts per material (the hydro workload census may
            scale raw counts by activity multipliers, e.g. actively-burning
            HE cells cost more), or a ``(rows, materials)`` array of them
            charged on the same rank and iteration, giving
            ``(rows, phases)``.
        rank, iteration:
            Identify the jitter stream.
        """
        times = self._base_times(work_by_material)
        if self.jitter_frac:
            times *= 1.0 + self.jitter_frac * _hash_jitter_grid(
                (rank,), (iteration,), self.seed, self.num_phases
            )[0, 0]
        return times

    def phase_times_grid(
        self, profiles: np.ndarray, profile_of_rank: np.ndarray, iterations
    ) -> np.ndarray:
        """Compute time of every phase on every rank in each of ``iterations``.

        Rank ``r`` works on ``profiles[profile_of_rank[r]]``, and entry
        ``[i, r]`` of the ``(iterations, ranks, phases)`` result is bitwise
        :meth:`phase_times` of that work vector, rank and
        ``iterations[i]``: the noise-free times are taken once per distinct
        profile, and the jitter is elementwise.
        """
        base = self._base_times(profiles)[profile_of_rank]
        iterations = list(iterations)
        if not self.jitter_frac:
            return np.broadcast_to(base, (len(iterations), *base.shape))
        jitter = _hash_jitter_grid(
            np.arange(base.shape[0]), iterations, self.seed, self.num_phases
        )
        return base * (1.0 + self.jitter_frac * jitter)

    def phase_time(
        self,
        phase: int,
        work_by_material: np.ndarray,
        rank: int = 0,
        iteration: int = 0,
        with_jitter: bool = True,
    ) -> float:
        """Compute time of one phase on one rank: one entry of
        :meth:`phase_times`, or of the noise-free times when
        ``with_jitter`` is off (used by unit tests)."""
        if not 0 <= phase < self.num_phases:
            raise ValueError(f"phase must lie in [0, {self.num_phases}), got {phase}")
        if with_jitter:
            return float(self.phase_times(work_by_material, rank, iteration)[phase])
        return float(self._base_times(work_by_material)[phase])

    def per_cell_cost(self, phase: int, material: int, cells: float) -> float:
        """Noise-free per-cell cost ``T/n`` for a pure-material subgrid.

        This is the quantity plotted in Figure 3: flat for large ``cells``,
        rising as ``1/cells`` below the knee.
        """
        if cells <= 0:
            raise ValueError("cells must be positive")
        work = np.zeros(self.num_materials)
        work[material] = cells
        return self.phase_time(phase, work, with_jitter=False) / cells
