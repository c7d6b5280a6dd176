"""Piecewise-linear message-cost model (the paper's Equation 4).

``Tmsg(S) = L(S) + S · TB(S)`` where both the start-up cost ``L`` and the
per-byte cost ``TB`` are piecewise-constant in the message size ``S`` —
exactly the form the paper fits to ping-pong measurements.  The default
parameters are QsNet-I-like: a few tens of microseconds of MPI small-message
latency and ~300 MB/s sustained bandwidth, with a latency step at the
eager→rendezvous protocol switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util import as_float_array, check_nonnegative


@dataclass(frozen=True)
class NetworkModel:
    """Piecewise-linear point-to-point message cost.

    Attributes
    ----------
    breakpoints:
        Ascending message sizes (bytes) where a new segment begins; the
        first segment implicitly starts at size 0.
    latency:
        Start-up cost ``L(S)`` per segment, seconds, one entry per segment
        (``len(breakpoints) + 1``).
    per_byte:
        Per-byte cost ``TB(S)`` per segment, seconds/byte, aligned with
        ``latency``.
    name:
        Human-readable label.
    """

    breakpoints: np.ndarray
    latency: np.ndarray
    per_byte: np.ndarray
    name: str = "custom"

    def __post_init__(self) -> None:
        bp = as_float_array(self.breakpoints, "breakpoints")
        lat = as_float_array(self.latency, "latency")
        pb = as_float_array(self.per_byte, "per_byte")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "latency", lat)
        object.__setattr__(self, "per_byte", pb)
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly ascending")
        if lat.shape != pb.shape or lat.shape[0] != bp.shape[0] + 1:
            raise ValueError(
                "latency and per_byte need len(breakpoints) + 1 entries each"
            )
        if np.any(lat < 0) or np.any(pb < 0):
            raise ValueError("latency and per_byte must be non-negative")
        # Memoisation for the collective timers: their payloads come from a
        # handful of sizes, so per-size caching removes nearly every
        # repeated searchsorted.  Values are identical to the uncached
        # path; this is a plain dict, not a dataclass field.
        object.__setattr__(self, "_tmsg_cache", {})

    def segment_of(self, size) -> np.ndarray:
        """Segment index for message size(s) ``size``.

        A size exactly at a breakpoint belongs to the segment *below* it
        (an eager-threshold-sized message still goes eagerly).
        """
        return np.searchsorted(self.breakpoints, np.asarray(size, dtype=np.float64), side="left")

    def tmsg(self, size):
        """Equation (4): time to send ``size`` bytes point-to-point.

        Accepts scalars or arrays; zero-byte messages still pay the
        small-message latency (a zero-size MPI message is not free).
        """
        size_arr = np.asarray(size, dtype=np.float64)
        if np.any(size_arr < 0):
            raise ValueError("message size must be non-negative")
        seg = self.segment_of(size_arr)
        out = self.latency[seg] + size_arr * self.per_byte[seg]
        return float(out) if np.isscalar(size) or size_arr.ndim == 0 else out

    def tmsg_many(self, sizes: np.ndarray) -> np.ndarray:
        """Batched Equation (4): one piecewise-linear evaluation per entry.

        The vectorized hot path behind the boundary-exchange, ghost-update,
        and collective models: each output element is bitwise identical to
        the scalar :meth:`tmsg` of the same size.

        Contract: ``sizes`` must be a non-negative float64 array.  This
        method deliberately performs NO validation — that is what makes it
        the hot path — so results for negative sizes are undefined; use
        :meth:`tmsg` when the input is not already validated.
        """
        seg = self.breakpoints.searchsorted(sizes, side="left")
        return self.latency[seg] + sizes * self.per_byte[seg]

    def tmsg_cached(self, size) -> float:
        """Memoised scalar :meth:`tmsg` for the simulator's repeated sizes."""
        cached = self._tmsg_cache.get(size)
        if cached is None:
            cached = self._tmsg_cache[size] = float(self.tmsg(size))
        return cached

    def send_times_many(self, sizes: np.ndarray) -> tuple:
        """``(L(S), S · TB(S))`` arrays: the two terms an ``Isend`` charges.

        One ``searchsorted`` sweep prices every message of a compiled
        program at once; the start-up latency pipelines while the
        bandwidth term serialises through the sender's NIC.  Like
        :meth:`tmsg_many`, this is a no-validation hot path: ``sizes`` must
        be non-negative float64.
        """
        seg = self.breakpoints.searchsorted(sizes, side="left")
        return self.latency[seg], sizes * self.per_byte[seg]

    def bandwidth_time(self, size) -> float:
        """Only the ``S · TB(S)`` term — the NIC-serialised component."""
        size_arr = np.asarray(size, dtype=np.float64)
        seg = self.segment_of(size_arr)
        out = size_arr * self.per_byte[seg]
        return float(out) if np.isscalar(size) or size_arr.ndim == 0 else out

    def startup_time(self, size) -> float:
        """Only the ``L(S)`` term — pipelines across back-to-back sends."""
        seg = self.segment_of(np.asarray(size, dtype=np.float64))
        out = self.latency[seg]
        return float(out) if np.isscalar(size) else out


def make_network(
    small_latency: float = 18e-6,
    large_latency: float = 36e-6,
    eager_threshold: float = 4096.0,
    bandwidth_bytes_per_s: float = 300e6,
    name: str = "custom",
) -> NetworkModel:
    """Convenience two-segment network: eager below the threshold, rendezvous above.

    >>> net = make_network(small_latency=2e-6, large_latency=4e-6,
    ...                    eager_threshold=1024.0, bandwidth_bytes_per_s=1e9)
    >>> net.tmsg(0)  # a zero-byte message still pays the eager latency
    2e-06
    >>> int(net.segment_of(1024)), int(net.segment_of(1025))  # threshold stays eager
    (0, 1)
    >>> net.tmsg(1024) == 2e-06 + 1024 * 1e-09
    True
    """
    check_nonnegative(small_latency, "small_latency")
    check_nonnegative(large_latency, "large_latency")
    per_byte = 1.0 / bandwidth_bytes_per_s
    return NetworkModel(
        breakpoints=np.array([eager_threshold]),
        latency=np.array([small_latency, large_latency]),
        per_byte=np.array([per_byte, per_byte]),
        name=name,
    )


#: Default QsNet-I-like parameters (MPI-level, including software overheads;
#: the effective small-message cost is well above the wire latency, as on
#: the real ES-45/QsNet system once MPI and scheduling noise are counted).
QSNET_LIKE = make_network(
    small_latency=18e-6,
    large_latency=36e-6,
    eager_threshold=4096.0,
    bandwidth_bytes_per_s=300e6,
    name="qsnet-like",
)
