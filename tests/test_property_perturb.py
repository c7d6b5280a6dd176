"""Property-based and golden tests for the perturbation subsystem.

Three layers of guarantees:

* **seeding contract goldens** — raw ``(seed, stream, rank, iteration)``
  draws, per-phase factors, and perturbed makespans are pinned as exact
  hex floats (``tests/goldens/perturb_streams.json``), so any drift in the
  stream keying silently re-keying stored perturbed results is caught at
  the bit;
* **stream hygiene** — rank *k*'s stream never moves rank *j*'s draws, no
  draw touches NumPy's global state, and factors are independent of
  evaluation order and communicator size;
* **metamorphic properties (Hypothesis)** — same seed ⇒ bitwise-identical
  runs (including across ``jobs=N`` sweep workers), zero amplitude ⇒
  bitwise identity with the clean run, perturbed charges stay finite and
  non-negative, and the makespan is monotone in the noise amplitude under
  common random numbers.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hydro import run_krak
from repro.mesh import build_deck, build_face_table
from repro.partition import make_partition
from repro.perturb import Perturbation, PerturbSpec, perturb_rng
from repro.verify.oracle import oracle_run_krak

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "goldens" / "perturb_streams.json").read_text()
)

NUM_RANKS = 4
ITERATIONS = 3

_DECK = build_deck((8, 4))
_FACES = build_face_table(_DECK.mesh)
_PARTITION = make_partition(
    _DECK.mesh, NUM_RANKS, method="multilevel", seed=1, faces=_FACES
)


def _run(perturb, iterations=ITERATIONS):
    return run_krak(
        _DECK, _PARTITION, iterations=iterations, faces=_FACES, perturb=perturb,
    ).result


def _results_identical(a, b) -> bool:
    return (
        np.array_equal(a.trace.compute, b.trace.compute)
        and np.array_equal(a.trace.comm, b.trace.comm)
        and np.array_equal(a.final_clocks, b.final_clocks)
    )


def unhex(value: str) -> float:
    return float.fromhex(value)


class TestSeedingContractGoldens:
    def test_stream_draws_bitwise(self):
        for key_str, draws in GOLDEN["streams"].items():
            key = tuple(int(part) for part in key_str.split(","))
            assert perturb_rng(*key).random() == unhex(draws["uniform"]), key
            assert perturb_rng(*key).standard_exponential() == unhex(
                draws["exponential"]
            ), key

    def test_factors_bitwise(self):
        perturbation = Perturbation(
            PerturbSpec(**GOLDEN["factor_spec"]), NUM_RANKS
        )
        for key_str, expected in GOLDEN["factors"].items():
            rank, iteration = (int(part) for part in key_str.split(","))
            factors = perturbation.compute_factors(rank, iteration)
            assert [float(f).hex() for f in factors] == expected, key_str

    def test_run_makespans_bitwise(self):
        run = GOLDEN["run"]
        assert _run(None).makespan == unhex(run["clean_makespan"])
        assert _run(PerturbSpec()).makespan == unhex(run["null_spec_makespan"])
        assert _run(PerturbSpec(**GOLDEN["factor_spec"])).makespan == unhex(
            run["noisy_makespan"]
        )

    def test_null_spec_matches_clean_golden(self):
        # The null spec is not just self-consistent: it reproduces the
        # *clean* pinned makespan, bit for bit.
        run = GOLDEN["run"]
        assert run["null_spec_makespan"] == run["clean_makespan"]


class TestStreamHygiene:
    SPEC = PerturbSpec(seed=7, compute_noise=0.1, straggler_prob=0.5,
                       straggler_factor=4.0)

    def test_rank_streams_independent(self):
        # Rank j's factors are identical whether or not any other rank's
        # stream was consumed first, and whatever the communicator size.
        alone = Perturbation(self.SPEC, NUM_RANKS).compute_factors(1, 0)
        crowded = Perturbation(self.SPEC, NUM_RANKS)
        for rank in (3, 0, 2):
            crowded.compute_factors(rank, 0)
            crowded.compute_factors(rank, 1)
        assert np.array_equal(crowded.compute_factors(1, 0), alone)
        bigger = Perturbation(self.SPEC, 64)
        assert np.array_equal(bigger.compute_factors(1, 0), alone)

    def test_iteration_streams_independent(self):
        alone = Perturbation(self.SPEC, NUM_RANKS).compute_factors(0, 2)
        ordered = Perturbation(self.SPEC, NUM_RANKS)
        for iteration in (0, 1, 2):
            ordered.compute_factors(0, iteration)
        assert np.array_equal(ordered.compute_factors(0, 2), alone)

    def test_global_numpy_state_untouched(self):
        # Perturbation draws must come from private generators only:
        # consuming them cannot move the legacy global stream, and the
        # global stream cannot influence them.
        np.random.seed(123)
        expected = np.random.random(4)
        np.random.seed(123)
        perturbation = Perturbation(self.SPEC, NUM_RANKS)
        for rank in range(NUM_RANKS):
            perturbation.compute_factors(rank, 0)
        perturbation.churn_at(1)
        assert np.array_equal(np.random.random(4), expected)

    def test_no_global_numpy_randomness_in_sources(self):
        # Seeding-hazard audit: the perturbation and engine sources must
        # never call the np.random module-level (global-state) functions.
        root = Path(__file__).resolve().parents[1] / "src" / "repro"
        banned = [
            "np.random.seed", "np.random.random(", "np.random.rand",
            "np.random.randint", "np.random.normal", "np.random.choice",
            "np.random.exponential", "np.random.uniform",
        ]
        offenders = []
        for path in sorted(root.rglob("*.py")):
            text = path.read_text()
            offenders += [
                f"{path.name}: {call}" for call in banned if call in text
            ]
        assert not offenders, offenders

    def test_churn_stream_is_global_not_per_rank(self):
        spec = PerturbSpec(seed=3, churn_prob=0.5)
        a = Perturbation(spec, 2)
        b = Perturbation(spec, 1024)
        decisions = [a.churn_at(i) for i in range(1, 8)]
        assert decisions == [b.churn_at(i) for i in range(1, 8)]
        assert not a.churn_at(0)  # iteration 0 never churns
        assert any(decisions)  # prob 0.5 over 7 draws: pinned stream fires


class TestPerturbProperties:
    @given(seed=st.integers(0, 2**31 - 1), amp=st.floats(0.01, 0.5))
    @settings(max_examples=10, deadline=None)
    def test_same_seed_bitwise_repeatable(self, seed, amp):
        spec = PerturbSpec(seed=seed, compute_noise=amp, straggler_prob=0.3)
        assert _results_identical(_run(spec), _run(spec))

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_zero_amplitude_is_bitwise_clean(self, seed):
        # Amplitude zero with any seed: the factor stream is never even
        # consulted, so the run equals the clean one exactly.
        assert _results_identical(_run(PerturbSpec(seed=seed)), _run(None))

    @given(seed=st.integers(0, 2**31 - 1), amp=st.floats(0.01, 0.5))
    @settings(max_examples=10, deadline=None)
    def test_oracle_bitwise_under_noise(self, seed, amp):
        spec = PerturbSpec(seed=seed, compute_noise=amp, straggler_prob=0.3,
                           link_degrade=0.5)
        result = _run(spec)
        oracle = oracle_run_krak(
            _DECK, _PARTITION, iterations=ITERATIONS, faces=_FACES, perturb=spec
        ).result
        assert np.array_equal(result.trace.compute, oracle.compute)
        assert np.array_equal(result.trace.comm, oracle.comm)
        assert np.array_equal(result.final_clocks, oracle.final_clocks)

    @given(seed=st.integers(0, 2**31 - 1), amp=st.floats(0.0, 1.0))
    @settings(max_examples=10, deadline=None)
    def test_finite_and_nonnegative(self, seed, amp):
        spec = PerturbSpec(seed=seed, compute_noise=amp, straggler_prob=0.5,
                           straggler_factor=8.0)
        result = _run(spec)
        for values in (result.trace.compute, result.trace.comm,
                       result.final_clocks):
            assert np.isfinite(values).all()
            assert values.min(initial=0.0) >= 0.0

    @given(
        seed=st.integers(0, 2**31 - 1),
        amps=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4),
    )
    @settings(max_examples=10, deadline=None)
    def test_makespan_monotone_in_amplitude(self, seed, amps):
        # Common random numbers: one seed across the sweep scales the same
        # exponential draws, so every event time is pointwise monotone in
        # the amplitude — and therefore so is the makespan.
        makespans = [
            _run(PerturbSpec(seed=seed, compute_noise=amp,
                             straggler_prob=0.3)).makespan
            for amp in sorted(amps)
        ]
        assert all(b >= a for a, b in zip(makespans, makespans[1:]))

    @given(seed=st.integers(0, 2**31 - 1), degrade=st.floats(0.1, 4.0))
    @settings(max_examples=10, deadline=None)
    def test_link_degrade_never_speeds_up(self, seed, degrade):
        clean = _run(None).makespan
        degraded = _run(PerturbSpec(seed=seed, link_degrade=degrade)).makespan
        assert degraded >= clean


class TestSweepWorkerDeterminism:
    def test_jobs_parallel_bitwise(self):
        # A perturbed grid evaluated on 2 worker processes must reproduce
        # the serial path exactly — draws are keyed, never order-dependent.
        from repro.analysis.runner import SweepSpec, run_points
        from repro.core import ClusterSpec

        spec = SweepSpec(
            decks=("8x4",),
            rank_counts=(2, 4),
            clusters=(ClusterSpec(),),
            models=(),
            perturbs=(
                PerturbSpec(seed=5, compute_noise=0.2, straggler_prob=0.5),
                None,
            ),
            max_side=16,
        )
        tasks = spec.tasks()
        serial = [o.point for o in run_points(tasks, jobs=1)]
        parallel = [o.point for o in run_points(tasks, jobs=2)]
        assert [p.measured for p in serial] == [p.measured for p in parallel]
        assert serial[0].measured != serial[2].measured  # perturb vs clean
