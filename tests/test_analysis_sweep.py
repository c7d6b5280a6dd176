"""Integration tests for validation sweeps."""

import pytest

from repro.analysis import SweepSpec, run_sweep


@pytest.fixture()
def tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def points(spec):
    return [outcome.point for outcome in run_sweep(spec)]


class TestValidationSweep:
    def test_points_and_errors(self, tmp_cache):
        spec = SweepSpec(decks=("32x16",), rank_counts=(4, 8), models=("homogeneous",))
        result = points(spec)
        assert [p.num_ranks for p in result] == [4, 8]
        for p in result:
            assert p.measured > 0
            assert "homogeneous" in p.predicted
            assert abs(p.error("homogeneous")) < 1.0

    def test_all_three_models(self, tmp_cache):
        (point,) = points(SweepSpec(decks=("32x16",), rank_counts=(4,)))
        assert set(point.predicted) == {
            "mesh-specific",
            "homogeneous",
            "heterogeneous",
        }

    def test_unknown_model_rejected(self, tmp_cache):
        with pytest.raises(ValueError, match="unknown model"):
            run_sweep(SweepSpec(decks=("32x16",), rank_counts=(4,), models=("psychic",)))


class TestScalingSweep:
    def test_power_of_two_counts(self, tmp_cache):
        result = points(SweepSpec.figure5(decks=("32x16",), max_ranks=8, max_side=256))
        assert [p.num_ranks for p in result] == [1, 2, 4, 8]

    def test_measured_strong_scales(self, tmp_cache):
        result = points(SweepSpec.figure5(decks=("64x32",), max_ranks=8, max_side=256))
        times = [p.measured for p in result]
        assert times[0] > times[-1]
