"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_validate_defaults(self):
        args = build_parser().parse_args(["validate"])
        assert args.deck == "small"
        assert args.ranks == 16
        assert not args.smp

    def test_phase_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["calibrate", "--phase", "16"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--deck", "small"]) == 0
        out = capsys.readouterr().out
        assert "3200" in out
        assert "MPI_Allreduce" in out
        assert "synchronisation points: 22" in out

    def test_info_custom_deck(self, capsys):
        assert main(["info", "--deck", "16x8"]) == 0
        assert "128" in capsys.readouterr().out

    def test_calibrate(self, capsys):
        assert main(["calibrate", "--max-side", "8", "--phase", "2"]) == 0
        out = capsys.readouterr().out
        assert "per-cell cost" in out
        assert "HE Gas" in out

    def test_validate(self, capsys):
        assert main(["validate", "--deck", "16x8", "--ranks", "4", "--max-side", "16"]) == 0
        out = capsys.readouterr().out
        assert "measured" in out
        assert "transition" in out
        assert "general homogeneous" in out

    def test_validate_smp(self, capsys):
        assert (
            main(
                [
                    "validate",
                    "--deck",
                    "16x8",
                    "--ranks",
                    "4",
                    "--max-side",
                    "16",
                    "--smp",
                ]
            )
            == 0
        )
        assert "smp4" in capsys.readouterr().out

    def test_sweep(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--deck",
                    "32x16",
                    "--max-ranks",
                    "4",
                    "--max-side",
                    "16",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "strong scaling" in out
        # P = 1, 2, 4 rows present.
        assert out.count("\n") >= 7


class TestSweepSubcommands:
    RUN_ARGS = [
        "sweep",
        "run",
        "--decks",
        "16x8",
        "--ranks",
        "1,2",
        "--max-side",
        "16",
    ]
    STATUS_ARGS = [
        "sweep",
        "status",
        "--decks",
        "16x8",
        "--ranks",
        "1,2",
        "--max-side",
        "16",
    ]

    def test_run_then_resume(self, capsys):
        assert main(self.RUN_ARGS) == 0
        out = capsys.readouterr().out
        assert "2 simulated, 0 from store" in out
        assert "16x8 deck" in out

        # Second invocation replays everything from the store.
        assert main(self.RUN_ARGS) == 0
        out = capsys.readouterr().out
        assert "0 simulated, 2 from store" in out

    def test_run_parallel(self, capsys):
        assert main(self.RUN_ARGS + ["--jobs", "2", "--quiet"]) == 0
        assert "2 simulated" in capsys.readouterr().out

    def test_run_no_cache_never_stores(self, capsys):
        assert main(self.RUN_ARGS + ["--no-cache"]) == 0
        capsys.readouterr()
        assert main(self.STATUS_ARGS) == 0
        out = capsys.readouterr().out
        assert "completed      0" in out

    def test_status_and_clear(self, capsys):
        assert main(self.STATUS_ARGS) == 0
        assert "pending      2" in capsys.readouterr().out
        assert main(self.RUN_ARGS + ["--quiet"]) == 0
        capsys.readouterr()
        assert main(self.STATUS_ARGS) == 0
        assert "completed      2" in capsys.readouterr().out
        assert main(["sweep", "clear", *self.STATUS_ARGS[2:], "--partitions"]) == 0
        assert "removed 2 stored sweep points" in capsys.readouterr().out
        assert main(self.STATUS_ARGS) == 0
        assert "completed      0" in capsys.readouterr().out

    def test_clear_removes_only_its_grid(self, capsys):
        other = ["--decks", "16x8", "--ranks", "4", "--max-side", "16"]
        assert main(self.RUN_ARGS + ["--quiet"]) == 0
        assert main(["sweep", "run", *other, "--quiet"]) == 0
        capsys.readouterr()
        assert main(["sweep", "clear", *self.STATUS_ARGS[2:]]) == 0
        assert "removed 2 stored sweep points" in capsys.readouterr().out
        assert main(["sweep", "status", *other]) == 0
        assert "completed      1" in capsys.readouterr().out


class TestCalibrateErrors:
    @pytest.mark.parametrize("command", ["fit", "report"])
    def test_unfittable_trace_is_an_error_line(self, tmp_path, capsys, command):
        """A trace with no ping-pong ladder exits with ``error: …``, not a
        traceback."""
        import json

        assert main([
            "calibrate", "synth", "--deck", "16x8", "--ranks", "2",
            "--jitter", "0", "--out", str(tmp_path / "trace.json"),
        ]) == 0
        path = tmp_path / "trace.json"
        payload = json.loads(path.read_text())
        payload["pingpong"] = []
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["calibrate", command, str(path)])
        assert str(exit_info.value.code).startswith("error: ")
        assert capsys.readouterr().out == ""


class TestSweepGridErrors:
    """An invalid grid is refused by its requests' own checks, as
    ``error: …``, before any point runs."""

    GRID = ["--decks", "16x8", "--ranks", "4", "--max-side", "16"]
    PLACEMENT_WITHOUT_SMP = GRID + ["--placements", "comm-aware"]
    CHURN_WITH_STATIC = GRID + [
        "--dynamic", "static,every:2", "--dyn-iterations", "4",
        "--perturb", "churn:0.2",
    ]
    ZERO_PERIOD = GRID + ["--dynamic", "every:0", "--dyn-iterations", "4"]
    BURN_BELOW_ONE = GRID + [
        "--dynamic", "never", "--burn-mult", "0.5", "--dyn-iterations", "4",
    ]

    @pytest.mark.parametrize("command", ["run", "status", "clear"])
    @pytest.mark.parametrize(
        "grid, message",
        [
            (PLACEMENT_WITHOUT_SMP, "error: a placement requires an SMP cluster"),
            (CHURN_WITH_STATIC, "error: churn_prob requires a dynamic workload"),
            (ZERO_PERIOD, "error: period must be >= 1, got 0"),
            (BURN_BELOW_ONE, "error: burn_multiplier must be >= 1"),
        ],
        ids=[
            "placement-without-smp", "churn-with-static", "zero-period",
            "burn-below-one",
        ],
    )
    def test_refused_before_any_point(self, capsys, command, grid, message):
        from repro.analysis import prediction_store

        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", command] + grid)
        assert str(exit_info.value.code).startswith(message)
        assert capsys.readouterr().out == ""
        assert prediction_store().keys() == []


class TestDynamicSweepCLI:
    DYN_ARGS = [
        "sweep",
        "run",
        "--decks",
        "16x8",
        "--ranks",
        "2",
        "--max-side",
        "16",
        "--models",
        "homogeneous",
        "--dynamic",
        "static,imbalance:1.15",
        "--dyn-iterations",
        "4",
    ]

    def test_dynamic_axis_runs_and_labels(self, capsys):
        assert main(self.DYN_ARGS) == 0
        out = capsys.readouterr().out
        assert "2 simulated, 0 from store" in out
        assert "static" in out
        assert "dyn[imbalance:1.15,x4]" in out

    def test_dynamic_axis_resumes(self, capsys):
        assert main(self.DYN_ARGS) == 0
        capsys.readouterr()
        assert main(self.DYN_ARGS) == 0
        assert "0 simulated, 2 from store" in capsys.readouterr().out

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit) as exit_info:
            main(
                self.DYN_ARGS[:-4]
                + ["--dynamic", "sometimes", "--dyn-iterations", "4"]
            )
        assert str(exit_info.value.code).startswith(
            "error: unknown repartition policy 'sometimes'"
        )
