"""End-to-end CLI goldens: every subcommand's stdout and exit code.

The goldens under ``tests/goldens/cli/`` were captured from the pre-split
``repro/cli.py`` monolith (see ``capture_cli_goldens.py``), so these tests
are the refactoring contract of the CLI package: each subcommand must
produce byte-identical output and the same exit code as the monolith did.
Wall-clock fragments are normalized by the capture tool's per-case
regexes; everything else — simulated times, table alignment, progress
lines — is compared exactly.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens" / "cli"


def _load_capture_module():
    """Import the capture tool from its file path (not a package module)."""
    spec = importlib.util.spec_from_file_location(
        "capture_cli_goldens", GOLDEN_DIR / "capture_cli_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("capture_cli_goldens", module)
    spec.loader.exec_module(module)
    return module


CAPTURE = _load_capture_module()


@pytest.mark.parametrize("case", CAPTURE.CASES, ids=lambda case: case.name)
def test_subcommand_output_matches_monolith_golden(case, tmp_path):
    text, code = CAPTURE.run_case(case, tmp_path)
    assert code == case.expected_exit
    golden = case.golden_path.read_text()
    assert text == golden, (
        f"`repro {' '.join(case.argv)}` output drifted from the pre-split "
        f"monolith golden {case.golden_path.name}; if the change is an "
        "intentional output change, regenerate with "
        "`PYTHONPATH=src python tests/goldens/cli/capture_cli_goldens.py`"
    )


def test_every_golden_file_has_a_case():
    cases = {case.name for case in CAPTURE.CASES}
    committed = {
        p.stem
        for p in GOLDEN_DIR.glob("*.txt")
    }
    assert committed == cases


def test_capture_leaves_committed_inputs_unchanged(tmp_path, monkeypatch):
    """The scenario and trace are inputs: a capture writes them only when
    they are missing, never over the committed, fingerprinted files."""
    committed = {}
    for name in ("SCENARIO_PATH", "TRACE_PATH"):
        path = getattr(CAPTURE, name)
        committed[name] = path.read_bytes()
        monkeypatch.setattr(CAPTURE, name, tmp_path / path.name)
        (tmp_path / path.name).write_bytes(committed[name])
    CAPTURE.ensure_scenario()
    CAPTURE.ensure_trace()
    for name, data in committed.items():
        assert getattr(CAPTURE, name).read_bytes() == data


def test_capture_writes_a_missing_scenario(tmp_path, monkeypatch):
    monkeypatch.setattr(CAPTURE, "SCENARIO_PATH", tmp_path / "scenario.json")
    CAPTURE.ensure_scenario()
    assert (tmp_path / "scenario.json").stat().st_size > 0


def test_capture_help_prints_usage_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exited:
        CAPTURE.main(["--help"])
    assert exited.value.code == 0
    assert "usage:" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
