"""Sweep points reproduce their pinned validation payloads bitwise.

``tests/goldens/sweep_points.json`` (see
``tests/goldens/capture_sweep_golden.py``) records the ``ValidationPoint``
payload of every point of a grid that covers both partitioners, the three
sweep models and a measurement-only point, a dynamic workload, an SMP
machine with comm-aware placement, and noise, straggler and churn
perturbations.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

GOLDENS_DIR = Path(__file__).resolve().parent / "goldens"
GOLDEN = json.loads((GOLDENS_DIR / "sweep_points.json").read_text())


def _load_capture_module():
    """Import the capture script from its file path (not a package module)."""
    spec = importlib.util.spec_from_file_location(
        "capture_sweep_golden", GOLDENS_DIR / "capture_sweep_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("capture_sweep_golden", module)
    spec.loader.exec_module(module)
    return module


capture = _load_capture_module()


@pytest.fixture(autouse=True)
def tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(capture.CASES)


def test_sweep_points_match_golden():
    assert capture.capture() == GOLDEN
