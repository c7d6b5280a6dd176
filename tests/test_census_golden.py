"""The workload census and its lowered op columns match their goldens.

``tests/goldens/workload_census.json`` (see
``tests/goldens/capture_census_golden.py``) records every boundary and
ghost link and the cell counts of fixed decks and partitions, and the
sha256 of every rank's lowered op columns for three small-deck runs.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

GOLDENS_DIR = Path(__file__).resolve().parent / "goldens"
GOLDEN = json.loads((GOLDENS_DIR / "workload_census.json").read_text())


def _load_capture_module():
    """Import the capture script from its file path (not a package module)."""
    spec = importlib.util.spec_from_file_location(
        "capture_census_golden", GOLDENS_DIR / "capture_census_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("capture_census_golden", module)
    spec.loader.exec_module(module)
    return module


capture = _load_capture_module()


def test_golden_covers_every_case():
    assert sorted(GOLDEN["census"]) == sorted(capture.CENSUS_CASES)
    assert sorted(GOLDEN["lowered"]) == sorted(capture.LOWERED_RUNS)


@pytest.mark.parametrize("name", sorted(capture.CENSUS_CASES))
def test_census_links_match_golden(name):
    assert capture.census_case(name) == GOLDEN["census"][name]


@pytest.mark.parametrize("name", sorted(capture.LOWERED_RUNS))
def test_lowered_columns_match_golden(name):
    assert capture.lowered_case(name) == GOLDEN["lowered"][name]


def test_dynamic_goldens_exercise_repartitioning():
    assert GOLDEN["lowered"]["dynamic"]["repartitions"] >= 1
    assert GOLDEN["lowered"]["failure_churn"]["repartitions"] >= 1
