"""The mesh-specific model reproduces its pinned predictions bitwise.

``tests/goldens/mesh_model.json`` (see
``tests/goldens/capture_model_golden.py``) records hex floats of the four
predicted terms on every fuzz scenario and on the small deck, and the
sha256 of the placement pair costs on every SMP case.  Its ``weak``
entries are a record only and are not checked here.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

GOLDENS_DIR = Path(__file__).resolve().parent / "goldens"
GOLDEN = json.loads((GOLDENS_DIR / "mesh_model.json").read_text())


def _load_capture_module():
    """Import the capture script from its file path (not a package module)."""
    spec = importlib.util.spec_from_file_location(
        "capture_model_golden", GOLDENS_DIR / "capture_model_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("capture_model_golden", module)
    spec.loader.exec_module(module)
    return module


capture = _load_capture_module()


def test_golden_covers_every_case():
    assert sorted(int(s) for s in GOLDEN["fuzz"]) == list(capture.FUZZ_SEEDS)
    assert sorted(int(r) for r in GOLDEN["small_deck"]) == list(
        capture.SMALL_DECK_RANKS
    )


@pytest.mark.parametrize("seed", capture.FUZZ_SEEDS)
def test_fuzz_predictions_bitwise(seed):
    assert capture.fuzz_case(seed) == GOLDEN["fuzz"][str(seed)]


@pytest.mark.parametrize("seed", capture.FUZZ_SEEDS)
def test_fuzz_pair_times_bitwise(seed):
    assert capture.fuzz_pair_times(seed) == GOLDEN["pair_times"]["fuzz"][str(seed)]


@pytest.mark.parametrize("ranks", capture.SMALL_DECK_RANKS)
def test_small_deck_predictions_bitwise(ranks):
    assert capture.small_deck_case(ranks) == GOLDEN["small_deck"][str(ranks)]


@pytest.mark.parametrize("ranks", capture.SMALL_DECK_RANKS)
def test_small_deck_pair_times_bitwise(ranks):
    expected = GOLDEN["pair_times"]["small_deck"][str(ranks)]
    assert capture.small_deck_pair_times(ranks) == expected
