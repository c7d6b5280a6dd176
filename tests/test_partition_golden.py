"""The multilevel partitioner reproduces its pinned partitions bitwise.

``tests/goldens/partitions.json`` (see
``tests/goldens/capture_partition_golden.py``) records the SHA-256 of
``cell_rank`` for deck partitions, weighted repartitions and random-graph
partitions, and the ``fm_refine`` cut and sides on the random graphs.  Any
change to matching, contraction or refinement that moves one vertex fails
here; such a change also moves every partition cache entry.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

GOLDENS_DIR = Path(__file__).resolve().parent / "goldens"
GOLDEN = json.loads((GOLDENS_DIR / "partitions.json").read_text())


def _load_capture_module():
    """Import the capture script from its file path (not a package module)."""
    spec = importlib.util.spec_from_file_location(
        "capture_partition_golden", GOLDENS_DIR / "capture_partition_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("capture_partition_golden", module)
    spec.loader.exec_module(module)
    return module


capture = _load_capture_module()


def _split(key: str) -> tuple:
    return tuple(int(p) if p.isdigit() else p for p in key.split("/"))


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == ["deck", "fm", "random", "weighted"]
    assert len(GOLDEN["deck"]) == len(capture.DECKS) * len(capture.DECK_RANKS)
    assert len(GOLDEN["random"]) == len(capture.RANDOM_SEEDS) * len(capture.RANDOM_RANKS)


@pytest.mark.parametrize("key", sorted(GOLDEN["deck"]))
def test_deck_partition(key):
    assert capture.deck_partition(*_split(key)) == GOLDEN["deck"][key]


@pytest.mark.parametrize("key", sorted(GOLDEN["weighted"]))
def test_weighted_repartition(key):
    assert capture.weighted(*_split(key)) == GOLDEN["weighted"][key]


@pytest.mark.parametrize("key", sorted(GOLDEN["random"]))
def test_random_graph_partition(key):
    assert capture.random_partition(*_split(key)) == GOLDEN["random"][key]


@pytest.mark.parametrize("key", sorted(GOLDEN["fm"]))
def test_fm_refine(key):
    assert capture.fm(*_split(key)) == GOLDEN["fm"][key]
