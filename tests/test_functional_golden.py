"""Functional-mode Krak runs are pinned bitwise.

``tests/goldens/functional_run.json`` records, as hex floats, the final
diagnostics, final clocks and per-rank ``rho``/``energy``/``vx``/``x``
arrays of small functional runs (see
``tests/goldens/capture_functional_golden.py``).  The phase program's
numerics, ghost combines and collective plumbing must reproduce them to
the last bit.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

GOLDENS_DIR = Path(__file__).resolve().parent / "goldens"
GOLDEN = json.loads((GOLDENS_DIR / "functional_run.json").read_text())


def _load_capture_module():
    """Import the capture script from its file path (not a package module)."""
    spec = importlib.util.spec_from_file_location(
        "capture_functional_golden", GOLDENS_DIR / "capture_functional_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("capture_functional_golden", module)
    spec.loader.exec_module(module)
    return module


capture = _load_capture_module()


@pytest.mark.parametrize("ranks", capture.RANK_COUNTS)
def test_functional_run_bitwise(ranks):
    expected = GOLDEN["runs"][str(ranks)]
    got = capture.record(capture.functional_run(ranks))
    assert got["diagnostics"] == expected["diagnostics"]
    assert got["final_clocks"] == expected["final_clocks"]
    assert len(got["states"]) == ranks
    for rank, (mine, theirs) in enumerate(zip(got["states"], expected["states"])):
        for name in capture.FIELDS:
            assert mine[name] == theirs[name], (rank, name)

