"""Regenerate the end-to-end CLI goldens.

Run from the repository root::

    PYTHONPATH=src python tests/goldens/cli/capture_cli_goldens.py [OUTPUT_DIR]

``OUTPUT_DIR`` defaults to this directory.

Each case in :data:`CASES` invokes ``repro.cli.main`` with a fixed argv in
an isolated cache directory and records the exact stdout (after the case's
normalizers strip genuinely non-deterministic fragments such as wall-clock
columns) plus the exit code.  ``tests/test_cli_golden.py`` replays every
case and requires byte-for-byte equality, which is what lets a CLI-layer
refactor claim "output unchanged" about every subcommand instead of
spot-checking a few substrings.

The goldens were first captured from the pre-split ``repro/cli.py``
monolith, so they also pin the package split against the monolith's
behaviour.  Only regenerate after an *intentional* output change.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent

#: A committed scenario file so ``verify diff`` replays a fixed input.
SCENARIO_PATH = GOLDEN_DIR / "scenario_seed3.json"

#: A committed noise-free trace so ``calibrate fit``/``report`` replay a
#: fixed external document.
TRACE_PATH = GOLDEN_DIR / "trace_16x8.json"

#: Wall-clock seconds rendered as the last cell of a table row.
_TRAILING_WALL = (re.compile(r"\d+\.\d\d(\s*)$", re.MULTILINE), r"<WALL>\1")
#: ``(built in 0.12s)``-style inline wall-clock fragments.
_BUILT_IN = (re.compile(r"built in \d+\.\d+s"), "built in <WALL>s")
#: Absolute paths under the goldens directory (checkout-dependent).
_GOLDEN_PATH = (re.compile(re.escape(str(GOLDEN_DIR))), "<GOLDENS>")


@dataclass(frozen=True)
class CliCase:
    """One golden CLI invocation."""

    name: str
    argv: tuple
    #: ``(compiled regex, replacement)`` pairs applied to stdout before
    #: comparison — only for genuinely non-deterministic fragments.
    normalizers: tuple = field(default_factory=tuple)
    expected_exit: int = 0

    @property
    def golden_path(self) -> Path:
        return GOLDEN_DIR / f"{self.name}.txt"

    def normalize(self, text: str) -> str:
        for pattern, replacement in self.normalizers:
            text = pattern.sub(replacement, text)
        return text


CASES = (
    CliCase("info", ("info", "--deck", "small")),
    CliCase("info_custom_deck", ("info", "--deck", "16x8")),
    CliCase("calibrate", ("calibrate", "--max-side", "8", "--phase", "2")),
    CliCase(
        "calibrate_fit",
        ("calibrate", "fit", str(TRACE_PATH), "--no-store"),
        normalizers=(_GOLDEN_PATH,),
    ),
    CliCase(
        "calibrate_report",
        ("calibrate", "report", str(TRACE_PATH), "--max-error", "1"),
        normalizers=(_GOLDEN_PATH,),
    ),
    CliCase(
        "validate",
        ("validate", "--deck", "16x8", "--ranks", "4", "--max-side", "16"),
    ),
    CliCase(
        "validate_smp",
        ("validate", "--deck", "16x8", "--ranks", "4", "--max-side", "16", "--smp"),
    ),
    CliCase(
        "sweep_legacy",
        ("sweep", "--deck", "16x8", "--max-ranks", "4", "--max-side", "16"),
    ),
    CliCase(
        "sweep_run",
        ("sweep", "run", "--decks", "16x8", "--ranks", "1,2", "--max-side", "16"),
    ),
    CliCase(
        "sweep_status",
        ("sweep", "status", "--decks", "16x8", "--ranks", "1,2", "--max-side", "16"),
    ),
    CliCase("sweep_clear", ("sweep", "clear")),
    CliCase(
        "scale",
        ("scale", "--ranks", "64,256", "--cells-per-rank", "64"),
        normalizers=(_TRAILING_WALL,),
    ),
    CliCase(
        "place_compare",
        (
            "place", "compare", "--deck", "16x8", "--ranks", "8",
            "--strategies", "block,round-robin,comm-aware",
        ),
    ),
    CliCase(
        "place_optimize",
        ("place", "optimize", "--deck", "16x8", "--ranks", "8", "--show-map"),
    ),
    CliCase(
        "place_scale",
        ("place", "scale", "--ranks", "256", "--cells-per-rank", "64"),
        normalizers=(_BUILT_IN, _TRAILING_WALL),
    ),
    CliCase("verify_diff", ("verify", "diff", str(SCENARIO_PATH))),
    CliCase("verify_fuzz", ("verify", "fuzz", "--seeds", "2", "--quiet")),
    CliCase("bench_list", ("bench", "list")),
    CliCase("serve_check", ("serve", "--check", "--check-queries", "4")),
)


def run_case(case: CliCase, cache_dir: Path) -> tuple[str, int]:
    """Execute one case in an isolated cache; returns (stdout, exit code)."""
    from repro.cli import main

    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = main(list(case.argv))
    finally:
        if previous is None:
            del os.environ["REPRO_CACHE_DIR"]
        else:
            os.environ["REPRO_CACHE_DIR"] = previous
    return case.normalize(buffer.getvalue()), code


def ensure_scenario() -> None:
    """Write the ``verify diff`` input scenario if it is missing.

    The committed file is an input and is fingerprinted, so a capture
    never rewrites it.
    """
    from repro.verify.scenarios import random_scenario, save_scenario

    if not SCENARIO_PATH.exists():
        save_scenario(random_scenario(3), SCENARIO_PATH)


def ensure_trace() -> None:
    """Write the ``calibrate fit``/``report`` input trace if it is missing.

    Noise-free (zero jitter), so the fit recovers the generating machine
    exactly and the report shows zero error — any model/engine drift shows
    up as a non-zero error column.  Like the scenario, the committed file
    is an input that a capture never rewrites.
    """
    from repro.machine.cluster import es45_like_cluster
    from repro.trace import save_trace, synthesize_trace

    if TRACE_PATH.exists():
        return
    doc = synthesize_trace(
        deck="16x8",
        ranks=(2, 4),
        cluster=es45_like_cluster(jitter_frac=0.0),
        iterations=4,
        warmup=1,
    )
    save_trace(doc, TRACE_PATH)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the end-to-end CLI goldens.")
    parser.add_argument(
        "output_dir", nargs="?", type=Path, default=GOLDEN_DIR,
        help="directory for the captured .txt goldens (default: %(default)s)",
    )
    output_dir = parser.parse_args(argv).output_dir
    output_dir.mkdir(parents=True, exist_ok=True)
    ensure_scenario()
    ensure_trace()
    for case in CASES:
        with tempfile.TemporaryDirectory() as cache:
            text, code = run_case(case, Path(cache))
        if code != case.expected_exit:
            print(f"{case.name}: unexpected exit code {code}", file=sys.stderr)
            return 1
        (output_dir / f"{case.name}.txt").write_text(text)
        print(f"captured {case.name} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
