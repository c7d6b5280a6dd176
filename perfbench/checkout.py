"""Locate the checkout the benchmark runs in and import ``repro`` from it.

The benchmark always measures the sources next to it (``<root>/src``),
never an installed copy.  Without those sources it exits with code 2.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space for caches and stores; each run removes what it made.
WORK = ROOT / ".bench_tmp"


def import_repro():
    """Put ``<root>/src`` first on ``sys.path`` and import ``repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    return repro


def child_env(cache_dir: Path) -> dict:
    """Environment for a child process: its own cache root, the checkout's
    sources on the path, and the temp dir of the parent."""
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(SRC)
    return env


def fresh_dir(parent: Path, prefix: str) -> Path:
    """A new empty directory under ``parent``."""
    parent.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=parent))
