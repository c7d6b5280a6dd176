"""Result goldens change only with a ``MODEL_VERSION`` bump.

Every content key carries :data:`repro.util.artifacts.MODEL_VERSION`, so a
cache entry is only as trustworthy as that number: a change that moves a
result must bump it, or caches written before the change keep answering
with the old result.  ``tests/goldens/fingerprints.json`` records, for the
version it names, a SHA-256 fingerprint of every top-level entry of each
JSON golden and of each text golden under ``tests/goldens``.  A golden that
no longer matches its fingerprint fails here until the version is bumped
and the fingerprints re-recorded::

    PYTHONPATH=src python tests/test_golden_fingerprints.py

Recording refuses to overwrite a changed fingerprint without a bump; new
entries (added cases) may be recorded at the same version.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.util.artifacts import MODEL_VERSION

GOLDENS_DIR = Path(__file__).resolve().parent / "goldens"
RECORD_PATH = GOLDENS_DIR / "fingerprints.json"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def current_fingerprints() -> dict:
    """``{golden: {entry: digest}}`` for JSON goldens, ``{golden: digest}``
    for text goldens, keyed by path relative to ``tests/goldens``."""
    prints = {}
    for path in sorted(GOLDENS_DIR.rglob("*")):
        name = path.relative_to(GOLDENS_DIR).as_posix()
        if path == RECORD_PATH or path.suffix not in (".json", ".txt"):
            continue
        if path.suffix == ".json":
            doc = json.loads(path.read_text())
            prints[name] = {
                key: _digest(json.dumps(value, sort_keys=True).encode())
                for key, value in sorted(doc.items())
            }
        else:
            prints[name] = _digest(path.read_bytes())
    return prints


def _flatten(prints: dict) -> dict:
    flat = {}
    for name, value in prints.items():
        if isinstance(value, dict):
            flat.update({f"{name}:{key}": d for key, d in value.items()})
        else:
            flat[name] = value
    return flat


def _changed(recorded: dict, current: dict) -> list:
    """Recorded entries whose golden is missing or differs now."""
    now = _flatten(current)
    return sorted(k for k, d in _flatten(recorded).items() if now.get(k) != d)


def test_record_is_for_this_model_version():
    record = json.loads(RECORD_PATH.read_text())
    assert record["model_version"] == MODEL_VERSION, (
        "MODEL_VERSION was bumped: re-record the golden fingerprints "
        "(python tests/test_golden_fingerprints.py)"
    )


def test_result_goldens_match_their_fingerprints():
    record = json.loads(RECORD_PATH.read_text())
    changed = _changed(record["fingerprints"], current_fingerprints())
    assert not changed, (
        f"result goldens changed without a MODEL_VERSION bump: {changed}; "
        "bump MODEL_VERSION in repro/util/artifacts.py, then re-record"
    )


def test_every_golden_is_recorded():
    recorded = _flatten(json.loads(RECORD_PATH.read_text())["fingerprints"])
    unrecorded = sorted(set(_flatten(current_fingerprints())) - set(recorded))
    assert not unrecorded, f"record fingerprints for new goldens: {unrecorded}"


def main() -> int:
    current = current_fingerprints()
    if RECORD_PATH.exists():
        record = json.loads(RECORD_PATH.read_text())
        changed = _changed(record["fingerprints"], current)
        if record["model_version"] == MODEL_VERSION and changed:
            print(
                f"goldens changed at MODEL_VERSION {MODEL_VERSION}: {changed}; "
                "bump MODEL_VERSION before re-recording",
                file=sys.stderr,
            )
            return 1
    record = {"model_version": MODEL_VERSION, "fingerprints": current}
    RECORD_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORD_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
