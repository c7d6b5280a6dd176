"""Answer checking: every timed operation's result is compared, not just timed.

An answer is the JSON form of a result without its request: measured
seconds, per-model totals and phase breakdowns, and metadata.  JSON keeps
every float's exact value, so equality here is bitwise equality.

Answers are keyed by the benchmark's own hash of the request's canonical
JSON, so the reference files do not depend on the library's cache keys.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: The seed whose answers are kept in ``reference/``.
DEFAULT_SEED = 1


def normalize(value):
    """The value as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value, sort_keys=True))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def request_id(mode: str, request) -> str:
    """Stable id of a core request in ``mode`` (``predict``/``measure``)."""
    return digest(mode + " " + request.to_json())


def result_answer(result) -> dict:
    """The answer part of a :class:`repro.core.PredictionResult`."""
    payload = result.to_payload() if hasattr(result, "to_payload") else dict(result)
    payload.pop("request", None)
    return normalize(payload)


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int):
    """The kept answers for ``workload``, or ``None`` off the default seed."""
    if seed != DEFAULT_SEED:
        return None
    path = reference_path(workload)
    if not path.exists():
        raise FileNotFoundError(f"missing reference answers {path}")
    return json.loads(path.read_text())["answers"]


def save_reference(workload: str, answers: dict) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"workload": workload, "seed": DEFAULT_SEED, "answers": answers}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


class AnswerBook:
    """Checks answers against the reference, against earlier answers to
    the same request, and against independently computed answers.

    Every failed check is one failed operation and is listed in
    ``failures`` with a reason.
    """

    def __init__(self, reference: dict | None) -> None:
        self.reference = reference
        self.first: dict = {}
        self.labels: dict = {}
        self.failures: list = []

    def check(self, key: str, label: str, answer) -> bool:
        """Record ``answer``; ``False`` if any check fails."""
        answer = normalize(answer)
        self.labels.setdefault(key, label)
        first = self.first.setdefault(key, answer)
        if first != answer:
            return self.fail(label, "answer differs from an earlier answer")
        if self.reference is not None:
            kept = self.reference.get(key)
            if kept is None:
                return self.fail(label, "request missing from the reference")
            if kept != answer:
                return self.fail(label, "answer differs from the reference")
        return True

    def agree(self, key: str, answer) -> bool:
        """Compare an independently computed answer with the recorded one."""
        if self.first.get(key) != normalize(answer):
            return self.fail(self.labels.get(key, key), "answers disagree")
        return True

    def fail(self, label: str, reason: str) -> bool:
        self.failures.append(f"{label}: {reason}")
        return False
