"""Re-capture the reference answers in ``perfbench/reference/``.

    python3 perfbench/capture_reference.py [--seconds 30] [workload ...]

Runs each workload at the default seed without a reference and keeps every
answer it checked.  Do this only when results change on purpose; the
reference is what lets a run at the default seed catch a wrong answer.
Capture for longer than the benchmark runs, so that every request a run
can issue is covered.
"""

from __future__ import annotations

import argparse
import sys

import answers
import checkout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    checkout.import_repro()
    import run
    import workloads

    for name in args.workloads or sorted(workloads.WORKLOADS):
        book = answers.AnswerBook(None)
        result = run.run_benchmark(name, answers.DEFAULT_SEED, args.seconds, False, book)
        if not result["correct"]:
            print(f"{name}: run failed its own checks; reference not written")
            return 1
        path = answers.save_reference(name, book.first)
        print(f"{name}: {len(book.first)} answers -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
