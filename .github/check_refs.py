#!/usr/bin/env python3
"""Check every corpus case of every benchmark workload against bench/refs.

    python3 .github/check_refs.py [workload ...]

Runs each case of the workload corpora once, in this process, through the
benchmark's own harness and reference gate (bench/harness.py and
bench/refcheck.py), and prints one line per mismatch.  Exits 1 when any
case differs from its reference or its input no longer matches the
referenced one, 0 otherwise.  Unlike a timed ``bench/run.py`` smoke run,
which draws a sample of rounds, this covers the whole corpus.
"""

from __future__ import annotations

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))

import harness  # noqa: E402
import refcheck  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def check(name: str, main, workdir: str) -> int:
    """Number of cases of the workload that do not match their reference."""
    wl = WORKLOADS[name]
    refs = refcheck.load_refs(name)
    runner = harness.CaseRunner(main, os.path.join(workdir, name))
    bad = 0
    for index in range(wl.corpus_size):
        case = wl.case(index)
        ref = refs.get(str(index))
        if ref is None or ref["input_sha256"] != case.input_sha256():
            problems = ["input does not match the referenced one"]
        else:
            code, _, error = runner.run(case)
            problems = [error] if error is not None else refcheck.compare(
                ref, code, runner.report())
        if problems:
            bad += 1
            print(f"{name} case {index} ({case.stratum}): {problems[0]}")
    print(f"{name}: {wl.corpus_size - bad}/{wl.corpus_size} cases match")
    return bad


def main(argv: list[str]) -> int:
    run = harness.import_main()
    with tempfile.TemporaryDirectory(prefix="check-refs-") as workdir:
        bad = sum(check(name, run, workdir) for name in argv or WORKLOADS)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
