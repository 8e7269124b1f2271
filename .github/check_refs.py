#!/usr/bin/env python3
"""Check every corpus case of every benchmark workload against bench/refs.

    python3 .github/check_refs.py [workload ...]

Runs each case of the workload corpora once, in this process, through the
benchmark's own harness and reference gate (bench/harness.py and
bench/refcheck.py), and prints one line per mismatch.  Exits 1 when any
case differs from its reference or its input no longer matches the
referenced one, 0 otherwise.  Unlike a timed ``bench/run.py`` smoke run,
which draws a sample of rounds, this covers the whole corpus.

Each workload's summary line also gives one sha256 over every case's exit
code and report bytes, in corpus order.  Equal digests from two checkouts
run on one machine show that their corpus reports are byte-identical,
which the reference gate's tolerances alone do not.  Next to the digest
stands the largest relative deviation |a - b| / max(|a|, |b|) of any
report quantity from its reference, with its case, stratum and path, so a
refactor states how far its numbers moved.  Numbers are what the gate
compares as numbers, and a pair within the gate's ATOL floor counts as no
deviation, so values near zero do not dominate.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))

import harness  # noqa: E402
import refcheck  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def report_bytes(runner) -> bytes | None:
    """The bytes of the report the last run wrote, or None."""
    if not os.path.exists(runner.out_path):
        return None
    with open(runner.out_path, "rb") as fh:
        return fh.read()


def deviations(expected, actual, path: str = "quantities"):
    """(relative deviation, path) of every number pair of two JSON values.

    The walk follows ``refcheck.diff``: booleans are not numbers, and parts
    whose shapes differ are left to the gate's own mismatch lines.
    """
    num = (int, float)
    if isinstance(expected, bool) or isinstance(actual, bool):
        return
    if isinstance(expected, num) and isinstance(actual, num):
        gap = abs(expected - actual)
        if not (math.isfinite(expected) and math.isfinite(actual)):
            gap = 0.0 if expected == actual else math.inf
        if gap > refcheck.ATOL:
            yield gap / max(abs(expected), abs(actual)), path
    elif isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() == actual.keys():
            for key in expected:
                yield from deviations(expected[key], actual[key], f"{path}.{key}")
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) == len(actual):
            for i, (e, a) in enumerate(zip(expected, actual)):
                yield from deviations(e, a, f"{path}[{i}]")


def check(name: str, main, workdir: str) -> int:
    """Number of cases of the workload that do not match their reference."""
    wl = WORKLOADS[name]
    refs = refcheck.load_refs(name)
    runner = harness.CaseRunner(main, os.path.join(workdir, name))
    digest = hashlib.sha256()
    bad = 0
    worst = (0.0, "")
    for index in range(wl.corpus_size):
        case = wl.case(index)
        code, _, error = runner.run(case)
        raw = report_bytes(runner)
        # the length prefix keeps the boundaries between cases in the digest
        digest.update(f"{code} {-1 if raw is None else len(raw)}\n".encode())
        digest.update(raw or b"")
        ref = refs.get(str(index))
        if ref is None or ref["input_sha256"] != case.input_sha256():
            problems = ["input does not match the referenced one"]
        else:
            report = runner.report()
            problems = [error] if error is not None else refcheck.compare(ref, code, report)
            if report is not None and "quantities" in ref:
                for rel, path in deviations(ref["quantities"], report["quantities"]):
                    if rel > worst[0]:
                        worst = (rel, f" (case {index}, {case.stratum}, {path})")
        if problems:
            bad += 1
            print(f"{name} case {index} ({case.stratum}): {problems[0]}")
    print(f"{name}: {wl.corpus_size - bad}/{wl.corpus_size} cases match, "
          f"reports sha256 {digest.hexdigest()}, "
          f"largest relative deviation {worst[0]:.3g}{worst[1]}")
    return bad


def main(argv: list[str]) -> int:
    run = harness.import_main()
    with tempfile.TemporaryDirectory(prefix="check-refs-") as workdir:
        bad = sum(check(name, run, workdir) for name in argv or WORKLOADS)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
