"""Reference reports and the correctness gate.

A reference records, per corpus case, what the program at the commit that
generated it produced: the input hash, the exit code, the check names and
outcomes, and the report ``quantities``.  A report matches when the exit
code and the checks are equal and every number in ``quantities`` agrees
within ``RTOL`` relative (with an ``ATOL`` floor for values near zero);
strings, booleans, ``null`` and the shape of the document must be equal.

RTOL is looser than the 1e-12 quoted for norms because quantities built
from ill-conditioned Gram matrices (condition numbers, minimality) can move
in the 11th digit when a refactor only reorders a sum: an inverse-Gram
minimality agreed with the QR loop to 1.2e-11.  A 1e-6 change is caught.
"""

from __future__ import annotations

import json
import math
import os

RTOL = 1e-9
ATOL = 1e-12

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


def refs_path(workload: str) -> str:
    return os.path.join(REFS_DIR, f"{workload}.json")


def load_refs(workload: str) -> dict:
    with open(refs_path(workload)) as fh:
        return json.load(fh)["cases"]


def summarize(exit_code: int, report: dict | None) -> dict:
    """The parts of one run that the gate compares."""
    entry = {"exit": exit_code}
    if report is not None:
        entry["checks"] = [[c["name"], c["passed"]] for c in report["checks"]]
        entry["quantities"] = report["quantities"]
    return entry


def _numbers_match(a, b) -> bool:
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def diff(expected, actual, path: str = "") -> list[str]:
    """Mismatches between two JSON values, as readable paths."""
    num = (int, float)
    if isinstance(expected, bool) or isinstance(actual, bool):
        return [] if expected is actual else [f"{path}: {expected!r} != {actual!r}"]
    if isinstance(expected, num) and isinstance(actual, num):
        return [] if _numbers_match(expected, actual) else [f"{path}: {expected!r} != {actual!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        out = []
        for key in expected:
            out.extend(diff(expected[key], actual[key], f"{path}.{key}"))
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out.extend(diff(e, a, f"{path}[{i}]"))
        return out
    return [] if expected == actual else [f"{path}: {expected!r} != {actual!r}"]


def compare(reference: dict, exit_code: int, report: dict | None) -> list[str]:
    """Mismatches of one report against its reference; empty means correct."""
    if exit_code != reference["exit"]:
        return [f"exit code {exit_code} != {reference['exit']}"]
    got = summarize(exit_code, report)
    if ("checks" in got) != ("checks" in reference):
        return ["report presence differs from the reference"]
    if "checks" not in got:
        return []
    if got["checks"] != reference["checks"]:
        return [f"checks {got['checks']} != {reference['checks']}"]
    return diff(reference["quantities"], got["quantities"], "quantities")
