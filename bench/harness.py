"""Import carleson_kit from this checkout and run one case at a time in process."""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(BENCH_DIR, "out")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no sources, wrong import, bad refs)."""


def import_main():
    """carleson_kit.cli.main from ``src/`` of this checkout, never an installed copy."""
    # One BLAS thread unless the caller says otherwise: reports are small
    # matrix work in a single-client loop, and the references were made so.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    package_dir = os.path.join(SRC, "carleson_kit")
    if not os.path.isfile(os.path.join(package_dir, "cli.py")):
        raise SetupError(f"no carleson_kit sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from carleson_kit import cli
    if os.path.dirname(os.path.abspath(cli.__file__)) != package_dir:
        raise SetupError(f"carleson_kit was imported from {cli.__file__}, not {package_dir}")
    return cli.main


def git_commit() -> str | None:
    """HEAD of the checkout read from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


class CaseRunner:
    """Writes case inputs once and runs ``main`` on them, one report at a time."""

    def __init__(self, main, workdir: str):
        self.main = main
        self.in_dir = os.path.join(workdir, "in")
        os.makedirs(self.in_dir, exist_ok=True)
        self.out_path = os.path.join(workdir, "report.json")
        self._inputs: dict[int, str] = {}

    def prepare(self, case) -> None:
        if case.index not in self._inputs:
            path = os.path.join(self.in_dir, f"{case.index}.json")
            with open(path, "wb") as fh:
                fh.write(case.input_bytes())
            self._inputs[case.index] = path

    def input_path(self, case) -> str:
        self.prepare(case)
        return self._inputs[case.index]

    def run(self, case, call=None) -> tuple:
        """(exit code or None, seconds, error text or None); ``call`` wraps main."""
        argv = case.argv(self.input_path(case), self.out_path)
        if os.path.exists(self.out_path):
            os.unlink(self.out_path)
        error = None
        start = perf_counter()
        try:
            code = self.main(argv) if call is None else call(self.main, argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed report, not a crashed run
            code, error = None, f"{type(exc).__name__}: {exc}"
        return code, perf_counter() - start, error

    def report(self):
        """The report the last run wrote, or None."""
        if not os.path.exists(self.out_path):
            return None
        with open(self.out_path) as fh:
            return json.load(fh)
