"""Regenerate bench/refs/<workload>.json from the program as it stands.

Run once, at the commit whose outputs the correctness gate should hold
later commits to:

    python3 bench/make_refs.py [workload ...]

Every corpus case is run whatever its outcome; nothing is filtered.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from collections import defaultdict

import harness
import refcheck
from workloads import WORKLOADS


def make(name: str, main) -> None:
    wl = WORKLOADS[name]
    cases = {}
    seconds = defaultdict(float)
    os.makedirs(harness.OUT_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"refs-{name}-", dir=harness.OUT_ROOT)
    try:
        runner = harness.CaseRunner(main, workdir)
        for index in range(wl.corpus_size):
            case = wl.case(index)
            code, dt, error = runner.run(case)
            if error is not None:
                raise harness.SetupError(f"case {index} ({case.stratum}) raised {error}")
            entry = refcheck.summarize(code, runner.report())
            entry["input_sha256"] = case.input_sha256()
            entry["stratum"] = case.stratum
            cases[str(index)] = entry
            seconds[case.stratum] += dt
    finally:
        shutil.rmtree(workdir)
    doc = {"workload": name, "commit": harness.git_commit(),
           "rtol": refcheck.RTOL, "atol": refcheck.ATOL, "cases": cases}
    os.makedirs(refcheck.REFS_DIR, exist_ok=True)
    with open(refcheck.refs_path(name), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    exits = defaultdict(int)
    for entry in cases.values():
        exits[entry["exit"]] += 1
    print(f"{name}: {len(cases)} cases, exits {dict(exits)}")
    for stratum, total in seconds.items():
        print(f"  {stratum:24s} {total / wl.per_stratum:8.3f} s per case")


if __name__ == "__main__":
    main = harness.import_main()
    for name in sys.argv[1:] or WORKLOADS:
        make(name, main)
