"""One set-up sample in a fresh interpreter: import carleson_kit, run one report.

    python3 bench/setup_probe.py SRC_DIR ARGV_JSON

Prints {"seconds": ..., "anchor_s": ..., "exit": ...}.  The clock starts
before the import, after interpreter start-up, so it measures what a caller
of the library pays on top of Python itself.  ``anchor_s`` is the median
host anchor (see hostclock.py) taken afterwards in the same process.
"""

import json
import sys
from time import perf_counter

if __name__ == "__main__":
    start = perf_counter()
    sys.path.insert(0, sys.argv[1])
    from carleson_kit.cli import main

    code = main(json.loads(sys.argv[2]))
    seconds = perf_counter() - start

    import hostclock

    print(json.dumps({"seconds": seconds, "anchor_s": hostclock.anchor_median(),
                      "exit": code}))
