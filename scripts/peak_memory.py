#!/usr/bin/env python3
"""Run one srgforge command in a fresh interpreter and report its cost.

    PYTHONPATH=src python3 scripts/peak_memory.py ARGS...

runs `python -m srgforge.cli ARGS...` as a child process with this
interpreter, this environment, stdin, stdout and working directory, waits
for it, and prints one JSON line to stderr: the child's exit code, its wall
seconds and its peak resident set size (`ru_maxrss` of the waited child,
in MB of 1024 KB, as the benchmark reports `peak_rss_mb`).  The report goes
to stderr so that the command's stdout can still be piped or redirected:

    PYTHONPATH=src python3 scripts/peak_memory.py gen-srg1 --q 2 --d 6 \\
        --seed 0 --out s26 > /dev/null
    PYTHONPATH=src python3 scripts/peak_memory.py spectrum \\
        --srg 4095,2048,1024,1024 --in s26.g6

The script exits with the command's exit code.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    code = subprocess.run([sys.executable, "-m", "srgforge.cli",
                           *argv]).returncode
    seconds = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(json.dumps({"exit": code, "wall_s": round(seconds, 3),
                      "peak_rss_mb": round(rss, 1)}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
