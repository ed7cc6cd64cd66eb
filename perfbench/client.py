"""The workload process: one closed-loop client of the srgforge CLI.

    python3 perfbench/client.py SCHEDULE.json

run.py builds the inputs and a schedule, then starts this script in a fresh
interpreter, so that its peak memory is that of the commands alone.  It
runs each pass of each round one command at a time, with the reference task
(reference.py) around each command and the layer trace installed on traced
passes, times `import srgforge.cli` in fresh interpreters between rounds,
and writes the results as JSON to the path the schedule names.
"""

from __future__ import annotations

import json
import resource
import sys

import reference
import run


def main(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        schedule = json.load(fh)
    cli = run.load_program()
    # the first calls of the reference task run cold and would read slow,
    # which would make the first command look fast
    for _ in range(3):
        reference.measure()
    setup = []
    tracer = None
    if schedule["trace"]:
        from layertrace import Tracer
        tracer = Tracer()

    passes = []
    for r, round_passes in enumerate(schedule["rounds"]):
        if r in schedule["probes"]:
            setup.append(run.import_seconds())
        for traced, cmds in round_passes:
            if traced:
                tracer.install()
            try:
                results = run.run_round(cli.main, cmds,
                                        tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            passes.append([traced, [vars(res) for res in results]])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup) < run.IMPORT_SAMPLES:
        setup.append(run.import_seconds())

    doc = {"passes": passes, "setup": setup, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        doc["layers"] = tracer.metrics()
        tracer.dump(schedule["spans"])
    with open(schedule["results"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
