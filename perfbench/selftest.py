"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the output checker turns any one-bit corruption of a `.g6` or
`.cert.json` into a failure, that one seed always gives byte-identical
inputs, and that every `.g6`, `.cert.json` and `.manifest.json` is
byte-identical with the layer trace on and off (and that the trace links
nested calls to their callers).  Prints one line per test; exits 0 iff all
pass.  Scratch files go under .perfbench_tmp/ and are removed.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run

# check, workloads and layertrace import srgforge, so they are imported
# inside the tests, after main() has put this checkout's src/ on the path


def _scratch() -> Path:
    root = run.ROOT / ".perfbench_tmp"
    root.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selftest-", dir=root))


def _sample_commands(work: Path) -> list:
    """A generator of each kind, then canon and verify on their outputs."""
    import workloads
    gens = [workloads._gen("gen-ddg", 3, 2, 11, "random", work / "ddg"),
            workloads._gen("gen-srg1", 2, 3, 12, "cyclic", work / "srg1"),
            workloads.Cmd("gen-srg2", ("gen-srg2", "--base", "chang2",
                                       "--coloring", "1", "--out",
                                       str(work / "srg2")),
                          {"prefix": str(work / "srg2")})]
    reads = [workloads.Cmd("canon", ("canon", "--in", str(work / "srg1.g6")),
                           {"graph_id": "srg1", "n": 63, "copies": 1,
                            "aut": None}),
             workloads.Cmd("verify-pass", ("verify", "--expect", "ddg",
                                           "--classes", str(work / "ddg.classes"),
                                           "--in", str(work / "ddg.g6")),
                           {"kind": "ddg", "q": 3, "d": 2, "n": 36, "rc": 0})]
    return gens + reads


def _checked(cmds, results) -> list:
    import check
    state: dict = {}
    return [check.check(c, r, state) for c, r in zip(cmds, results)]


def test_corruption_detected(cli, work: Path) -> str | None:
    import check
    cmds = _sample_commands(work)
    gens = cmds[:3]
    results = run.run_round(cli.main, [(c.argv, c.pipe) for c in gens])
    if any(_checked(gens, results)):
        return f"clean outputs fail the checker: {_checked(gens, results)}"
    for cmd, res in zip(gens, results):
        for suffix in (".g6", ".cert.json"):
            path = Path(cmd.expect["prefix"] + suffix)
            clean = path.read_bytes()
            for bit in range(8 * len(clean)):
                bad = bytearray(clean)
                bad[bit // 8] ^= 1 << (bit % 8)
                path.write_bytes(bad)
                if check.check(cmd, res, {}) is None:
                    path.write_bytes(clean)
                    return f"{path.name}: flipping bit {bit} went unnoticed"
            path.write_bytes(clean)
    return None


def test_inputs_deterministic(cli, work: Path) -> str | None:
    import workloads
    for name in workloads.WORKLOADS:
        trees = []
        for copy in ("a", "b", "c"):
            where = work / f"{name}-{copy}"
            where.mkdir()
            seed = 5 if copy != "c" else 6
            rounds = workloads.build(name, seed, where, 2)
            files = {p.name: p.read_bytes() for p in sorted(where.iterdir())}
            argv = [[a.replace(str(where), "") for a in c.argv]
                    for r in rounds for c in r]
            trees.append((files, argv))
        if trees[0] != trees[1]:
            return f"{name}: one seed gave two different input sets"
        if trees[0] == trees[2]:
            return f"{name}: two seeds gave the same input set"
    return None


def test_trace_keeps_outputs(cli, work: Path) -> str | None:
    from layertrace import Tracer
    outputs = {}
    tracer = Tracer()
    for traced in (False, True):
        where = work / ("traced" if traced else "plain")
        where.mkdir()
        cmds = _sample_commands(where)
        if traced:
            tracer.install()
        try:
            results = run.run_round(cli.main, [(c.argv, c.pipe) for c in cmds],
                                    tracer if traced else None)
        finally:
            tracer.uninstall()
        failures = [f for f in _checked(cmds, results) if f]
        if failures:
            return f"checker failures with trace={traced}: {failures}"
        outputs[traced] = {p.name: p.read_bytes() for p in where.iterdir()
                           if p.name.endswith((".g6", ".cert.json",
                                               ".manifest.json"))}
    if outputs[False] != outputs[True]:
        return "outputs differ with tracing on"
    names = [s[0] for s in tracer.spans]
    links = {(names[s[1]], s[0]) for s in tracer.spans if s[1] is not None}
    for parent, child in (("srg.construct_srg1", "ddg.verify_ddg"),
                          ("graphs.graph6_decode", "graphs.Graph"),
                          ("srg.hoffman_colorings", "srg.verify_srg"),
                          ("cli.cmd_canon", "canon.canonical_form")):
        if (parent, child) not in links:
            return f"no {child} span under {parent}"
    if not tracer.calls.get("spectra.exact_spectrum"):
        return "exact_spectrum never traced"
    return None


def main() -> int:
    cli = run.load_program()
    failed = 0
    for test in (test_corruption_detected, test_inputs_deterministic,
                 test_trace_keeps_outputs):
        work = _scratch()
        try:
            why = test(cli, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{'PASS' if why is None else 'FAIL'} {test.__name__}"
              + (f": {why}" if why else ""), flush=True)
        failed += why is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
