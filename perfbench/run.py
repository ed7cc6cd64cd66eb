"""Benchmark of the srgforge command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory.  This process builds the inputs from --seed
(workloads.py) and starts one fresh workload process (client.py): a single
closed-loop client that calls `srgforge.cli.main(argv)` one command at a
time, with a reference task (reference.py) before and after each command
so that its times can be scaled to a fixed host speed.  Afterwards this
process checks every output (check.py) and prints one JSON line of
metrics last.  With --trace 1 every round runs twice, once
plain and once with the layer trace (layertrace.py) installed, and the
per-layer metrics are printed instead.  Inputs and outputs live in a
scratch directory under .perfbench_tmp/ that is removed at exit; span dumps
go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IMPORT_SAMPLES = 7
CLIENT_TIMEOUT_S = 160
# a second seed kept out of tuning, for the "claim holds on an unseen seed"
# rule; use it only to confirm a result found with other seeds
HELD_OUT_SEED = 9176
IMPORT_PROBE = ("import time; t = time.perf_counter(); import srgforge.cli; "
                "print(time.perf_counter() - t)")


class SetupError(Exception):
    pass


@dataclass
class Result:
    rc: int | None
    out: str
    err: str
    seconds: float
    ref: float = 0.0       # reference time around the command (reference.py)
    error: str | None = None

    @property
    def scaled(self) -> float:
        return reference.scaled(self.seconds, self.ref)


def import_seconds() -> float:
    """Time `import srgforge.cli` in a fresh interpreter: the set-up cost
    every CLI invocation pays.  Unscaled: import time follows the host's
    speed only in part, and scaling it by the reference task made it
    scatter more, not less."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SetupError(f"cannot import srgforge.cli from {SRC}: "
                         f"{proc.stderr.strip().splitlines()[-1:]}")
    return float(proc.stdout)


def probe_points(rounds: int) -> list[int]:
    """Round boundaries at which the workload process takes its import
    samples, spread over the run so that a slow spell of the host does not
    meet all of them.  Boundary `rounds` is the end."""
    return sorted({round(i * rounds / (IMPORT_SAMPLES - 1))
                   for i in range(IMPORT_SAMPLES)})


def load_program():
    """Import srgforge.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "srgforge" / "cli.py").is_file():
        raise SetupError(f"no srgforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import srgforge.cli
    if Path(srgforge.cli.__file__).resolve().parent != SRC / "srgforge":
        raise SetupError(f"srgforge imported from {srgforge.cli.__file__}")
    return srgforge.cli


def run_command(main, argv, stdin: str) -> Result:
    """One CLI invocation in this process, stdio captured."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    rc, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:
        error = traceback.format_exc(limit=3)
    finally:
        seconds = time.perf_counter() - t0
        sys.stdin = saved_stdin
    return Result(rc, out.getvalue(), err.getvalue(), seconds, error=error)


def run_round(main, cmds, tracer=None) -> list[Result]:
    """Run (argv, pipe) pairs in order; a piped command reads the previous
    command's stdout.  The reference task runs before each command and after
    the last; a command's `ref` is the geometric mean of the two around it."""
    results = []
    prev = ""
    before = reference.measure()
    for argv, pipe in cmds:
        if tracer is not None:
            tracer.request += 1
        res = run_command(main, argv, prev if pipe else "")
        after = reference.measure()
        res.ref = math.sqrt(before * after)
        before = after
        prev = res.out
        results.append(res)
    return results


def hd_median(samples: list[float]) -> float:
    """Harrell-Davis estimate of the median: the mean of the order
    statistics weighted by a Beta((n+1)/2, (n+1)/2) density over their
    ranks.  A workload's commands form clusters of similar times; when the
    middle sample sits between two clusters, the plain median jumps from
    one to the other with noise, while this estimate moves smoothly."""
    ordered = sorted(samples)
    n = len(ordered)
    a = (n + 1) / 2
    steps = 16
    weights = []
    for i in range(n):
        # midpoint rule over rank interval [i/n, (i+1)/n]
        w = 0.0
        for j in range(steps):
            x = (i + (j + 0.5) / steps) / n
            w += math.exp((a - 1) * (math.log(4 * x) + math.log1p(-x)))
        weights.append(w)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail(samples: list[float]) -> tuple[float, float]:
    """(mean, percentile): the mean of the samples at and above the highest
    percentile with at least ten samples beyond it, i.e. of the eleven
    slowest (all of them when there are eleven or fewer).  A mean over the
    tail moves less from run to run than one order statistic does."""
    ordered = sorted(samples)
    idx = max(0, len(ordered) - 11)
    return (statistics.fmean(ordered[idx:]),
            100.0 * (idx + 1) / len(ordered))


def summarize(cmds, results, failures) -> dict:
    seconds = [r.scaled for r in results]
    correct = len(results) - len(failures)
    tail_s, tail_pct = tail(seconds)
    by_kind: dict[str, list[float]] = {}
    for cmd, res in zip(cmds, results):
        by_kind.setdefault(cmd.kind, []).append(res.scaled)
    return {"cmds_per_s": correct / sum(seconds),
            "latency_p50_s": hd_median(seconds),
            "plain_p50_s": statistics.median(seconds),
            "wall_p50_s": statistics.median(r.seconds for r in results),
            "ref_p50_s": statistics.median(r.ref for r in results),
            "latency_tail_s": tail_s, "tail_pct": tail_pct,
            "samples": len(seconds),
            "failed_frac": len(failures) / len(results),
            "by_kind": {k: statistics.median(v) for k, v in by_kind.items()}}


# per-subcommand medians reported for the workloads that run them
KIND_METRICS = {"gen-ddg": "gen_ddg_p50_s", "gen-srg1": "gen_srg1_p50_s",
                "gen-srg2": "gen_srg2_p50_s", "verify-pass": "verify_pass_p50_s",
                "verify-fail": "verify_fail_p50_s", "canon": "canon_p50_s",
                "count-classes": "count_classes_p50_s"}


def info(line: str) -> None:
    print(line, flush=True)


def benchmark(args) -> dict:
    load_program()
    import numpy
    import check
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    info(f"# workload {args.workload} seed {args.seed} trace {args.trace}; "
         f"one closed-loop client, one process, no extra threads; "
         f"nproc {os.cpu_count()}, python {sys.version.split()[0]}, "
         f"numpy {numpy.__version__}; held-out seed {HELD_OUT_SEED}")
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    out_dir = ROOT / ".perfbench_out"
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                 dir=scratch_root))
    try:
        plain = work / "plain"
        plain.mkdir()
        rounds = workloads.build(args.workload, args.seed, plain,
                                 workloads.rounds_for(args.workload,
                                                      args.seconds))
        passes = [(False, plain)]
        if args.trace:
            passes.append((True, work / "traced"))
            (work / "traced").mkdir()
            out_dir.mkdir(exist_ok=True)

        # every round runs once per pass; with the trace on, the plain and
        # traced passes alternate which goes first
        cmds = {False: [], True: []}
        schedule = []
        for r, round_cmds in enumerate(rounds):
            entry = []
            for traced, where in (passes if r % 2 == 0 else passes[::-1]):
                batch = [workloads.retarget(c, plain, where) for c in round_cmds]
                cmds[traced].extend(batch)
                entry.append([traced, [[c.argv, c.pipe] for c in batch]])
            schedule.append(entry)
        doc = run_client(work, {
            "trace": args.trace, "rounds": schedule,
            "probes": probe_points(len(rounds)),
            "results": str(work / "results.json"),
            "spans": str(out_dir / f"trace-{args.workload}-s{args.seed}.json")})
        results = {False: [], True: []}
        for traced, batch in doc["passes"]:
            results[traced].extend(Result(**res) for res in batch)

        # outputs are checked only now, after the timed loop
        failures = {}
        for traced, _ in passes:
            state: dict = {}
            for i, (cmd, res) in enumerate(zip(cmds[traced],
                                               results[traced])):
                why = check.check(cmd, res, state)
                if why is not None:
                    failures[traced, i] = f"{' '.join(cmd.argv)}: {why}"
        if args.trace:
            failures.update(_same_outputs(cmds[False], plain, work / "traced"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for why in list(failures.values())[:10]:
        info(f"# FAILED {why}")
    stats = {t: summarize(cmds[t], results[t], [k for k in failures if k[0] == t])
             for t, _ in passes}
    s = stats[False]
    setup = doc["setup"]
    info(f"# {s['samples']} commands; failed_frac {s['failed_frac']:.4f}; "
         f"latency_tail_s is the mean from p{s['tail_pct']:.1f} up; "
         f"setup_s samples {', '.join(f'{x:.4f}' for x in setup)}")
    info(f"# times are scaled to a reference time of {reference.NOMINAL_S} s; "
         f"measured reference median {s['ref_p50_s']:.6f} s; "
         f"unscaled latency p50 {s['wall_p50_s']:.6f} s; "
         f"plain median of scaled latency {s['plain_p50_s']:.6f} s")
    for kind, metric in KIND_METRICS.items():
        if kind in s["by_kind"]:
            info(f"# {metric} {s['by_kind'][kind]:.6f} s")
    out = {"correct": not failures,
           "attempted": sum(len(results[t]) for t, _ in passes),
           "failed": len({k for k in failures if isinstance(k[1], int)})}
    if not args.trace:
        out["metrics"] = {
            "cmds_per_s": {"value": s["cmds_per_s"], "unit": "1/s"},
            "latency_p50_s": {"value": s["latency_p50_s"], "unit": "s"},
            "latency_tail_s": {"value": s["latency_tail_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": doc["peak_rss_mb"], "unit": "MB"},
        }
        return out

    overhead = s["cmds_per_s"] - stats[True]["cmds_per_s"]
    layers = {k: tuple(v) for k, v in doc["layers"].items()}
    layers["trace.overhead_cmds_per_s"] = (overhead, "1/s")
    ranked = sorted(((v, k) for k, (v, _) in layers.items()
                     if k.endswith(".self_s")), reverse=True)
    for value, name in ranked[:6]:
        info(f"# self time {name} {value:.4f} s")
    info(f"# trace overhead {overhead:.4f} 1/s of {s['cmds_per_s']:.4f}")
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    return out


def run_client(work: Path, schedule: dict) -> dict:
    """Run the schedule in a fresh workload process (client.py)."""
    path = work / "schedule.json"
    path.write_text(json.dumps(schedule))
    proc = subprocess.run([sys.executable, str(HERE / "client.py"), str(path)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CLIENT_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed:\n{proc.stderr[-3000:]}")
    return json.loads(Path(schedule["results"]).read_text())


def _same_outputs(plain_cmds, plain: Path, traced: Path) -> dict:
    """Generator outputs must not depend on tracing, byte for byte."""
    failures = {}
    for cmd in plain_cmds:
        if "prefix" not in cmd.expect:
            continue
        name = Path(cmd.expect["prefix"]).name
        for suffix in (".g6", ".cert.json", ".manifest.json"):
            a, b = plain / (name + suffix), traced / (name + suffix)
            if not a.is_file() or not b.is_file() or \
                    a.read_bytes() != b.read_bytes():
                failures["tracing", name + suffix] = \
                    f"{name}{suffix} differs with tracing on"
    return failures


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        doc = benchmark(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
