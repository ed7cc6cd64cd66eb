"""The scripts run end to end and print what they printed before.

Each script runs as a subprocess on this checkout's src; the pinned digests
are of their stdout, so a change to the Hoffman-coloring search, the clique
census or class counting that alters any table line shows here, and so does
any byte of the outputs the digest replay writes at (q, d) = (3, 2) and over
GF(8) and GF(9).  The timing script, layer_time.py, has one test per LAYER
(product, pair-kernel, graph6) on the shape of its JSON, and one on its
refusal of an unknown LAYER.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, digest", [
    pytest.param(
        "census_compare.py", ["--seeds", "1"],
        "3a41870d45bc8c6b58125a5a29f45892b52007cc13f86e096c2a23324523fc74",
        id="census_compare"),
    pytest.param(
        "class_diversity.py", ["--seeds", "4", "--colorings-per-base", "1"],
        "eda5eee30f4f50d15972c6c6e0518411feb1c6176e23debc7007ae71bd1a6a0b",
        id="class_diversity"),
    pytest.param(
        "replay_digests.py", ["--ladder", "3,2"],
        "1afb9133465918f19ddf11c7af5313263f5f15888720eb268220619d1a4619ae",
        id="replay_digests"),
])
def test_script_stdout_is_pinned(tmp_path, script, args, digest):
    result = _run(tmp_path, script, args)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest, \
        result.stdout


def _run(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)


def test_product_latency_reports_both_settings(tmp_path):
    """A small run prints, per thread setting and product shape, the
    median, the p99 and the count of slow calls; a bad N exits 2."""
    result = _run(tmp_path, "layer_time.py", ["product", "3"])
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["calls"] == 3
    for setting in ("one_thread", "default_threads"):
        assert sorted(report[setting]) == ["square_364", "tile_256x364x64"]
        for figures in report[setting].values():
            assert 0 < figures["median_ms"] <= figures["p99_ms"]
            assert 0 <= figures["over_1ms"] <= 3
    assert _run(tmp_path, "layer_time.py", ["product", "0"]).returncode == 2


def test_pair_kernel_time_reports_each_input(tmp_path):
    """A small run prints, per input, the quartiles and median of its
    first_bad_pair times and its first bad pair: none for the outputs,
    one for each 2-switched copy; a bad N exits 2."""
    result = _run(tmp_path, "layer_time.py", ["pair-kernel", "2"])
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report.pop("calls") == 2
    names = [f"{kind}({qd})" for qd in ("2,4", "3,3", "2,5", "4,3")
             for kind in "sd"]
    assert sorted(report) == sorted(names + [f"{name}-switched"
                                             for name in names])
    for name, figures in report.items():
        assert 0 < figures["q1_ms"] <= figures["median_ms"] <= figures["q3_ms"]
        assert (figures["bad_pair"] is None) == (name in names)
    assert _run(tmp_path, "layer_time.py",
                ["pair-kernel", "x"]).returncode == 2


def test_graph6_time_reports_each_input(tmp_path):
    """A small run prints, per input, its vertex count and the quartiles
    and median of its encode and decode times; a bad N exits 2."""
    result = _run(tmp_path, "layer_time.py", ["graph6", "2"])
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report.pop("calls") == 2
    assert sorted(report) == sorted(f"{kind}({qd})" for kind in "sd"
                                    for qd in ("2,4", "3,3", "2,5", "4,3"))
    for figures in report.values():
        assert 240 <= figures.pop("vertices") <= 1365
        assert sorted(figures) == ["decode", "encode"]
        for times in figures.values():
            assert 0 < times["q1_ms"] <= times["median_ms"] <= times["q3_ms"]
    assert _run(tmp_path, "layer_time.py", ["graph6", "0"]).returncode == 2


@pytest.mark.parametrize("args", [["spectrum", "2"], ["graph6"], [],
                                  ["product", "2", "3"]])
def test_layer_time_refuses_an_unknown_layer(tmp_path, args):
    """A LAYER other than pair-kernel, graph6 and product, or a missing or
    extra argument, exits 2 with the usage line and prints nothing."""
    result = _run(tmp_path, "layer_time.py", args)
    assert result.returncode == 2
    assert result.stderr.startswith(
        "usage: layer_time.py pair-kernel|graph6|product N")
    assert result.stdout == ""


def test_line_coverage_lists_unexecuted_statements(tmp_path):
    """Traced over the field tests alone, every module gets a count line:
    gf runs all but a few statements, canon none, and the header names the
    fixed hypothesis seed and says that subprocesses are not traced."""
    result = _run(tmp_path, "line_coverage.py",
                  ["-q", "-p", "no:cacheprovider",
                   str(ROOT / "tests" / "test_gf.py")])
    assert result.returncode == 0, result.stderr
    assert "hypothesis seed 0; tests run in subprocesses are not traced" \
        in result.stdout
    counts = {}
    for line in result.stdout.splitlines():
        name, sep, rest = line.partition(": ")
        if sep and rest.endswith(" statements not executed"):
            missed, _, total = rest.split()[:3]
            counts[Path(name).name] = int(missed), int(total)
    assert sorted(counts) == sorted(
        p.name for p in (ROOT / "src" / "srgforge").glob("*.py"))
    missed, total = counts["gf.py"]
    assert missed < total // 4
    missed, total = counts["canon.py"]
    assert missed == total > 0


def test_peak_memory_reports_the_child(tmp_path):
    """The child's exit code comes back, and stderr ends with one JSON line
    of its exit code, wall seconds and peak RSS; stdout is the child's:
    `bound` on a non-prime-power q exits 2, and `sp-graph` prints the
    same graph6 line as the command run directly."""
    result = _run(tmp_path, "peak_memory.py", ["bound", "--q", "6",
                                               "--d", "2"])
    assert result.returncode == 2
    *child, report = result.stderr.splitlines()
    assert child == ["srgforge: 6 is not a prime power"]
    report = json.loads(report)
    assert sorted(report) == ["exit", "peak_rss_mb", "wall_s"]
    assert report["exit"] == 2
    assert report["wall_s"] > 0 and report["peak_rss_mb"] > 0
    args = ["sp-graph", "--q", "2", "--d", "2"]
    result = _run(tmp_path, "peak_memory.py", args)
    assert result.returncode == 0, result.stderr
    direct = subprocess.run(
        [sys.executable, "-m", "srgforge.cli", *args], capture_output=True,
        text=True, cwd=tmp_path, env={**os.environ,
                                      "PYTHONPATH": str(ROOT / "src")})
    assert result.stdout == direct.stdout
    assert len(result.stdout.splitlines()) == 1
    assert json.loads(result.stderr)["exit"] == 0
