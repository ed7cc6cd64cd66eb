"""Command-line behavior: exit codes, files, manifests, composition."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from srgforge import graph6_decode, graph6_encode, petersen_graph
from srgforge.cli import main


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_gen_ddg_writes_outputs(workdir, capsys):
    rc = main(["gen-ddg", "--q", "2", "--d", "2", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    g = graph6_decode(out)
    assert g.n == 12
    prefix = workdir / "ddg-q2-d2-s1"
    for suffix in (".g6", ".classes", ".cert.json", ".manifest.json",
                   ".quasigroup", ".family"):
        assert (workdir / (prefix.name + suffix)).exists()
    cert = json.loads((workdir / "ddg-q2-d2-s1.cert.json").read_text())
    assert cert["ddg"]["passed"] is True
    assert cert["ddg"]["parameters"] == {
        "v": 12, "k": 6, "lambda1": 2, "lambda2": 3, "m": 3, "n": 4}
    assert cert["f_sum_ok"] is True
    manifest = json.loads(
        (workdir / "ddg-q2-d2-s1.manifest.json").read_text())
    assert manifest["command"] == "gen-ddg"
    assert manifest["seed"] == 1
    assert manifest["outputs"]["graph"]["path"] == "ddg-q2-d2-s1.g6"
    assert "canonical" in manifest["outputs"]["graph"]


def test_gen_srg1_then_verify(workdir, capsys):
    rc = main(["gen-srg1", "--q", "3", "--d", "2", "--seed", "7",
               "--out", "run"])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert graph6_decode(line).n == 40
    rc = main(["verify", "--expect", "srg", "--in", "run.g6",
               "--cert", "vcert.json"])
    assert rc == 0
    cert = json.loads((workdir / "vcert.json").read_text())
    assert cert["parameters"] == {"v": 40, "k": 27, "lambda": 18, "mu": 18}
    doc = json.loads((workdir / "run.cert.json").read_text())
    assert doc["cases"]["passed"] is True


def test_verify_expectations(workdir, capsys):
    (workdir / "pet.g6").write_text(graph6_encode(petersen_graph()) + "\n")
    assert main(["verify", "--in", "pet.g6"]) == 0
    capsys.readouterr()

    classes = "\n".join(" ".join(str(v) for v in range(i, 10, 2))
                        for i in range(2))
    (workdir / "pet.classes").write_text(classes + "\n")
    rc = main(["verify", "--expect", "ddg", "--in", "pet.g6",
               "--classes", "pet.classes"])
    assert rc == 1
    capsys.readouterr()

    assert main(["verify", "--expect", "ddg", "--in", "pet.g6"]) == 2


def test_usage_errors(workdir, capsys):
    (workdir / "bad.g6").write_text("!!!not graph6!!!\n")
    assert main(["verify", "--in", "bad.g6"]) == 2
    capsys.readouterr()

    # both directions given but not inverse to each other
    (workdir / "fam.txt").write_text("0 1 : 1 2 0\n1 0 : 1 2 0\n")
    rc = main(["gen-ddg", "--q", "3", "--d", "2", "--seed", "0",
               "--family", "file:fam.txt"])
    assert rc == 2
    capsys.readouterr()

    (workdir / "fam2.txt").write_text("0 1 : 1 2 0\n0 1 : 2 0 1\n")
    rc = main(["gen-ddg", "--q", "3", "--d", "2", "--seed", "0",
               "--family", "file:fam2.txt"])
    assert rc == 2
    capsys.readouterr()

    rc = main(["gen-ddg", "--q", "2", "--d", "2", "--seed", "0",
               "--quasigroup", "nonsense"])
    assert rc == 2
    capsys.readouterr()

    assert main(["gen-srg2", "--base", "mystery", "--design", "fano"]) == 2
    capsys.readouterr()


def test_certificates_stay_off_stdout(workdir, capsys):
    rc = main(["gen-srg1", "--q", "2", "--d", "2", "--seed", "2",
               "--out", "x"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 1
    assert graph6_decode(lines[0]).n == 15


def test_replay_is_byte_identical(workdir, capsys):
    for sub in ("a", "b"):
        d = workdir / sub
        d.mkdir()
    argv = ["gen-ddg", "--q", "3", "--d", "2", "--seed", "42",
            "--quasigroup", "random", "--family", "random"]
    for sub in ("a", "b"):
        os.chdir(workdir / sub)
        assert main(argv) == 0
    capsys.readouterr()
    names = sorted(p.name for p in (workdir / "a").iterdir())
    assert names == sorted(p.name for p in (workdir / "b").iterdir())
    for name in names:
        assert (workdir / "a" / name).read_bytes() == \
            (workdir / "b" / name).read_bytes()
    os.chdir(workdir)


def test_gen_srg2_and_canon(workdir, capsys):
    rc = main(["gen-srg2", "--base", "t8", "--design", "fano",
               "--out", "h"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["canon", "--in", "h.g6"])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    g6, order = line.rsplit(" ", 1)
    assert graph6_decode(g6).n == 35
    assert int(order) >= 1


def test_spectrum_command(workdir, capsys):
    (workdir / "pet.g6").write_text(graph6_encode(petersen_graph()) + "\n")
    rc = main(["spectrum", "--in", "pet.g6", "--srg", "10,3,0,1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spectrum"] == [[3, 1], [1, 5], [-2, 4]]

    rc = main(["spectrum", "--in", "pet.g6", "--candidates", "3,1,-2"])
    assert rc == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--in", "pet.g6", "--ddg", "1,2"],
     "--ddg needs 6 comma-separated integers"),
    (["spectrum", "--in", "pet.g6", "--srg", "1,2"],
     "--srg needs 4 comma-separated integers"),
    (["spectrum", "--in", "pet.g6", "--srg", "10,3,zero,1"],
     "--srg needs 4 comma-separated integers"),
    (["gen-srg2", "--base", "t8", "--coloring", "-1"],
     "--coloring must be >= 0, got -1"),
])
def test_malformed_flag_values_exit_2(workdir, capsys, argv, message):
    (workdir / "pet.g6").write_text(graph6_encode(petersen_graph()) + "\n")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"srgforge: {message}\n"
    assert list(workdir.iterdir()) == [workdir / "pet.g6"]


def test_count_classes_command(workdir, capsys):
    pet = graph6_encode(petersen_graph())
    rot = graph6_encode(
        petersen_graph().relabel(tuple((i + 3) % 10 for i in range(10))))
    (workdir / "graphs.g6").write_text(f"{pet}\n{rot}\n")
    rc = main(["count-classes", "--in", "graphs.g6"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 1
    entry = next(iter(doc.values()))
    assert entry["count"] == 2


def test_bound_command(capsys):
    assert main(["bound", "--q", "2", "--d", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "1/341163456359156416512"


def test_threads_env(workdir, capsys, monkeypatch):
    monkeypatch.setenv("SRGFORGE_THREADS", "4")
    rc = main(["gen-ddg", "--q", "2", "--d", "2", "--seed", "3"])
    assert rc == 0
    capsys.readouterr()
    manifest = json.loads(
        (workdir / "ddg-q2-d2-s3.manifest.json").read_text())
    assert manifest["threads"] == 4


def test_pipe_composition_subprocess(tmp_path):
    """graph6 flows through a real shell pipe; exit code comes from verify."""
    # The children import this checkout's src wherever pytest is started
    # and whether or not the package is installed.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        f"{sys.executable} -m srgforge.cli gen-srg1"
        " --q 2 --d 2 --seed 9 2>/dev/null |"
        f" {sys.executable} -m srgforge.cli verify --expect srg",
        shell=True, capture_output=True, text=True, env=env, cwd=tmp_path)
    assert result.returncode == 0
    doc = json.loads(result.stderr)
    assert doc["parameters"]["v"] == 15

    census = subprocess.run(
        f"{sys.executable} -m srgforge.cli sp-graph --q 2 --d 2 |"
        f" {sys.executable} -m srgforge.cli clique-census",
        shell=True, capture_output=True, text=True, env=env, cwd=tmp_path)
    assert census.returncode == 0
    assert json.loads(census.stdout) == {"count": 15, "size": 3}
