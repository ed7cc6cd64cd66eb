"""Command-line behavior: exit codes, files, manifests, composition."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from srgforge import (certificate, chang_graphs, complete_graph,
                      construct_ddg, counting_lower_bound, cycle_graph,
                      ddg_formula_spectrum, DdgParams, designs,
                      empty_graph, exact_spectrum, fano_plane, Graph,
                      graph6_decode, graph6_encode, make_spectrum,
                      petersen_graph, Radical, save_design, spectra, srg,
                      srg_spectrum, SrgParams, SymmetricDesign,
                      triangular_graph, verify_ddg)
from srgforge import cli
from srgforge.cli import main
from srgforge.errors import ParseError
from test_pair_kernel import _two_switched


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


def test_main_dispatches_to_the_current_cmd_function(workdir, capsys,
                                                    monkeypatch):
    """The parser is built once per process, and main looks up cmd_<name>
    when it runs, so a wrapper swapped in after a first call still runs."""
    (workdir / "pet.g6").write_text(graph6_encode(petersen_graph()) + "\n")
    assert main(["canon", "--in", "pet.g6"]) == 0
    capsys.readouterr()
    seen = []

    def patched(args):
        seen.append(args.infile)
        return 0

    monkeypatch.setattr(cli, "cmd_canon", patched)
    assert main(["canon", "--in", "pet.g6"]) == 0
    assert seen == ["pet.g6"]
    assert capsys.readouterr().out == ""
    assert cli.build_parser() is cli.build_parser()


def test_memory_exhaustion_exits_2(workdir, capsys, monkeypatch):
    """A MemoryError anywhere in a command, as numpy raises when an array
    cannot be allocated, exits 2 with one stderr line naming the command
    and no traceback."""
    def exhausted(args):
        raise MemoryError("Unable to allocate 2.00 GiB")

    monkeypatch.setattr(cli, "cmd_gen_ddg", exhausted)
    assert main(["gen-ddg", "--q", "2", "--d", "6", "--seed", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "srgforge: out of memory in gen-ddg\n"


def test_spectrum_command(workdir, capsys):
    (workdir / "pet.g6").write_text(graph6_encode(petersen_graph()) + "\n")
    rc = main(["spectrum", "--in", "pet.g6", "--srg", "10,3,0,1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spectrum"] == [[3, 1], [1, 5], [-2, 4]]

    rc = main(["spectrum", "--in", "pet.g6", "--candidates", "3,1,-2"])
    assert rc == 0
    capsys.readouterr()


def test_spectrum_candidates_square_radicands(workdir, capsys):
    """sqrt(t) and -sqrt(t) of a perfect square t read as integers."""
    (workdir / "t8.g6").write_text(graph6_encode(triangular_graph(8)) + "\n")
    outs = []
    for candidates in ("12,sqrt(16),-2", "12,4,-2", "12,4,-sqrt(4)"):
        assert main(["spectrum", "--in", "t8.g6",
                     "--candidates", candidates]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0])["spectrum"] == [[12, 1], [4, 7], [-2, 20]]


def test_spectrum_candidates_starting_with_a_minus(workdir, capsys):
    """A candidate list that starts with a minus is given as
    --candidates=LIST, as argparse reads a separate -2,0,2 as an option."""
    (workdir / "c4.g6").write_text(graph6_encode(cycle_graph(4)) + "\n")
    assert main(["spectrum", "--in", "c4.g6", "--candidates=-2,0,2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spectrum"] == [[2, 1], [0, 2], [-2, 1]]


def test_spectrum_answers_s33_with_61_integer_candidates(workdir, capsys):
    """61 candidates -30..30 on the 364-vertex s(3,3), all within its
    degree 243: 61 traces take 29 products and a 61 x 61 trace solve mod P.
    Without 243 the residues fail the checks and the call exits 2 with
    NotAnnihilated; with it the live candidates 243, 9 and -9 take one
    product.  The child has a time limit so a slow path fails."""
    assert main(["gen-srg1", "--q", "3", "--d", "3", "--seed", "0",
                 "--out", "s33"]) == 0
    capsys.readouterr()
    src = str(Path(__file__).resolve().parents[1] / "src")
    candidates = list(range(-30, 31))
    for extra, code in (([], 2), ([243], 0)):
        result = subprocess.run(
            [sys.executable, "-m", "srgforge.cli", "spectrum", "--in",
             "s33.g6", "--candidates=" + ",".join(map(str, candidates +
                                                      extra))],
            capture_output=True, text=True, timeout=30, cwd=workdir,
            env=dict(os.environ, PYTHONPATH=src))
        assert result.returncode == code, result.stderr
        if code:
            assert result.stderr.endswith("do not annihilate the adjacency "
                                          "matrix\n")
            continue
        spectrum = dict(map(tuple, json.loads(result.stdout)["spectrum"]))
        assert {e: m for e, m in spectrum.items() if m} == \
            {243: 1, 9: 168, -9: 195}


def _k20_candidates(radicals: int) -> str:
    rads = [t for t in range(2, 400) if math.isqrt(t) ** 2 != t][:radicals]
    return ",".join([*map(str, range(-19, 20)),
                     *(f"sqrt({t})" for t in rads)])


def test_spectrum_solves_339_trace_rows_fast(workdir, capsys):
    """K_20 with -19..19 and the first 150 non-square radicands, all within
    its degree 19: a 339-row trace solve with 189 unknowns mod P, well
    inside the work limit, answers in a fraction of a second."""
    (workdir / "k20.g6").write_text(graph6_encode(complete_graph(20)) + "\n")
    start = time.perf_counter()
    assert main(["spectrum", "--in", "k20.g6",
                 f"--candidates={_k20_candidates(150)}"]) == 0
    assert time.perf_counter() - start < 5
    spectrum = json.loads(capsys.readouterr().out)["spectrum"]
    assert len(spectrum) == 39 + 300
    assert [[e, m] for e, m in spectrum if m] == [[19, 1], [-1, 19]]


def test_spectrum_trace_solve_guard(workdir, capsys):
    """K_64 with -63..63 and the first 3000 non-square radicands, all within
    its degree 63: the 6127-row trace solve with 3127 unknowns passes the
    work limit before any product runs, so the call exits 2 at once."""
    (workdir / "k64.g6").write_text(graph6_encode(complete_graph(64)) + "\n")
    rads = [t for t in range(2, 64 * 64) if math.isqrt(t) ** 2 != t][:3000]
    assert rads[-1] <= 63 * 63
    candidates = ",".join([*map(str, range(-63, 64)),
                           *(f"sqrt({t})" for t in rads)])
    start = time.perf_counter()
    assert main(["spectrum", "--in", "k64.g6",
                 f"--candidates={candidates}"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "srgforge: 3062 products of 64 x 64 matrices and a 6127 x 3127 "
        "trace solve exceed the spectrum work limit\n")


def test_spectrum_refuses_past_the_work_and_vertex_limits(workdir, capsys,
                                                         monkeypatch):
    """K_1024 with -1023..1023 needs A^2 .. A^1023 for its traces, 1022
    products of 1024 x 1024 matrices; a graph on 4097 vertices is past the
    limit under which P > n and P > Delta^2, read from its size prefix, so
    it is never decoded.  Both exit 2 in under 1 s."""
    (workdir / "k1024.g6").write_text(
        graph6_encode(complete_graph(1024)) + "\n")
    (workdir / "e4097.g6").write_text(
        graph6_encode(empty_graph(4097)) + "\n")
    calls = []

    def counting(text):
        calls.append(text)
        return graph6_decode(text)
    monkeypatch.setattr(cli, "graph6_decode", counting)
    for name, candidates, message, decodes in (
            ("k1024.g6", ",".join(map(str, range(-1023, 1024))),
             "1022 products of 1024 x 1024 matrices and a 2047 x 2047 trace "
             "solve exceed the spectrum work limit", 1),
            ("e4097.g6", "0", "the graph of a spectrum would have 4097 "
             "vertices, over the 4096-vertex limit", 0)):
        calls.clear()
        start = time.perf_counter()
        assert main(["spectrum", "--in", name,
                     f"--candidates={candidates}"]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == f"srgforge: {message}\n"
        assert len(calls) == decodes


def test_spectrum_skips_candidates_past_the_degree_bound(workdir, capsys):
    """Petersen has maximum degree 3, so of -200..200 and four radicals
    only -3..3, sqrt(5) and sqrt(7) reach the products and the trace
    solve; the rest still print, with multiplicity 0.  At 100
    integer candidates that solve alone took seconds."""
    (workdir / "pet.g6").write_text(graph6_encode(petersen_graph()) + "\n")
    ints = range(-200, 201)
    candidates = ",".join(map(str, ints)) + \
        ",sqrt(5),-sqrt(7),sqrt(10),sqrt(99)"
    start = time.perf_counter()
    assert main(["spectrum", "--in", "pet.g6",
                 f"--candidates={candidates}"]) == 0
    assert time.perf_counter() - start < 1
    petersen = {3: 1, 1: 5, -2: 4}
    expected = make_spectrum(
        [(e, petersen.get(e, 0)) for e in ints] +
        [(Radical(t, negative), 0) for t in (5, 7, 10, 99)
         for negative in (False, True)])
    assert json.loads(capsys.readouterr().out)["spectrum"] == \
        expected.serialize()


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--in", "pet.g6", "--ddg", "1,2"],
     "--ddg needs 6 comma-separated integers"),
    (["spectrum", "--in", "pet.g6", "--srg", "1,2"],
     "--srg needs 4 comma-separated integers"),
    (["spectrum", "--in", "pet.g6", "--srg", "10,3,zero,1"],
     "--srg needs 4 comma-separated integers"),
    (["gen-srg2", "--base", "t8", "--coloring", "-1"],
     "--coloring must be >= 0, got -1"),
    (["spectrum", "--in", "pet.g6", "--candidates", "sqrt(x)"],
     "bad eigenvalue token 'sqrt(x)'"),
    (["spectrum", "--in", "pet.g6", "--candidates=-sqrt(x)"],
     "bad eigenvalue token '-sqrt(x)'"),
    (["spectrum", "--in", "pet.g6", "--candidates", "3,sqrt()"],
     "bad eigenvalue token 'sqrt()'"),
    # past sys.maxsize, where islice would refuse the index with its own text
    (["gen-srg2", "--base", "t8", "--coloring", str(10**21)],
     f"--coloring must be at most {sys.maxsize}, got {10**21}"),
])
def test_malformed_flag_values_exit_2(workdir, capsys, argv, message):
    (workdir / "pet.g6").write_text(graph6_encode(petersen_graph()) + "\n")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"srgforge: {message}\n"
    assert list(workdir.iterdir()) == [workdir / "pet.g6"]


@pytest.mark.parametrize("argv, message", [
    (["gen-ddg", "--q", "2", "--d", "13", "--seed", "0"],
     "the glued graph would have at least 2^13 vertices, over the "
     "4096-vertex limit"),
    (["spectrum", "--in", "pet.g6", "--srg", "0,0,0,0"],
     "eigenvalues r and s coincide"),
    (["spectrum", "--in", "pet.g6", "--srg", "1,1,0,0"],
     "multiplicities are not integers"),
    (["spectrum", "--in", "pet.g6", "--srg", "0,0,1,0"],
     "negative multiplicity"),
    (["spectrum", "--in", "pet.g6", "--candidates", "sqrt(-4)"],
     "negative radicand -4"),
    (["spectrum", "--in", "pet.g6", "--ddg", "12,6,9,3,3,4"],
     "invalid parameters: k-lambda1 = -3, k^2 - lambda2 v = 0"),
])
def test_refused_parameters_exit_2(workdir, capsys, argv, message):
    """Parameters that pass parsing but that the builders or the spectra
    refuse: 2^13 vertices and more before q^d is computed; feasible (v, k,
    lambda, mu) whose restricted eigenvalues coincide or whose
    multiplicities are fractional or out of [0, v - 1]; the square root of
    a negative candidate; DDG parameters with k - lambda1 < 0."""
    (workdir / "pet.g6").write_text(graph6_encode(petersen_graph()) + "\n")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"srgforge: {message}\n"
    assert list(workdir.iterdir()) == [workdir / "pet.g6"]


@pytest.mark.parametrize("argv", [
    ["spectrum", "--in", "pet.g6", "--candidates", "3,1,-2", "--srg", "1,2"],
    ["spectrum", "--in", "pet.g6", "--ddg", "12,6,2,3,3,4",
     "--srg", "10,3,0,1"],
    ["spectrum", "--in", "pet.g6"],
])
def test_spectrum_takes_exactly_one_source(workdir, capsys, argv):
    """--candidates, --ddg and --srg form a required, mutually exclusive
    group: a second source is a usage error, not silently dropped."""
    (workdir / "pet.g6").write_text(graph6_encode(petersen_graph()) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: srgforge spectrum" in captured.err


@pytest.mark.parametrize("expect", [[], ["--expect", "srg"]])
def test_verify_classes_needs_expect_ddg(workdir, capsys, expect):
    (workdir / "pet.g6").write_text(graph6_encode(petersen_graph()) + "\n")
    (workdir / "pet.classes").write_text("0 1 2 3 4\n5 6 7 8 9\n")
    assert main(["verify", *expect, "--in", "pet.g6", "--classes",
                 "pet.classes", "--cert", "c.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("srgforge: --classes works only with "
                            "--expect ddg\n")
    assert not (workdir / "c.json").exists()


@pytest.mark.parametrize("classes", [[], ["--classes", ""]])
def test_verify_ddg_needs_classes_before_decoding(workdir, capsys,
                                                   monkeypatch, classes):
    """--expect ddg without a --classes file is refused before the input
    is read: the graph6 decoder, patched to raise, is never called."""
    (workdir / "pet.g6").write_text(graph6_encode(petersen_graph()) + "\n")

    def refuse(text):
        raise ParseError("graph6_decode was called")

    monkeypatch.setattr(cli, "graph6_decode", refuse)
    assert main(["verify", "--expect", "ddg", "--in", "pet.g6", *classes,
                 "--cert", "c.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "srgforge: --expect ddg needs --classes FILE\n"
    assert not (workdir / "c.json").exists()


def test_bound_needs_a_prime_power(capsys):
    assert main(["bound", "--q", "6", "--d", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "srgforge: 6 is not a prime power\n"


def test_phi_file_takes_comments(workdir, capsys):
    """A phi file is read like the other text formats, with # comments and
    blank lines skipped, given bare or with the file: prefix."""
    Path("plain.txt").write_text("1 2 3 4 5 6 0\n")
    Path("commented.txt").write_text("# class i to block i + 1\n\n"
                                     "1 2 3 4 5 6 0  # a 7-cycle\n")
    for phi in ("plain.txt", "commented.txt", "file:commented.txt"):
        assert main(["gen-srg2", "--base", "t8", "--phi", phi,
                     "--out", phi.replace(":", "-")]) == 0
        manifest = json.loads(
            Path(phi.replace(":", "-") + ".manifest.json").read_text())
        assert manifest["flags"]["phi"] == phi
        assert "phi" in manifest["inputs"]
    capsys.readouterr()
    g6 = Path("plain.txt.g6").read_bytes()
    assert Path("commented.txt.g6").read_bytes() == g6
    assert Path("file-commented.txt.g6").read_bytes() == g6
    assert main(["gen-srg2", "--base", "t8", "--out", "identity"]) == 0
    assert Path("identity.g6").read_bytes() != g6


def test_phi_identity_is_the_default(workdir, capsys):
    """gen-srg1 with --phi identity writes the bytes it writes without
    --phi; both manifests record "identity"."""
    argv = ["gen-srg1", "--q", "2", "--d", "2", "--seed", "0", "--out", "s"]
    for sub, phi in (("bare", []), ("named", ["--phi", "identity"])):
        (workdir / sub).mkdir()
        os.chdir(workdir / sub)
        assert main([*argv, *phi]) == 0
    os.chdir(workdir)
    capsys.readouterr()
    for name in ("s.g6", "s.cert.json", "s.manifest.json"):
        assert (workdir / "bare" / name).read_bytes() == \
            (workdir / "named" / name).read_bytes()
    manifest = json.loads((workdir / "bare" / "s.manifest.json").read_text())
    assert manifest["flags"]["phi"] == "identity"
    assert "phi" not in manifest["inputs"]


def test_canon_prints_nothing_before_a_bad_line(workdir, capsys):
    """canon computes every form before it prints one, so a malformed later
    line exits 2 with an empty stdout, as count-classes does."""
    Path("two.g6").write_text(graph6_encode(petersen_graph()) + "\nI?????\n")
    for sub in ("canon", "count-classes"):
        assert main([sub, "--in", "two.g6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "srgforge: graph6 body length 5 wrong for n=10\n"


@pytest.mark.parametrize("argv, message", [
    (["gen-ddg", "--q", "2", "--d", "2", "--seed", "0",
      "--quasigroup", "file:qg4.txt"], "quasigroup order 4, expected 3"),
    (["gen-srg1", "--q", "2", "--d", "2", "--seed", "0", "--phi", "phi2.txt"],
     "phi2.txt: block map has 2 entries, expected 3"),
    (["verify", "--expect", "srg", "--in", "empty.g6"],
     "no graph6 line on input"),
])
def test_unfit_input_file_exits_2(workdir, capsys, argv, message):
    """A quasigroup table or a block map read from a file must fit the m =
    3 classes of (2, 2), and a graph file must hold a graph; one that does
    not exits 2 before any output."""
    inputs = {"qg4.txt": "0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n",
              "phi2.txt": "0 1\n", "empty.g6": ""}
    for name, text in inputs.items():
        Path(name).write_text(text)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"srgforge: {message}\n"
    assert sorted(p.name for p in workdir.iterdir()) == sorted(inputs)


@pytest.mark.parametrize("argv", [
    ["gen-srg2", "--base", "t8", "--phi", "bad.txt"],
    ["verify", "--expect", "ddg", "--in", "pet.g6", "--classes", "bad.txt"],
    ["gen-ddg", "--q", "2", "--d", "2", "--seed", "0",
     "--quasigroup", "file:bad.txt"],
])
def test_non_integer_token_names_its_line(workdir, capsys, argv):
    """phi, classes and quasigroup files share one integer-line reader,
    whose ParseError names the line of a bad token."""
    (workdir / "pet.g6").write_text(graph6_encode(petersen_graph()) + "\n")
    (workdir / "bad.txt").write_text("# comment\n0 1 2\n3 x 5\n")
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        "srgforge: line 3: non-integer token in '3 x 5'\n"


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
    # --out writes the same document to a file and prints nothing
    assert main(["count-classes", "--in", "graphs.g6", "--out", "c.json"]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads((workdir / "c.json").read_text()) == doc


def test_canon_and_count_classes_print_what_single_lines_print(workdir,
                                                              capsys):
    """On T(8), two relabelled copies of it, the Chang graphs and Petersen,
    where the copies' searches stop at T(8)'s known leaf, canon prints the
    lines the one-line runs print, and count-classes the classes they
    give, each counted with the index of its first line."""
    t8 = triangular_graph(8)
    copies = [t8.relabel(tuple(sorted(range(28), key=lambda v: (v * k) % 29)))
              for k in (3, 5)]
    lines = [graph6_encode(g) for g in
             (t8, copies[0], *chang_graphs(), copies[1], petersen_graph())]
    single, classes = [], {}
    for i, line in enumerate(lines):
        Path("one.g6").write_text(line + "\n")
        assert main(["canon", "--in", "one.g6"]) == 0
        single.append(capsys.readouterr().out)
        assert main(["count-classes", "--in", "one.g6"]) == 0
        [(key, entry)] = json.loads(capsys.readouterr().out).items()
        assert entry == {"count": 1, "first": 0}
        first = classes.setdefault(key, {"count": 0, "first": i})
        first["count"] += 1
    Path("all.g6").write_text("".join(line + "\n" for line in lines))
    assert main(["canon", "--in", "all.g6"]) == 0
    assert capsys.readouterr().out == "".join(single)
    assert main(["count-classes", "--in", "all.g6"]) == 0
    assert json.loads(capsys.readouterr().out) == classes
    assert sorted(e["count"] for e in classes.values()) == [1, 1, 1, 1, 3]


def test_bound_command(capsys):
    assert main(["bound", "--q", "2", "--d", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "1/341163456359156416512"


@pytest.mark.parametrize("d", [5, 6])
def test_bound_prints_past_the_digit_limit(capsys, d):
    """The denominator passes Python's 4300-digit int-to-str limit; the
    limit is lifted only while the fraction is printed."""
    limit = sys.get_int_max_str_digits()
    assert main(["bound", "--q", "2", "--d", str(d)]) == 0
    assert sys.get_int_max_str_digits() == limit
    out = capsys.readouterr().out.strip()
    sys.set_int_max_str_digits(0)
    try:
        assert Fraction(out) == counting_lower_bound(2, d)
        assert len(out) > 4300
    finally:
        sys.set_int_max_str_digits(limit)


def test_gen_srg2_verifies_each_input_once(workdir, capsys, monkeypatch):
    """verify_srg runs on the base in the coloring search, which hands its
    parameters to the fill, and on the output; a file design's axioms are
    checked once."""
    calls = {"verify_srg": 0, "verify_symmetric": 0}

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    for module in (cli, srg):
        monkeypatch.setattr(module, "verify_srg", counted(srg.verify_srg))
    monkeypatch.setattr(srg, "verify_symmetric",
                        counted(designs.verify_symmetric))
    save_design(fano_plane(), "fano.txt")
    assert main(["gen-srg2", "--base", "t8", "--design", "file:fano.txt"]) == 0
    assert calls == {"verify_srg": 2, "verify_symmetric": 1}


def test_gen_srg2_needs_lambda_mu_plus_2_before_the_search(workdir, capsys):
    """Sp(6, 2), (63,30,13,15), has no Hoffman coloring and its complement,
    (63,32,16,16), has one: both exit 2 before the coloring search."""
    assert main(["sp-graph", "--q", "2", "--d", "3"]) == 0
    Path("sp62.g6").write_text(capsys.readouterr().out)
    assert main(["sp-graph", "--q", "2", "--d", "3", "--complement"]) == 0
    Path("co62.g6").write_text(capsys.readouterr().out)
    for name, lam, mu in (("sp62", 13, 15), ("co62", 16, 16)):
        assert main(["gen-srg2", "--base", f"g6:{name}.g6"]) == 2
        err = capsys.readouterr().err
        assert err == (f"srgforge: need lambda = mu + 2, got lambda = {lam},"
                       f" mu = {mu}\n")
    assert sorted(os.listdir()) == ["co62.g6", "sp62.g6"]


def test_gen_srg2_reads_the_first_graph_of_a_g6_base(workdir, capsys):
    """--base g6:FILE reads the first non-blank line, as verify --in does:
    a file holding T(8) and then K4 builds what --base t8 builds, and the
    manifest records the digest of the whole file."""
    text = graph6_encode(triangular_graph(8)) + "\n" + \
        graph6_encode(complete_graph(4)) + "\n"
    Path("two.g6").write_text(text, encoding="ascii")
    assert main(["gen-srg2", "--base", "g6:two.g6", "--out", "file"]) == 0
    assert main(["gen-srg2", "--base", "t8", "--out", "builtin"]) == 0
    assert Path("file.g6").read_text() == Path("builtin.g6").read_text()
    manifest = json.loads(Path("file.manifest.json").read_text())
    assert manifest["inputs"]["base"] == \
        hashlib.sha256(text.encode()).hexdigest()[:16]


def test_gen_srg2_refuses_an_oversized_base_from_its_prefix(workdir, capsys):
    """A g6 base whose size prefix says 4097 vertices exits 2 with the
    vertex limit, before it is decoded (its four-byte body is the wrong
    length for that n), and no file is written."""
    Path("big.g6").write_text("~@?@AAAA\n", encoding="ascii")
    assert main(["gen-srg2", "--base", "g6:big.g6", "--out", "PREFIX"]) == 2
    assert capsys.readouterr().err == (
        "srgforge: the gen-srg2 base would have 4097 vertices, over the "
        "4096-vertex limit\n")
    assert os.listdir() == ["big.g6"]


def test_gen_srg2_rejects_bad_file_design(workdir, capsys):
    fano = fano_plane()
    twice = SymmetricDesign(7, fano.blocks[:6] + fano.blocks[:1], fano.params)
    save_design(twice, "bad.txt")
    assert main(["gen-srg2", "--base", "t8", "--design", "file:bad.txt"]) == 2
    assert "design axioms fail" in capsys.readouterr().err


def _written(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("argv", [
    ["gen-ddg", "--q", "2", "--d", "3", "--seed", "0"],
    ["gen-ddg", "--q", "3", "--d", "2", "--seed", "4", "--quasigroup",
     "random"],
    ["gen-srg1", "--q", "2", "--d", "3", "--seed", "0"],
    ["gen-srg1", "--q", "3", "--d", "2", "--seed", "4", "--quasigroup",
     "random"],
], ids=" ".join)
def test_gen_spectra_take_no_matrix_product(tmp_path, monkeypatch, capsys,
                                            argv):
    """gen-ddg and gen-srg1 read the spectrum from the passing certificate:
    with exact_spectrum and every product of spectra made to raise they
    still exit 0 and write the same bytes, and the spectrum they write is
    exact_spectrum's on the formula candidates."""
    outputs = []
    for patched in (False, True):
        where = tmp_path / str(patched)
        where.mkdir()
        monkeypatch.chdir(where)
        if patched:
            def product(*args, **kwargs):
                raise AssertionError("n x n product in a gen command")

            for module in (spectra, cli):
                monkeypatch.setattr(module, "exact_spectrum", product)
            monkeypatch.setattr(spectra, "_times", product)
        assert main(argv) == 0
        outputs.append((capsys.readouterr().out, _written(where)))
    assert outputs[0] == outputs[1]
    monkeypatch.undo()
    out, files = outputs[0]
    g = graph6_decode(out.strip())
    doc = json.loads(files[next(n for n in files if n.endswith(".cert.json"))])
    kind = "ddg" if "ddg" in doc else "srg"
    if kind == "ddg":
        p = doc["ddg"]["parameters"]
        candidates = ddg_formula_spectrum(DdgParams(
            p["v"], p["k"], p["lambda1"], p["lambda2"], p["m"],
            p["n"])).candidates()
    else:
        p = doc["srg"]["parameters"]
        candidates = [e for e, _ in srg_spectrum(SrgParams(
            p["v"], p["k"], p["lambda"], p["mu"])).entries()]
    assert doc["spectrum"] == json.loads(json.dumps(
        exact_spectrum(g, candidates).serialize()))


def test_gen_srg1_spectrum_is_srg_spectrum(tmp_path, monkeypatch, capsys):
    """gen-srg1 reads its spectrum from srg_spectrum of the verified
    parameters alone: with certified_spectrum made to raise, it still
    exits 0 and writes the same .g6, .cert.json and .manifest.json
    bytes."""
    outputs = []
    for patched in (False, True):
        where = tmp_path / str(patched)
        where.mkdir()
        monkeypatch.chdir(where)
        if patched:
            def refuse(*args, **kwargs):
                raise AssertionError("gen-srg1 called certified_spectrum")

            for module in (spectra, cli):
                monkeypatch.setattr(module, "certified_spectrum", refuse)
        assert main(["gen-srg1", "--q", "3", "--d", "2", "--seed", "0"]) == 0
        outputs.append((capsys.readouterr().out, _written(where)))
    assert outputs[0] == outputs[1]
    assert sorted(name.split(".", 1)[1] for name in outputs[1][1]) == [
        "cert.json", "g6", "manifest.json"]


def test_gen_srg1_checks_preconditions_when_a_verifier_fails(workdir, capsys,
                                                            monkeypatch):
    """gen-srg1 checks construct_srg1's preconditions only once verify_srg
    or the coclique audit fails, and then answers as construct_srg1 did:
    - a DDG with one degree-keeping 2-switch exits 2 with verify_ddg's
      witness and writes nothing;
    - an attachment with edge 01 flipped on a passing DDG exits 1 and
      writes the certificates that construct_srg1 returning the same graph
      gave, pinned by digest."""
    def switched(*args):
        g, partition = construct_ddg(*args)
        return _two_switched(g, 0, 1), partition

    monkeypatch.setattr(cli, "construct_ddg", switched)
    assert main(["gen-srg1", "--q", "2", "--d", "3", "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "srgforge: not a divisible design graph: {'check': 'cross-class', "
        "'pair': [0, 16], 'count': 15, 'expected': 14}\n")
    assert list(workdir.iterdir()) == []
    monkeypatch.setattr(cli, "construct_ddg", construct_ddg)

    def flipped(*args):
        m = srg.attach_coclique(*args).matrix.copy()
        m[0, 1] = m[1, 0] = not m[0, 1]
        return Graph(m)

    monkeypatch.setattr(cli, "attach_coclique", flipped)
    assert main(["gen-srg1", "--q", "2", "--d", "3", "--seed", "0",
                 "--out", "flip"]) == 1
    files = _written(workdir)
    assert sorted(files) == ["flip.cert.json", "flip.g6",
                             "flip.manifest.json"]
    assert hashlib.sha256(files["flip.cert.json"]).hexdigest() == \
        "4ab033fef4a0f2eda40616004cfe843941fb7b388b6216b0a1e95331bd8b74b3"


def test_cached_ingredients_change_no_output(tmp_path, monkeypatch, capsys):
    """gen-ddg and gen-srg1 at (2,3), (3,2) and (2,4), interleaved twice in
    one process, build each (q, d)'s field and designs once and write the
    .g6, .cert.json and .manifest.json bytes of fresh processes; passing,
    gen-srg1 checks no precondition."""
    def refuse(*args):
        raise AssertionError("gen-srg1 checked a precondition")

    monkeypatch.setattr(cli, "check_srg1_preconditions", refuse)
    cli._glued_field_design.cache_clear()
    cli._attached_design.cache_clear()
    argvs = [[sub, "--q", str(q), "--d", str(d), "--seed", "1",
              "--out", f"{sub}-{q}{d}"]
             for q, d in ((2, 3), (3, 2), (2, 4))
             for sub in ("gen-ddg", "gen-srg1")]
    runs = [tmp_path / name for name in ("first", "second", "fresh")]
    for where in runs:
        where.mkdir()
    for where in runs[:2]:
        monkeypatch.chdir(where)
        for argv in argvs:
            assert main(argv) == 0
    capsys.readouterr()
    assert cli._glued_field_design.cache_info().misses == 3
    assert cli._attached_design.cache_info().misses == 3

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    for argv in argvs:
        subprocess.run([sys.executable, "-m", "srgforge.cli", *argv],
                       cwd=runs[2], env=env, check=True, capture_output=True)
    outputs = [{name: data for name, data in _written(where).items()
                if name.endswith((".g6", ".cert.json", ".manifest.json"))}
               for where in runs]
    assert len(outputs[0]) == 18
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("sub", ["gen-ddg", "gen-srg1"])
def test_refusals_stay_with_a_cached_q_d(workdir, capsys, sub):
    """--q 6, --d 1 and --q 2 --d 7 refuse with the same line, exit 2 and
    no file, before and after (2, 2)'s field and designs are cached."""
    refusals = [
        (["--q", "6", "--d", "2"], "6 is not a prime power"),
        (["--q", "2", "--d", "1"], "dimension must be >= 2, got 1"),
        (["--q", "2", "--d", "7"], "the glued graph would have 16256 "
                                   "vertices, over the 4096-vertex limit")]
    for rounds in range(3):
        written = _written(workdir)
        for flags, message in refusals:
            assert main([sub, *flags, "--seed", "0"]) == 2
            assert capsys.readouterr() == ("", f"srgforge: {message}\n")
        assert _written(workdir) == written
        if rounds == 0:
            assert main([sub, "--q", "2", "--d", "2", "--seed", "0"]) == 0
            capsys.readouterr()


def test_gen_ddg_exits_2_on_an_impossible_split(workdir, capsys,
                                                monkeypatch):
    """A DDG certificate tampered to lambda1 = 5 makes theta1 = 1, and tr A
    = 0 then asks for an odd split of the 9 eigenvalues +-1: a typed error
    naming the trace, exit 2."""
    def tampered(g, partition):
        cert = verify_ddg(g, partition)
        return certificate("ddg", {**cert.parameters, "lambda1": 5})

    monkeypatch.setattr(cli, "verify_ddg", tampered)
    assert main(["gen-ddg", "--q", "2", "--d", "2", "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("srgforge: tr A = 0 split the 9 eigenvalues +-1 "
                            "with excess -6\n")


def test_gen_srg2_past_the_last_coloring_exits_1(workdir, capsys):
    """T(8) has 6240 Hoffman colorings, numbered from 0: index 6240 names
    none, which exits 1 and writes nothing."""
    assert main(["gen-srg2", "--base", "t8", "--coloring", "6240"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "no Hoffman coloring at index 6240 for this base\n"
    assert list(workdir.iterdir()) == []


def test_gen_srg2_coloring_search_has_a_node_budget(workdir, capsys):
    """The 6 x 6 rook graph, (36,10,4,2) with lambda = mu + 2, has 1,128,960
    Hoffman colorings; running past all of them to index 2,000,000 would
    take about 40 s, so the search stops at its node budget instead, with
    exit 2 and no file written."""
    rook = np.kron(np.eye(6, dtype=bool), ~np.eye(6, dtype=bool)) | \
        np.kron(~np.eye(6, dtype=bool), np.eye(6, dtype=bool))
    Path("rook.g6").write_text(graph6_encode(Graph(rook)) + "\n")
    assert main(["gen-srg2", "--base", "g6:rook.g6",
                 "--coloring", "2000000"]) == 2
    assert capsys.readouterr().err == (
        f"srgforge: Hoffman colorings of 36 vertices need more than "
        f"{srg.MAX_COLORING_NODES} search nodes\n")
    assert sorted(os.listdir()) == ["rook.g6"]


def test_gen_srg2_coloring_budget_counts_clique_steps(workdir, capsys):
    """The budget counts the graphs.cliques calls inside each coloring
    node: the rook graph's index 50,000 takes 140,668 coloring nodes, under
    the 250,000 that bounded the nodes alone, but more than
    srg.MAX_COLORING_NODES nodes and clique steps together, so it exits 2
    and writes no file."""
    rook = np.kron(np.eye(6, dtype=bool), ~np.eye(6, dtype=bool)) | \
        np.kron(~np.eye(6, dtype=bool), np.eye(6, dtype=bool))
    Path("rook.g6").write_text(graph6_encode(Graph(rook)) + "\n")
    assert main(["gen-srg2", "--base", "g6:rook.g6",
                 "--coloring", "50000"]) == 2
    assert capsys.readouterr().err == (
        f"srgforge: Hoffman colorings of 36 vertices need more than "
        f"{srg.MAX_COLORING_NODES} search nodes\n")
    assert sorted(os.listdir()) == ["rook.g6"]


def test_spectrum_ddg_prints_the_formula_spectrum(workdir, capsys):
    """spectrum --ddg on d(2, 2) prints the exact spectrum of the formula
    candidates {6, +-2, 0} as one JSON line."""
    assert main(["gen-ddg", "--q", "2", "--d", "2", "--seed", "0",
                 "--out", "d"]) == 0
    capsys.readouterr()
    assert main(["spectrum", "--in", "d.g6", "--ddg", "12,6,2,3,3,4"]) == 0
    assert capsys.readouterr().out == \
        '{"n": 12, "spectrum": [[6, 1], [2, 3], [0, 2], [-2, 6]]}\n'


def test_clique_census_out_writes_every_clique(workdir, capsys):
    """clique-census --out on Sp(4, 2) writes its 15 Delsarte cliques of
    size 3 to the file and prints their size and count."""
    assert main(["sp-graph", "--q", "2", "--d", "2"]) == 0
    (workdir / "sp.g6").write_text(capsys.readouterr().out)
    assert main(["clique-census", "--in", "sp.g6", "--out", "c.json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"count": 15, "size": 3}
    doc = json.loads((workdir / "c.json").read_text())
    assert (doc["size"], doc["count"]) == (3, 15)
    assert len({tuple(c) for c in doc["cliques"]}) == 15
    assert all(len(c) == 3 for c in doc["cliques"])


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


@pytest.mark.parametrize("argv", [
    ["gen-ddg", "--q", "2", "--d", "40", "--seed", "0"],
    ["gen-ddg", "--q", "2", "--d", "14", "--seed", "0"],
    ["sp-graph", "--q", "2", "--d", "30"],
    ["sp-graph", "--q", "2", "--d", "9"],
    ["bound", "--q", "2", "--d", "16"],
    # a huge d stops before q^d is computed
    ["bound", "--q", "2", "--d", "100000000000"],
    ["gen-ddg", "--q", "2", "--d", "100000000000", "--seed", "0"],
    ["sp-graph", "--q", "2", "--d", "100000000000"],
    # the limit goes before factoring q and building GF(q)'s tables
    ["gen-ddg", "--q", "65521", "--d", "2", "--seed", "0"],
    ["sp-graph", "--q", "65521", "--d", "2"],
    ["gen-srg1", "--q", "2305843009213693951", "--d", "2", "--seed", "0"],
], ids=" ".join)
def test_size_guard_exits_2(tmp_path, argv):
    """Sizes past the vertex limit stop before any enumeration: a typed
    error and exit 2, not a MemoryError traceback or a long run.  The child
    gets a 2 GiB address-space cap so a missing guard fails fast."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-m", "srgforge.cli", *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=20,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (2 << 30, 2 << 30)))
    assert result.returncode == 2
    assert result.stderr.startswith("srgforge: ")
    assert "vertex limit" in result.stderr
    assert "Traceback" not in result.stderr
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# fuzzing: every argv and stdin ends in exit 0, 1 or 2, never a traceback

_LONG = graph6_encode(complete_graph(63))
_GRAPHS = [graph6_encode(g) for g in (petersen_graph(), cycle_graph(5),
                                      complete_graph(4), triangular_graph(6))]
_BAD_G6 = ["", "?", "@", "B", "Bw!", "Bz", "B\x7f", "é", "~", "~?", "~??",
           "~~", "~??~", _LONG[:-1], _LONG + "?", _LONG[:-1] + "~",
           _LONG[:40] + " " + _LONG[41:], ">>graph6<<Bw"]
_Q = ["-1", "0", "1", "2", "3", "6", "x"]
_D = ["-1", "0", "1", "2", "x"]
_IN = ["in.g6", "bad.g6", "missing"]
_FLAGS = {
    "gen-ddg": {"--q": _Q, "--d": _D, "--seed": ["0", "5", "-3", "x"],
                "--quasigroup": ["cyclic", "random", "file:qg.txt",
                                 "file:missing", "bogus"],
                "--family": ["identity", "random", "file:fam.txt", "bogus"],
                "--out": ["o"]},
    "gen-srg2": {"--base": ["t8", "chang1", "chang3", "g6:in.g6",
                            "g6:bad.g6", "g6:missing", "bogus"],
                 "--design": ["fano", "file:design.txt", "file:qg.txt",
                              "bogus"],
                 "--coloring": ["0", "1", "-1", "99", "x"],
                 "--phi": ["phi.txt", "file:phi.txt", "qg.txt", "missing"],
                 "--out": ["o"]},
    "verify": {"--expect": ["srg", "ddg", "bogus"],
               "--classes": ["p0", "p1", "p2", "p3", "p4", "missing"],
               "--in": _IN, "--cert": ["c.json"]},
    "spectrum": {"--candidates": ["3,1,-2", "sqrt(5),-sqrt(5),2", "sqrt(4)",
                                  "sqrt(x)", "x", ""],
                 "--ddg": ["12,6,2,3,3,4", "1,2", "a,b,c,d,e,f"],
                 "--srg": ["10,3,0,1", "15,8,4,4", "10,3,0,2", "1"],
                 "--in": _IN},
    "canon": {"--in": _IN},
    "count-classes": {"--in": _IN, "--out": ["cc.json"]},
    "sp-graph": {"--q": _Q, "--d": _D, "--complement": None},
    "clique-census": {"--in": _IN, "--out": ["census.json"]},
    "bound": {"--q": _Q, "--d": _D},
}
_FLAGS["gen-srg1"] = {**_FLAGS["gen-ddg"], "--phi": _FLAGS["gen-srg2"]["--phi"]}
_INPUTS = {
    "in.g6": _GRAPHS[0] + "\n", "bad.g6": _LONG[:-1] + "\n",
    "qg.txt": "0 1 2\n1 2 0\n2 0 1\n", "fam.txt": "0 1 : 1 0\n",
    "phi.txt": "2 0 1\n", "p0": "0 1 2 3 4\n5 6 7 8 9\n",
    "p1": "0 1\n2 x\n", "p2": "# c\n\n0 1 2 3 4 5 6 7 8 9 # all\n",
    "p3": "0 1\n1 2\n", "p4": "0 99\n",
}


@pytest.fixture(scope="module")
def fuzzdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in _INPUTS.items():
        (root / name).write_text(text, encoding="ascii")
    save_design(fano_plane(), str(root / "design.txt"))
    return root


@st.composite
def _invocations(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag, values in _FLAGS[command].items():
        if draw(st.integers(0, 4)):
            argv.append(flag)
            if values:
                argv.append(draw(st.sampled_from(values)))
    if not draw(st.integers(0, 9)):
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(["--bogus", "-x", "gen-ddg", "--"])))
    lines = draw(st.lists(st.sampled_from(_GRAPHS + _BAD_G6), max_size=3))
    return argv, "\n".join(lines)


@given(_invocations())
def test_cli_fuzz_exit_codes(fuzzdir, invocation):
    argv, stdin = invocation
    out, err = io.StringIO(), io.StringIO()
    cwd, real_stdin = os.getcwd(), sys.stdin
    os.chdir(fuzzdir)
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
    finally:
        sys.stdin = real_stdin
        os.chdir(cwd)
    assert rc in (0, 1, 2), (argv, rc, err.getvalue())
    assert "Traceback" not in err.getvalue()



# mutation fuzzing: a valid file of each kind the CLI reads, with a few bytes
# replaced, inserted or deleted, or cut short

_GEN = ["--q", "2", "--d", "2", "--seed", "0", "--out", "o"]
_MUTATED = {  # kind -> (valid file, argv that reads its mutant `input`)
    "verify": ("sp.g6", ["verify", "--in", "input"]),
    "canon": ("sp.g6", ["canon", "--in", "input"]),
    "spectrum": ("sp.g6", ["spectrum", "--srg", "15,8,4,4", "--in", "input"]),
    "clique-census": ("sp.g6", ["clique-census", "--in", "input"]),
    "base": ("t8.g6", ["gen-srg2", "--base", "g6:input", "--out", "o"]),
    "classes": ("ddg.classes", ["verify", "--expect", "ddg", "--classes",
                                "input", "--in", "ddg.g6"]),
    "quasigroup": ("ddg.quasigroup",
                   ["gen-ddg", *_GEN, "--quasigroup", "file:input"]),
    "family": ("ddg.family", ["gen-ddg", *_GEN, "--family", "file:input"]),
    "design": ("fano.txt", ["gen-srg2", "--base", "t8", "--design",
                            "file:input", "--out", "o"]),
    "phi": ("phi.txt", ["gen-srg1", *_GEN, "--phi", "input"]),
    "phi file:": ("phi.txt", ["gen-srg1", *_GEN, "--phi", "file:input"]),
}


def _main_in(directory, argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of main(argv) run in directory on an
    empty stdin."""
    out, err = io.StringIO(), io.StringIO()
    cwd, real_stdin = os.getcwd(), sys.stdin
    os.chdir(directory)
    sys.stdin = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    finally:
        sys.stdin = real_stdin
        os.chdir(cwd)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def mutdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutate")
    _main_in(root, ["gen-ddg", *_GEN[:-1], "ddg", "--quasigroup", "random"])
    sp = _main_in(root, ["sp-graph", "--q", "2", "--d", "2", "--complement"])
    (root / "sp.g6").write_text(sp[1], encoding="ascii")
    (root / "t8.g6").write_text(graph6_encode(triangular_graph(8)) + "\n",
                                encoding="ascii")
    save_design(fano_plane(), str(root / "fano.txt"))
    (root / "phi.txt").write_text("2 0 1\n", encoding="ascii")
    for name, argv in _MUTATED.values():  # each file as it is passes
        rc, _, err = _main_in(root, [a.replace("input", name) for a in argv])
        assert rc == 0, (argv, err)
    return root


@st.composite
def _mutants(draw):
    """A kind and 1 to 4 edits (operation, position in [0, 1), byte)."""
    kind = draw(st.sampled_from(sorted(_MUTATED)))
    ops = st.sampled_from(("replace", "insert", "delete", "truncate"))
    byte = st.one_of(st.sampled_from(b"0123456789 :#-\n?~"),
                     st.integers(0, 255))
    return kind, draw(st.lists(st.tuples(ops, st.floats(0, 1, exclude_max=True),
                                         byte), min_size=1, max_size=4))


@given(_mutants())
def test_cli_fuzz_mutated_files(mutdir, mutant):
    kind, edits = mutant
    name, argv = _MUTATED[kind]
    data = bytearray((mutdir / name).read_bytes())
    for op, where, byte in edits:
        at = int(where * (len(data) + (op == "insert")))
        if op == "insert":
            data.insert(at, byte)
        elif data and op == "replace":
            data[at] = byte
        elif data and op == "delete":
            del data[at]
        elif op == "truncate":
            del data[at:]
    (mutdir / "input").write_bytes(bytes(data))
    rc, _, err = _main_in(mutdir, argv)
    assert rc in (0, 1, 2), (kind, bytes(data), rc, err)
    assert "Traceback" not in err
