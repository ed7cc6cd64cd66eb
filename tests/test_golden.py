"""Golden outputs: SHA-256 digests of what a fixed set of commands writes.

The digests pin every byte of the graph6, certificate, class and manifest
files and of stdout, so a refactor that changes any output fails here.
"""

from __future__ import annotations

import hashlib
import io
import json

from conftest import rows_graph
from srgforge import (Graph, graph6_decode, graph6_encode,
                      projective_complement_design, verify_srg1_cases,
                      VertexPartition)
from srgforge.cli import main
from srgforge.gf import make_field

GOLDEN = {
    "ddg.stdout": "6f82a6b3a6c4d8c85db92618b47f37c08116480342ac5bfddfd755341f747ecd",
    "ddg.g6": "6f82a6b3a6c4d8c85db92618b47f37c08116480342ac5bfddfd755341f747ecd",
    "ddg.cert.json": "379cf6a6ed23f017d9f5be2f9a9371dc4df22eb79b650fe9a3ef9709064bbfcb",
    "ddg.classes": "edf31f6720a98af43de932991f08a45d5c66ce1dbb1a2495e1bd538dabdbae8b",
    "ddg.manifest.json": "c77dcff5c717e22c914111bef02e6ece56e6b8d8fc1c8239ee77128d7c486054",
    "srg1.stdout": "0dcf96380ccadeaa12434b6c18903fadcf71bddba02c94f9b6de41d90884bcbd",
    "srg1.g6": "0dcf96380ccadeaa12434b6c18903fadcf71bddba02c94f9b6de41d90884bcbd",
    "srg1.cert.json": "ae03e950d45728829dd5cb0dccfb77607af5c074109a8572e45025d6607abdc7",
    "srg1.manifest.json": "ae844a3764d70d77a7fd414d4ed16716b58e6072f105435ae4d27c1e4d7c9d5f",
    "t8.stdout": "854e3be4f91bcbeea6e36abdc2344d0c88202b151c45fe47aaf60bc3ecf8265a",
    "t8.g6": "854e3be4f91bcbeea6e36abdc2344d0c88202b151c45fe47aaf60bc3ecf8265a",
    "t8.cert.json": "160773f61b0b4fdf38e1b9e7dcadc4cf3ff728730e57e5f2d140605de8bad24d",
    "t8.manifest.json": "975edd27122d6ee4a01dbfd3ced3ed28176de10e78297b7a92a5c5481a88af62",
    "chang1.stdout": "2593f10f41bf38defdbf7761af420441a33c914a3a94031b11687c254a883d10",
    "chang1.g6": "2593f10f41bf38defdbf7761af420441a33c914a3a94031b11687c254a883d10",
    "chang1.cert.json": "160773f61b0b4fdf38e1b9e7dcadc4cf3ff728730e57e5f2d140605de8bad24d",
    "chang1.manifest.json": "fc309128ec62cf28c05749b2ecb81842b90a13d05014a44ef39346a59fb786e5",
    "spectrum.stdout": "b6ba8fc3b0686e1dfc95d1271789eef7410f3f1486934d4cb11d5713755d9b8e",
    "bad.cert.json": "c2ee178d54e19932b2391e064e6d47725edd0338b88845ac6ed3c56bdc236b63",
    # 351 and 255 vertices: rows span several 64-bit words
    "ddg33.stdout": "6f84a6a7404c0204389cf3e845b0ae65b65b969f652d0816e4176cd4cf917f5b",
    "ddg33.g6": "6f84a6a7404c0204389cf3e845b0ae65b65b969f652d0816e4176cd4cf917f5b",
    "ddg33.cert.json": "ac292ce985cb72ce2e0f534a623dbe065488c4c2b5880a3d8df394d60c225fcf",
    "ddg33.classes": "c7a985a8a7699234aeea85d9bda3cb829773cb6bb5651af9cadd976039a8f42c",
    "ddg33.family": "361ea66c1bbe94115feac3cea7e7238fc93abb26e1fb8a5d0f62c3f9c048d12d",
    "ddg33.quasigroup": "37d097c02217dc0cadfbc25aa02310546721ed58d356dab4f9b6a941d3b6d8d8",
    "ddg33.manifest.json": "c29dcaaef832371e40c6490e0d0e8a087b1d7e32ebfcb20f5a77905a5b0d4aa3",
    "srg24.stdout": "ace726e36290c0e5efb819aef60bfc6ed305a123f0594be1b8ee308c7a9c3afd",
    "srg24.g6": "ace726e36290c0e5efb819aef60bfc6ed305a123f0594be1b8ee308c7a9c3afd",
    "srg24.cert.json": "07f48c6631cf213d81b0df0561f3fd148cf886c192966c99683b9ee355840841",
    "srg24.manifest.json": "e57f87440e25f25a0e92993204673d9a65fe636e6591083e25341e4ab680cf59",
    # Sp(8, 2), Sp(6, 3), Sp(10, 2) and Sp(6, 4): 255 to 1365 vertices
    "sp24.stdout": "b7041aa057b6389da3123a72b169aee021d1f673ba41e53b1cdd3a73f4f79bd7",
    "sp33.stdout": "31445daec88df010158c2ed048c6ddd69f936a461185e523b16224b8f9e828e5",
    "sp25.stdout": "6752c72f516da8811f4b77acd5ef1abde9312eef4d2888fae4fd5b49aa03e516",
    "sp43.stdout": "f90d796bbad15d69ea2f545d2dd7a02478bb08ff0ca8623b1ac7b6d18d562015",
}


def _switched(g: Graph, a: int, b: int, c: int, d: int) -> Graph:
    """Edges ab, cd and non-edges ac, bd swap roles: degrees stay,
    common-neighbour counts move."""
    assert g.has_edge(a, b) and g.has_edge(c, d)
    assert not g.has_edge(a, c) and not g.has_edge(b, d)
    rows = list(g.rows)
    for x, y in ((a, b), (c, d), (a, c), (b, d)):
        rows[x] ^= 1 << y
        rows[y] ^= 1 << x
    return rows_graph(g.n, rows)


def _two_switch(g: Graph) -> Graph:
    """The first 2-switch ab, cd (sorted edge order) with ac, bd non-edges."""
    edges = sorted(g.edges())
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1:]:
            if len({a, b, c, d}) == 4 and not g.has_edge(a, c) \
                    and not g.has_edge(b, d):
                return _switched(g, a, b, c, d)
    raise AssertionError("no 2-switch")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outputs(tmp_path, monkeypatch, capsys) -> dict:
    monkeypatch.chdir(tmp_path)
    got = {}

    def run(name, argv, stdin="", rc=0):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert main(argv) == rc
        got[name + ".stdout"] = _digest(capsys.readouterr().out.encode())

    run("ddg", ["gen-ddg", "--q", "2", "--d", "3", "--seed", "4",
                "--quasigroup", "random", "--out", "ddg"])
    run("srg1", ["gen-srg1", "--q", "3", "--d", "2", "--seed", "2",
                 "--out", "srg1"])
    run("t8", ["gen-srg2", "--base", "t8", "--out", "t8"])
    run("chang1", ["gen-srg2", "--base", "chang1", "--out", "chang1"])
    run("ddg33", ["gen-ddg", "--q", "3", "--d", "3", "--seed", "1",
                  "--quasigroup", "random", "--out", "ddg33"])
    run("srg24", ["gen-srg1", "--q", "2", "--d", "4", "--seed", "3",
                  "--out", "srg24"])
    run("sp24", ["sp-graph", "--q", "2", "--d", "4"])
    run("sp33", ["sp-graph", "--q", "3", "--d", "3"])
    run("sp25", ["sp-graph", "--q", "2", "--d", "5"])
    run("sp43", ["sp-graph", "--q", "4", "--d", "3"])
    t8 = (tmp_path / "t8.g6").read_text()
    run("spectrum", ["spectrum", "--srg", "35,18,9,9"], t8)
    ddg = graph6_decode((tmp_path / "ddg.g6").read_text())
    run("bad", ["verify", "--expect", "ddg", "--classes", "ddg.classes",
                "--cert", "bad.cert.json"],
        graph6_encode(_two_switch(ddg)) + "\n", rc=1)
    for name in GOLDEN:
        if not name.endswith(".stdout"):
            got[name] = _digest((tmp_path / name).read_bytes())
    return got


def test_golden_outputs(tmp_path, monkeypatch, capsys):
    got = _outputs(tmp_path, monkeypatch, capsys)
    assert {k: got[k] for k in GOLDEN} == GOLDEN


# Failing certificates at 992 and 1023 vertices.  Every vertex below the
# switch sees b and c, and a and d, alike, so the first witness lies in row
# 224 (same-class) and row 480 (mu), past many row blocks and tiles that
# pass.
SWITCHES = {"ddg25": (256, 224, 240, 272), "srg25": (761, 736, 760, 737)}
GOLDEN_LARGE = {
    "badddg25.cert.json": "205257f5d5358b598225f427a6d5d2cf76d8a09ba17a48bf0285e554b1bdd672",
    "badsrg25.cert.json": "21049948116628fce40c3cb278d607d0dce8c09b70b905e5a604e839ac03d1dd",
    "badsrg25.cases": "42ed69ea79afae7c1be2f3eaca3c078cd664c830c33166146b280e574db5e33e",
}


def test_golden_large_failures(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for sub, name in (("gen-ddg", "ddg25"), ("gen-srg1", "srg25")):
        assert main([sub, "--q", "2", "--d", "5", "--seed", "1",
                     "--out", name]) == 0
    capsys.readouterr()
    got, bad = {}, {}
    for name, expect in (("ddg25", ["ddg", "--classes", "ddg25.classes"]),
                         ("srg25", ["srg"])):
        bad[name] = _switched(
            graph6_decode((tmp_path / f"{name}.g6").read_text()),
            *SWITCHES[name])
        (tmp_path / f"bad{name}.g6").write_text(
            graph6_encode(bad[name]) + "\n")
        assert main(["verify", "--in", f"bad{name}.g6", "--expect", *expect,
                     "--cert", f"bad{name}.cert.json"]) == 1
        text = (tmp_path / f"bad{name}.cert.json").read_text()
        assert json.loads(text)["witnesses"][0]["pair"][0] > 200
        got[f"bad{name}.cert.json"] = _digest(text.encode())
    classes = (tmp_path / "ddg25.classes").read_text().splitlines()
    partition = VertexPartition.from_lists(
        992, [map(int, line.split()) for line in classes])
    cases = verify_srg1_cases(bad["srg25"], partition,
                              projective_complement_design(make_field(2, 1), 5))
    got["badsrg25.cases"] = _digest(cases.to_json().encode())
    assert got == GOLDEN_LARGE
