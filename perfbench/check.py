"""Output checker, run after the timed loop.

Generators must write certificates equal to the closed forms
(`theorem1_params`, `srg1_target_params`, `srg_spectrum`), a `.g6` equal to
what they printed and a manifest whose digest matches it.  `verify` must
pass the constructed graphs with the closed-form parameters and fail each
2-switched copy with the first witness an independent replay of the pair
loop finds.  `canon` and `count-classes` are checked by invariance, not by
a stored string: every relabelled copy of a graph, and the generator's own
manifest entry, must give the same canonical form, and the known group
orders must hold.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from srgforge.ddg import theorem1_params
from srgforge.spectra import ddg_formula_spectrum, srg_spectrum
from srgforge.srg import srg1_target_params

# srgforge's own figures at this commit: the census at (2,2) is pinned by
# its known count; (3,2) and (2,3) have no clique meeting the bound
CENSUS = {(2, 2): {"count": 6, "size": 5}, (3, 2): {"count": 0, "size": 10},
          (2, 3): {"count": 0, "size": 9}}
SRG2_PARAMS = {"v": 35, "k": 18, "lambda": 9, "mu": 9}


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def g6_order(text: str) -> int:
    data = text.encode("ascii")
    if data[:1] == b"~":
        return ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
    return data[0] - 63


def _cert(kind: str, parameters: dict) -> dict:
    return {"kind": kind, "passed": True, "parameters": parameters,
            "witnesses": [], "provenance": {}}


def ddg_parameters(q: int, d: int) -> dict:
    p = theorem1_params(q, d)
    return {"v": p.v, "k": p.k, "lambda1": p.lambda1, "lambda2": p.lambda2,
            "m": p.m, "n": p.n}


def srg1_parameters(q: int, d: int) -> dict:
    p = srg1_target_params(q, d)
    return {"v": p.v, "k": p.k, "lambda": p.lam, "mu": p.mu}


def ddg_certificate(q: int, d: int) -> dict:
    """gen-ddg's certificate.  In this family k^2 = lambda2 v, so theta2 is
    0 with multiplicity m - 1, and the trace of A fixes how the m(n-1)
    eigenvalues +-theta1 split."""
    p = theorem1_params(q, d)
    formula = ddg_formula_spectrum(p)
    theta = formula.theta1
    _require(formula.theta2 == 0 and isinstance(theta, int),
             f"({q},{d}) is outside the glued-design family")
    plus = (formula.f_sum - p.k // theta) // 2
    spectrum = [[p.k, 1], [theta, plus], [0, formula.g_sum],
                [-theta, formula.f_sum - plus]]
    return {"ddg": _cert("ddg", ddg_parameters(q, d)),
            "spectrum": [e for e in spectrum if e[1]],
            "f_sum": formula.f_sum, "g_sum": formula.g_sum, "f_sum_ok": True}


def srg1_certificate(q: int, d: int) -> dict:
    params = srg1_parameters(q, d)
    target = params["lambda"]
    cases = {"q": q, "d": d, "target": target,
             **{s: target for s in ("same_class", "cross_class", "attached",
                                    "mixed")}}
    spectrum = srg_spectrum(srg1_target_params(q, d))
    return {"srg": _cert("srg", params), "cases": _cert("srg", cases),
            "spectrum": json.loads(json.dumps(spectrum.serialize()))}


def _generated(cmd, res, state, command: str, seed, certificate: dict) -> None:
    _require(res.rc == 0, f"exit {res.rc}")
    prefix = cmd.expect["prefix"]
    g6 = Path(prefix + ".g6").read_text(encoding="ascii")
    _require(res.out == g6 and g6.count("\n") == 1 and g6.endswith("\n"),
             ".g6 differs from the printed graph")
    g6 = g6[:-1]
    manifest = json.loads(Path(prefix + ".manifest.json").read_text())
    graph = manifest["outputs"]["graph"]
    _require(manifest["command"] == command and manifest["seed"] == seed,
             "manifest command or seed differs")
    _require(graph["path"] == Path(prefix).name + ".g6" and
             graph["digest"] == hashlib.sha256(g6.encode()).hexdigest()[:16],
             "manifest digest differs from the .g6")
    n = g6_order(g6)
    graph_cert = certificate.get("ddg", certificate.get("srg"))
    _require(n == graph_cert["parameters"]["v"], f"graph has {n} vertices")
    _require(("canonical" in graph) == (n <= 64),
             "manifest canonical form present above 64 vertices or missing "
             "below")
    cert = json.loads(Path(prefix + ".cert.json").read_text(encoding="ascii"))
    _require(cert == certificate, "certificate differs from the closed form")
    if "graph_id" in cmd.expect:
        _same_form(state, cmd.expect["graph_id"], graph["canonical"])


def _same_form(state: dict, graph_id: str, form: str) -> None:
    seen = state.setdefault("canon", {}).setdefault(graph_id, form)
    _require(seen == form, f"{graph_id}: two canonical forms for one graph")


def check_gen_ddg(cmd, res, state):
    e = cmd.expect
    _generated(cmd, res, state, "gen-ddg", e["seed"],
               ddg_certificate(e["q"], e["d"]))


def check_gen_srg1(cmd, res, state):
    e = cmd.expect
    _generated(cmd, res, state, "gen-srg1", e["seed"],
               srg1_certificate(e["q"], e["d"]))


def check_gen_srg2(cmd, res, state):
    _generated(cmd, res, state, "gen-srg2", None,
               {"srg": _cert("srg", SRG2_PARAMS)})


def check_verify(cmd, res, state):
    e = cmd.expect
    _require(res.rc == e["rc"], f"exit {res.rc}, expected {e['rc']}")
    if "cert" in e:
        expected = e["cert"]
    elif e["kind"] == "ddg":
        expected = _cert("ddg", ddg_parameters(e["q"], e["d"]))
    else:
        expected = _cert("srg", srg1_parameters(e["q"], e["d"]))
    _require(json.loads(res.err) == expected,
             "certificate differs from the expected verdict")


def check_canon(cmd, res, state):
    e = cmd.expect
    _require(res.rc == 0, f"exit {res.rc}")
    lines = res.out.splitlines()
    _require(len(lines) == e["copies"], f"expected {e['copies']} output lines")
    for line in lines:
        form, order = line.split(" ")
        _require(g6_order(form) == e["n"], "canonical form has another order")
        if e["aut"] is not None:
            _require(int(order) == e["aut"],
                     f"|Aut| = {order}, expected {e['aut']}")
        _same_form(state, e["graph_id"], form)
        aut = state.setdefault("aut", {}).setdefault(e["graph_id"], int(order))
        _require(aut == int(order), "relabelled copies disagree on |Aut|")


def check_count_classes(cmd, res, state):
    e = cmd.expect
    _require(res.rc == 0, f"exit {res.rc}")
    doc = json.loads(res.out)
    expected = {state["canon"][gid]: {"count": e["count"], "first": first}
                for gid, first in e["first"].items()}
    _require(len(expected) == len(e["first"]), "batch graphs share a form")
    _require(doc == expected, "classes differ from the canon results")


def check_sp_graph(cmd, res, state):
    _require(res.rc == 0, f"exit {res.rc}")
    lines = res.out.splitlines()
    _require(len(lines) == 1 and g6_order(lines[0]) == cmd.expect["n"],
             "expected one graph6 line of the symplectic order")


def check_clique_census(cmd, res, state):
    e = cmd.expect
    _require(res.rc == 0, f"exit {res.rc}")
    _require(json.loads(res.out) == CENSUS[e["q"], e["d"]],
             f"census differs from {CENSUS[e['q'], e['d']]}")


CHECKS = {
    "gen-ddg": check_gen_ddg,
    "gen-srg1": check_gen_srg1,
    "gen-srg2": check_gen_srg2,
    "verify-pass": check_verify,
    "verify-fail": check_verify,
    "canon": check_canon,
    "count-classes": check_count_classes,
    "sp-graph": check_sp_graph,
    "clique-census": check_clique_census,
}


def check(cmd, res, state: dict) -> str | None:
    """None if the command's output is correct, else the reason it is not.
    `state` carries cross-command invariants; check commands in run order."""
    if res.error:
        return res.error
    try:
        CHECKS[cmd.kind](cmd, res, state)
    except CheckFailed as exc:
        return str(exc)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return None
