"""Command-line front end: reproducible construction pipelines.

Conventions shared by every subcommand: graphs travel as graph6 on stdout
and stdin so commands compose in shell pipelines; certificates and other
reports go to files or stderr, never stdout; generators write their outputs
plus a JSON run manifest under an --out prefix; exit code 0 means verified,
1 means a verification failed on valid input, 2 means the input or usage
was wrong.  Randomized generators require an explicit --seed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from itertools import islice

from . import __version__
from .canon import canonical_form, check_canon_vertices, count_classes
from .ddg import (construct_ddg, counting_lower_bound, cyclic_quasigroup,
                  DdgParams, identity_family, load_family, load_quasigroup,
                  random_bijection_family, random_left_quasigroup,
                  save_family, save_quasigroup, verify_ddg)
from .designs import (affine_geometry_design, check_glued, fano_plane,
                      int_lines, load_design, projective_complement_design,
                      SymmetricDesign, write_lines)
from .errors import ParseError, SrgforgeError
from .gf import as_prime_power, make_field
from .graphs import (check_vertices, complement, Graph, VertexPartition,
                     graph6_decode, graph6_encode, graph6_order)
from .spectra import (certified_spectrum, check_spectrum_vertices,
                      ddg_formula_spectrum, exact_root, exact_spectrum,
                      srg_spectrum)
from .srg import (attach_coclique, chang_graphs, check_srg1_preconditions,
                  ClassBlockMap, construct_srg2, hoffman_colorings,
                  need_lam_mu2, Srg2Config, SrgParams, triangular_graph,
                  verify_srg, verify_srg1_cases)
from .symplectic import (check_census_vertices, check_symplectic,
                         delsarte_clique_census, symplectic_graph)

_CANON_IN_MANIFEST = 64  # canon cost guard: larger outputs get digests only


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _read_partition(path: str, n: int) -> VertexPartition:
    return VertexPartition.from_lists(n, [cls for _, cls in int_lines(path)])


def _read_graphs(path: str | None, check=None, count: int | None = None):
    """The graphs on the non-blank lines of the file at path, or of stdin
    without one, or on the first count of them, decoded one at a time;
    check, a vertex limit, first sees every line's size prefix, so an
    over-limit line is refused before any decoding."""
    if path:
        with open(path, encoding="ascii") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    lines = [line for line in text.splitlines() if line.strip()][:count]
    if check:
        for line in lines:
            check(graph6_order(line))
    return map(graph6_decode, lines)


def _read_graph(path: str | None, check=None) -> Graph:
    """The graph on the input's first line, through _read_graphs."""
    graph = next(_read_graphs(path, check, 1), None)
    if graph is None:
        raise ParseError("no graph6 line on input")
    return graph


def _write_json(doc: dict, path: str) -> str:
    """Write doc as sorted, indented JSON; return the file name for the
    manifest."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return os.path.basename(path)


def _write_outputs(args, prefix: str, g: Graph, doc: dict, inputs: dict,
                   **outputs) -> None:
    """Write and print PREFIX.g6, write doc as PREFIX.cert.json, then the
    run manifest recording both beside the given output records.  Its flags
    are all arguments but command, seed and --out."""
    flags = {key: value for key, value in vars(args).items()
             if key not in ("command", "seed", "out")}
    text = graph6_encode(g)
    with open(prefix + ".g6", "w", encoding="ascii") as fh:
        fh.write(text + "\n")
    print(text)
    graph = {"path": os.path.basename(prefix + ".g6"),
             "digest": _digest(text.encode())}
    if g.n <= _CANON_IN_MANIFEST:
        graph["canonical"] = canonical_form(g).graph6
    outputs.update(graph=graph, certificate={
        "path": _write_json(doc, prefix + ".cert.json")})
    _write_json({"tool": "srgforge", "version": __version__,
                 "command": args.command, "flags": flags,
                 "seed": getattr(args, "seed", None), "inputs": inputs,
                 "outputs": outputs}, prefix + ".manifest.json")


# ---------------------------------------------------------------------------
# ingredient assembly for the generators


def _resolve(spec: str, what: str, builtins: dict, load, inputs: dict,
             prefixes: tuple = ("file:",)):
    """A flag naming a built-in or a file: a built-in name calls its
    constructor; PREFIX followed by PATH loads PATH and records its digest
    in inputs under the first word of what."""
    if spec in builtins:
        return builtins[spec]()
    for prefix in prefixes:
        if spec.startswith(prefix):
            path = spec[len(prefix):]
            with open(path, "rb") as fh:
                inputs[what.split()[0]] = _digest(fh.read())
            return load(path)
    raise ParseError(f"unknown {what} {spec!r}")


@functools.cache
def _glued_field_design(q: int, d: int):
    """GF(q) and AG(d, q), built once per (q, d) in a process: both are
    frozen and depend on (q, d) alone, and the vertex limit admits only
    about 14 pairs.  A refusal raises, and is not cached."""
    if q >= 2:  # vertex limit before GF(q); as_prime_power rejects q < 2
        check_glued(q, d)
    field = make_field(*as_prime_power(q))
    return field, affine_geometry_design(field, d)


@functools.cache
def _attached_design(q: int, d: int) -> SymmetricDesign:
    """gen-srg1's projective complement design over _glued_field_design's
    GF(q), cached the same way."""
    return projective_complement_design(_glued_field_design(q, d)[0], d)


def _build_ddg(args, inputs: dict):
    design = _glued_field_design(args.q, args.d)[1]
    m, q, seed = design.n_classes, args.q, args.seed
    quasigroup = _resolve(args.quasigroup, "quasigroup source", {
        "cyclic": lambda: cyclic_quasigroup(m),
        "random": lambda: random_left_quasigroup(m, 2 * seed)},
        load_quasigroup, inputs)
    if quasigroup.m != m:
        raise ParseError(f"quasigroup order {quasigroup.m}, expected {m}")
    family = _resolve(args.family, "family source", {
        "identity": lambda: identity_family(m, q),
        "random": lambda: random_bijection_family(m, q, quasigroup,
                                                  2 * seed + 1)},
        lambda path: load_family(path, m, q), inputs)
    g, partition = construct_ddg([design] * m, quasigroup, family)
    return g, partition, quasigroup, family


def _spectrum_report(g: Graph, partition: VertexPartition, cert) -> dict:
    """The spectrum g's passing DDG certificate fixes, with no product, and
    f_sum_ok: whether its +-theta1 add to f_sum, as when theta1 != theta2."""
    formula = ddg_formula_spectrum(DdgParams.from_certificate(cert))
    spec = certified_spectrum(cert, g, partition)
    return {"spectrum": spec.serialize(), "f_sum": formula.f_sum,
            "g_sum": formula.g_sum, "f_sum_ok": formula.f_sum == sum(
                spec.multiplicity_of(e)
                for e in {formula.theta1, -formula.theta1})}


def cmd_gen_ddg(args) -> int:
    inputs: dict = {}
    g, partition, quasigroup, family = _build_ddg(args, inputs)
    cert = verify_ddg(g, partition)
    doc = {"ddg": cert.to_dict()}
    if cert.passed:
        doc.update(_spectrum_report(g, partition, cert))

    prefix = args.out or f"ddg-q{args.q}-d{args.d}-s{args.seed}"
    write_lines(prefix + ".classes", partition.classes)
    save_quasigroup(quasigroup, prefix + ".quasigroup")
    save_family(family, prefix + ".family")
    _write_outputs(args, prefix, g, doc, inputs,
                   classes={"path": os.path.basename(prefix + ".classes")})
    return 0 if cert.passed and doc["f_sum_ok"] else 1


def _read_phi(path: str, m: int) -> ClassBlockMap:
    mapping = tuple(x for _, values in int_lines(path) for x in values)
    if len(mapping) != m:
        raise ParseError(f"{path}: block map has {len(mapping)} entries, "
                         f"expected {m}")
    return ClassBlockMap(mapping)


def _load_phi(spec: str, m: int, inputs: dict) -> ClassBlockMap:
    """--phi: identity, else a file path, bare or file:."""
    return _resolve(spec, "phi",
                    {"identity": lambda: ClassBlockMap.identity(m)},
                    lambda path: _read_phi(path, m), inputs, ("file:", ""))


def cmd_gen_srg1(args) -> int:
    """gen-srg1: attach, then verify; the passing verify_srg certificate
    fixes the spectrum.

    construct_srg1's preconditions run only when verify_srg or the coclique
    audit fails, and then raise as construct_srg1 would, before any file is
    written.  When both pass, every fact the preconditions check holds, so
    skipping them changes no outcome.  Proof.  Let H be the attached graph,
    V its v* original vertices in classes C_i, Y its m attached points and
    t = q^{2d-2}(q-1).  The audit reads (q, d) off m and n = |C_0|; here
    these are the flags, as AG(d, q) has (q^d-1)/(q-1) classes of q^d
    points and the design (q^d-1)/(q-1) points.  The attachment copies the
    DDG G onto V, joins all of C_i to the points of block phi(i) and keeps
    Y a coclique.

    - Both passing, H is k-regular and any two vertices have t common
      neighbours, so k(k-1) = t(v* + m - 1).  Of these, q^{d-1} lie in Y
      for two vertices of one class (so block phi(i) has q^{d-1} points
      when |C_i| >= 2) and q^{d-2}(q-1) for two of different classes.
    - Counting the paths u-y-w with y in Y from u in a class of s >= 2
      vertices: q^{d-1}(k - s) = q^{d-2}(q-1)(v* - s).  For C_0, s = q^d,
      this and the degree equation give k = q^{2d-1} (as k = 1 < t cannot
      be) and v* = q^d m.  Then every class of two or more vertices has
      s = q^d, and a smaller class would leave the sizes short of v*.
    - So G is regular of degree k - q^{d-1}, neither 0 nor v* - 1, with
      t - q^{d-1} common neighbours within a class and t - q^{d-2}(q-1)
      across: verify_ddg passes with theorem1_params(q, d), which is of
      the glued-design form as q is a prime power.
    - The design has m points and m blocks of distinct points in range,
      and phi covers the m classes, as built here.  Its blocks have
      q^{d-1} points and any two meet in q^{d-2}(q-1), so its incidence
      matrix N has N^T N = (k' - l)I + lJ with k' > l and column sums k':
      N is invertible, its row sums are k' too, and N N^T = N^T N, the
      axioms and declared parameters that verify_symmetric checks.
    """
    inputs: dict = {}
    ddg_graph, partition, *_ = _build_ddg(args, inputs)
    design = _attached_design(args.q, args.d)
    phi = _load_phi(args.phi, len(partition.classes), inputs)

    g = attach_coclique(ddg_graph, partition, design, phi)
    cert = verify_srg(g)
    cases = verify_srg1_cases(g, partition, design, cert)
    if not (cert.passed and cases.passed):
        check_srg1_preconditions(ddg_graph, partition, design, phi)
    doc = {"srg": cert.to_dict(),
           "cases": cases.to_dict()}
    if cert.passed:
        doc["spectrum"] = srg_spectrum(
            SrgParams.from_certificate(cert)).serialize()
    _write_outputs(args, args.out or f"srg1-q{args.q}-d{args.d}-s{args.seed}",
                   g, doc, inputs)
    return 0 if cert.passed and cases.passed else 1


_BASES = {"t8": lambda: triangular_graph(8),
          "chang1": lambda: chang_graphs()[0],
          "chang2": lambda: chang_graphs()[1],
          "chang3": lambda: chang_graphs()[2]}


def cmd_gen_srg2(args) -> int:
    if not 0 <= args.coloring <= sys.maxsize:  # islice's index range
        bound = ">= 0" if args.coloring < 0 else f"at most {sys.maxsize}"
        raise ParseError(f"--coloring must be {bound}, got {args.coloring}")
    inputs: dict = {}
    base = _resolve(args.base, "base", _BASES, lambda path: _read_graph(
        path, lambda n: check_vertices(n, "the gen-srg2 base")), inputs,
        ("g6:",))
    design = _resolve(args.design, "design", {"fano": fano_plane},
                      lambda path: load_design(path, "symmetric"), inputs)

    colorings = hoffman_colorings(base)
    need_lam_mu2(colorings.params)  # before the search, which may find none
    coloring = next(islice(colorings, args.coloring, None), None)
    if coloring is None:
        print(f"no Hoffman coloring at index {args.coloring} for this base",
              file=sys.stderr)
        return 1

    phi = _load_phi(args.phi, len(coloring.classes), inputs)
    g = construct_srg2(Srg2Config(base, coloring, design, phi,
                                  colorings.params))
    cert = verify_srg(g)
    _write_outputs(args, args.out or f"srg2-{args.base}-c{args.coloring}",
                   g, {"srg": cert.to_dict()}, inputs)
    return 0 if cert.passed else 1


def cmd_verify(args) -> int:
    if args.classes is not None and args.expect != "ddg":
        raise ParseError("--classes works only with --expect ddg")
    if args.expect == "ddg" and not args.classes:
        raise ParseError("--expect ddg needs --classes FILE")
    g = _read_graph(args.infile)
    if args.expect == "srg":
        cert = verify_srg(g)
    else:
        partition = _read_partition(args.classes, g.n)
        cert = verify_ddg(g, partition)
    text = cert.to_json()
    if args.cert:
        with open(args.cert, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    else:
        print(text, file=sys.stderr)
    return 0 if cert.passed else 1


def _parse_candidates(text: str):
    out = []
    for tok in text.replace(",", " ").split():
        body = tok.removeprefix("-")
        radical = body.startswith("sqrt(") and body.endswith(")")
        try:
            value = int(body[5:-1] if radical else tok)
        except ValueError:
            raise ParseError(f"bad eigenvalue token {tok!r}")
        if radical:
            value = exact_root(value) if body == tok else -exact_root(value)
        out.append(value)
    return out


def _int_list(text: str, flag: str, count: int) -> list[int]:
    try:
        values = [int(t) for t in text.split(",")]
    except ValueError:
        values = []
    if len(values) != count:
        raise ParseError(f"{flag} needs {count} comma-separated integers")
    return values


def cmd_spectrum(args) -> int:
    g = _read_graph(args.infile, check_spectrum_vertices)
    if args.candidates is not None:
        candidates = _parse_candidates(args.candidates)
    elif args.ddg is not None:
        params = DdgParams(*_int_list(args.ddg, "--ddg", 6))
        candidates = ddg_formula_spectrum(params).candidates()
    else:
        params = SrgParams(*_int_list(args.srg, "--srg", 4))
        candidates = [e for e, _ in srg_spectrum(params).entries()]
    spec = exact_spectrum(g, candidates)
    print(json.dumps({"n": g.n, "spectrum": spec.serialize()},
                     sort_keys=True))
    return 0


def cmd_canon(args) -> int:
    forms = [canonical_form(g)
             for g in _read_graphs(args.infile, check_canon_vertices)]
    for form in forms:  # after the last form, so a refusal prints nothing
        print(f"{form.graph6} {form.aut_order}")
    return 0


def cmd_count_classes(args) -> int:
    classes = count_classes(_read_graphs(args.infile, check_canon_vertices))
    doc = {key: {"count": entry.count, "first": entry.first}
           for key, entry in classes.items()}
    if args.out:
        _write_json(doc, args.out)
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def cmd_sp_graph(args) -> int:
    if args.q >= 2:  # vertex limit before GF(q); as_prime_power rejects q < 2
        check_symplectic(args.q, args.d)
    g = symplectic_graph(make_field(*as_prime_power(args.q)), args.d)
    if args.complement:
        g = complement(g)
    print(graph6_encode(g))
    return 0


def cmd_clique_census(args) -> int:
    g = _read_graph(args.infile, check_census_vertices)
    census = delsarte_clique_census(g)
    if args.out:
        _write_json({"size": census.size, "count": census.count,
                     "cliques": [list(c) for c in census.cliques]}, args.out)
    print(json.dumps({"size": census.size, "count": census.count},
                     sort_keys=True))
    return 0


def cmd_bound(args) -> int:
    value = counting_lower_bound(args.q, args.d)
    # from (2, 5) on, the denominator passes Python's int-to-str limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        print(f"{value.numerator}/{value.denominator}")
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


# ---------------------------------------------------------------------------


def _add_ddg_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, required=True, help="prime power")
    p.add_argument("--d", type=int, required=True, help="dimension, >= 2")
    p.add_argument("--seed", type=int, required=True,
                   help="PRNG seed (random sources use 2*seed and 2*seed+1)")
    p.add_argument("--quasigroup", default="cyclic",
                   help="cyclic | random | file:PATH")
    p.add_argument("--family", default="random",
                   help="identity | random | file:PATH")
    p.add_argument("--out", help="output path prefix")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process;
    main looks up each subcommand's cmd_<name> function when it runs."""
    parser = argparse.ArgumentParser(
        prog="srgforge",
        description="exact construction and verification of divisible design "
                    "graphs and strongly regular graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-ddg", help="divisible design graph from glued "
                                       "affine designs")
    _add_ddg_flags(p)

    p = sub.add_parser("gen-srg1", help="strongly regular graph by coclique "
                                        "attachment")
    _add_ddg_flags(p)
    p.add_argument("--phi", default="identity",
                   help="identity | FILE | file:FILE (class-to-block map)")

    p = sub.add_parser("gen-srg2", help="strongly regular graph by Hoffman "
                                        "coloring and clique attachment")
    p.add_argument("--base", required=True,
                   help="t8 | chang1 | chang2 | chang3 | g6:FILE")
    p.add_argument("--design", default="fano", help="fano | file:PATH")
    p.add_argument("--coloring", type=int, default=0,
                   help="index into the deterministic coloring enumeration")
    p.add_argument("--phi", default="identity",
                   help="identity | FILE | file:FILE (class-to-block map)")
    p.add_argument("--out", help="output path prefix")

    p = sub.add_parser("verify", help="check a graph6 graph from stdin")
    p.add_argument("--expect", choices=("srg", "ddg"), default="srg")
    p.add_argument("--classes", help="partition file for --expect ddg")
    p.add_argument("--in", dest="infile", help="read graph6 from a file")
    p.add_argument("--cert", help="write the certificate JSON here")

    p = sub.add_parser("spectrum", help="exact spectrum given candidates")
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--candidates", help="e.g. '6,2,0,-2' or 'sqrt(5)'; "
                       "--candidates=-2,0,2 for a list led by a minus")
    given.add_argument("--ddg", help="v,k,lambda1,lambda2,m,n")
    given.add_argument("--srg", help="v,k,lambda,mu")
    p.add_argument("--in", dest="infile")

    p = sub.add_parser("canon", help="canonical graph6 and group order per "
                                     "input line")
    p.add_argument("--in", dest="infile")

    p = sub.add_parser("count-classes", help="group graph6 lines by "
                                             "isomorphism class")
    p.add_argument("--in", dest="infile")
    p.add_argument("--out", help="write the JSON map here")

    p = sub.add_parser("sp-graph", help="symplectic graph over GF(q)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--complement", action="store_true")

    p = sub.add_parser("clique-census", help="enumerate ratio-bound cliques")
    p.add_argument("--in", dest="infile")
    p.add_argument("--out", help="write the full clique list here")

    p = sub.add_parser("bound", help="exact counting lower bound")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (SrgforgeError, ValueError, OSError) as exc:
        print(f"srgforge: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
