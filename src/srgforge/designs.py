"""Block designs on integer point sets.

Two flavours: resolvable designs whose blocks come grouped into parallel
classes (each class partitions the points), and symmetric 2-designs with as
many blocks as points.  Generators come from affine and projective geometry
over a finite field; arbitrary designs can be loaded from a plain-text block
list.  Verifiers check the axioms exhaustively and report a Certificate
instead of raising, so a failed check is data.  Pair balance and block
intersections are pair counts of the incidence matrix (`incidence`), on the
graph pair kernel's fold, with one `SameClass` class where every pair has
one count; the coclique and clique attachments join classes to points by
the same matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ShapeError
from .gf import FiniteField, enumerate_hyperplanes, projective_points
from .graphs import (Certificate, certificate, check_power, check_vertices,
                     degrees, pair_witness, SameClass)


@dataclass(frozen=True)
class ResolvableDesign:
    """Blocks grouped into parallel classes, each partitioning [0, n_points)."""

    n_points: int
    classes: tuple[tuple[tuple[int, ...], ...], ...]
    source: str = "unknown"

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def blocks_per_class(self) -> int:
        return len(self.classes[0]) if self.classes else 0

    def block_index_table(self) -> list[list[int]]:
        """table[c][p] = index within class c of the block containing p.

        Well-defined only when every class partitions the points; callers
        that need that guarantee run verify_resolvable first.
        """
        table = [[-1] * self.n_points for _ in self.classes]
        for c, cls in enumerate(self.classes):
            for b, block in enumerate(cls):
                for p in block:
                    table[c][p] = b
        return table


@dataclass(frozen=True)
class SymmetricDesign:
    """2-design with equally many points and blocks."""

    n_points: int
    blocks: tuple[tuple[int, ...], ...]
    params: tuple[int, int, int]  # (v, k, lambda)


def check_glued(q: int, d: int) -> None:
    """TooLarge when the glued AG(d, q) graph, q >= 2, is over the limit."""
    check_power(q, d, "the glued graph")
    n = q**d
    check_vertices(n * (n - 1) // (q - 1), "the glued graph")


def affine_geometry_design(field: FiniteField, d: int) -> ResolvableDesign:
    """Point-hyperplane design of the affine space of dimension d over GF(q).

    q^d points; one parallel class per hyperplane direction, so
    (q^d - 1)/(q - 1) classes of q blocks of size q^{d-1}.  Class order and
    block order follow enumerate_hyperplanes.  Raises TooLarge when the
    graph glued from m copies, on q^d m vertices, would be over the limit.
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    check_glued(field.q, d)
    n = field.q**d
    classes = tuple(
        tuple(levels) for _, levels in enumerate_hyperplanes(field, d)
    )
    return ResolvableDesign(n, classes, "affine-geometry")


def projective_complement_design(field: FiniteField, d: int) -> SymmetricDesign:
    """Complements of hyperplanes in the projective space of rank d over GF(q).

    Points are the normalized projective points of F_q^d in lexicographic
    order; the block for hyperplane normal a is the set of points off that
    hyperplane.  Parameters ((q^d-1)/(q-1), q^{d-1}, q^{d-2}(q-1)).  Raises
    TooLarge when the AG(d, q) graph glued on its m points is over the limit.
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    q = field.q
    check_glued(q, d)
    pts = projective_points(field, d)
    blocks = tuple(tuple(np.flatnonzero(row).tolist())
                   for row in field.gram(pts, pts))
    v = (q**d - 1) // (q - 1)
    return SymmetricDesign(v, blocks, (v, q ** (d - 1), q ** (d - 2) * (q - 1)))


def fano_plane() -> SymmetricDesign:
    """The 2-(7,3,1) design, blocks {i, i+1, i+3} mod 7."""
    blocks = tuple(tuple(sorted((i + s) % 7 for s in (0, 1, 3)))
                   for i in range(7))
    return SymmetricDesign(7, blocks, (7, 3, 1))


def incidence(n_points: int, blocks) -> np.ndarray:
    """Boolean point-by-block incidence matrix N, N[p, b] set when point p
    of [0, n_points) lies in blocks[b].  Two rows of N share the blocks
    through both points, two rows of N.T the points of both blocks."""
    m = np.zeros((n_points, len(blocks)), bool)
    for b, block in enumerate(blocks):
        m[list(block), b] = True
    return m


def verify_resolvable(design: ResolvableDesign) -> Certificate:
    """Check the resolvable-design axioms exhaustively.

    Partition per class and constant block size first; once they hold, the
    pair kernel checks a constant pair count, positive for n > 1 points,
    over the rows of the incidence matrix N, and a constant intersection
    over the rows of N.T of blocks from different classes, each inferred
    from its first pair.  The certificate carries the observed constants
    and the first counterexample of each failed check.
    """
    witnesses = []
    n = design.n_points
    blocks = [b for cls in design.classes for b in cls]

    for c, cls in enumerate(design.classes):
        seen: set[int] = set()
        for p in (p for block in cls for p in block):
            if not 0 <= p < n or p in seen:
                witnesses.append({"check": "partition", "class": c, "point": p})
                break
            seen.add(p)
        else:
            if len(seen) == n:
                continue
            witnesses.append({"check": "partition", "class": c,
                              "covered": len(seen)})
        break

    sizes = {len(b) for b in blocks}
    block_size = min(sizes) if sizes else 0
    if len(sizes) > 1:
        witnesses.append({"check": "block-size", "sizes": sorted(sizes)})

    pair_count = cross = 0
    if not witnesses:
        m = incidence(n, blocks)
        # one class: every pair is in stratum 1
        bad, (_, pair_count) = pair_witness(
            m, SameClass(np.zeros(n)), (None, "pair-balance"))
        if n > 1 and not (bad or pair_count):
            bad = {"check": "pair-balance", "pair": [0, 1], "count": 0,
                   "expected": "positive"}
        cls = np.repeat(np.arange(design.n_classes),
                        [len(c) for c in design.classes])
        # blocks of one class are disjoint, as the partition check proved
        bad2, (cross, _) = pair_witness(m.T, SameClass(cls),
                                        ("cross-intersection", "partition"),
                                        (None, 0))
        witnesses += filter(None, (bad, bad2))

    return certificate(
        "design",
        parameters={
            "n_points": n,
            "n_classes": design.n_classes,
            "blocks_per_class": design.blocks_per_class,
            "block_size": block_size,
            "pair_count": pair_count,
            "cross_intersection": cross,
        },
        witnesses=witnesses,
        provenance={"source": design.source},
    )


def verify_symmetric(design: SymmetricDesign) -> Certificate:
    """Check the symmetric 2-design axioms exhaustively.

    Block count = point count, constant block size, points in range and
    point degree = block size first; once they hold, the pair kernel checks
    a constant pair count over the rows of the incidence matrix N, inferred
    from its first pair, and block intersections over the rows of N.T
    equal to it.  Last, the declared parameters.
    """
    witnesses = []
    v = design.n_points

    if len(design.blocks) != v:
        witnesses.append({"check": "block-count", "blocks": len(design.blocks),
                          "points": v})

    sizes = {len(set(b)) for b in design.blocks}
    k = min(sizes) if sizes else 0
    if len(sizes) > 1 or any(len(b) != len(set(b)) for b in design.blocks):
        witnesses.append({"check": "block-size", "sizes": sorted(sizes)})

    lam = 0
    bad = next((p for b in design.blocks for p in b if not 0 <= p < v), None)
    if bad is not None:
        witnesses.append({"check": "point-range", "point": bad})
    else:
        m = incidence(v, design.blocks)
        point_degrees = sorted(set(degrees(m).tolist()))
        if any(d != k for d in point_degrees):
            witnesses.append({"check": "point-degree",
                              "degrees": point_degrees})
        elif not witnesses:
            one = SameClass(np.zeros(v))
            bad, (_, lam) = pair_witness(m, one, (None, "pair-balance"))
            bad2, _ = pair_witness(m.T, one, (None, "block-intersection"),
                                   (None, lam))
            witnesses += filter(None, (bad, bad2))

    expected = (v, k, lam)
    if not witnesses and expected != design.params:
        witnesses.append({"check": "declared-params",
                          "declared": list(design.params),
                          "observed": list(expected)})

    return certificate(
        "design",
        parameters={"v": v, "k": k, "lambda": lam},
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# plain-text interchange format
#
# line 1: `resolvable n_points n_classes blocks_per_class`
#         or `symmetric v k lambda`
# then one block per line as space-separated 0-based point indices;
# resolvable files list the classes consecutively; `#` starts a comment.


def data_lines(path: str):
    """(line number, text) of each line with its `#` comment and surrounding
    blanks removed, skipping lines left empty."""
    with open(path, encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line


def int_tokens(tokens, lineno: int, line: str) -> list[int]:
    """tokens read as integers; ParseError quoting data line lineno on a
    token that is not an integer."""
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise ParseError(f"non-integer token in {line!r}", line=lineno) from None


def int_lines(path: str):
    """(line number, integers) of each data line of path."""
    for lineno, line in data_lines(path):
        yield lineno, int_tokens(line.split(), lineno, line)


def write_lines(path: str, rows) -> None:
    """Write each row as one line of space-separated tokens."""
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(" ".join(map(str, row)) + "\n" for row in rows)


def _parse_block(line: str, lineno: int, n_points: int) -> tuple[int, ...]:
    points = tuple(int_tokens(line.split(), lineno, line))
    if len(set(points)) != len(points):
        raise ShapeError(f"line {lineno}: duplicate point in block {line!r}")
    for p in points:
        if not 0 <= p < n_points:
            raise ShapeError(f"line {lineno}: point {p} outside [0, {n_points})")
    return points


def load_design(path: str, kind: str):
    """Parse a design file; axiom verification stays with the caller."""
    if kind not in ("resolvable", "symmetric"):
        raise ValueError(f"unknown design kind {kind!r}")
    lines = list(data_lines(path))
    if not lines:
        raise ParseError(f"{path}: no design header found")

    lineno, header = lines[0]
    fields = header.split()
    if fields[0] != kind:
        raise ParseError(f"expected {kind!r} header, got {fields[0]!r}", line=lineno)
    if len(fields) != 4:
        raise ParseError("header needs exactly 3 integers", line=lineno)
    a, b, c = int_tokens(fields[1:], lineno, header)

    body = lines[1:]
    if kind == "resolvable":
        n_points, n_classes, per_class = a, b, c
        if len(body) != n_classes * per_class:
            raise ShapeError(
                f"{path}: expected {n_classes}x{per_class} block lines, "
                f"got {len(body)}")
        blocks = [_parse_block(line, no, n_points) for no, line in body]
        classes = tuple(
            tuple(blocks[i * per_class:(i + 1) * per_class])
            for i in range(n_classes)
        )
        return ResolvableDesign(n_points, classes, f"file:{path}")

    v, k, lam = a, b, c
    if len(body) != v:
        raise ShapeError(f"{path}: expected {v} block lines, got {len(body)}")
    blocks = tuple(_parse_block(line, no, v) for no, line in body)
    return SymmetricDesign(v, blocks, (v, k, lam))


def save_design(design, path: str) -> None:
    if isinstance(design, ResolvableDesign):
        write_lines(path, [("resolvable", design.n_points, design.n_classes,
                            design.blocks_per_class),
                           *(block for cls in design.classes for block in cls)])
    else:
        write_lines(path, [("symmetric", *design.params), *design.blocks])
