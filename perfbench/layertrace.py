"""Layer trace: spans around the public functions of each srgforge module.

`Tracer.install` replaces each traced function in every srgforge module
namespace that holds it (and `Graph.__post_init__` / `Graph.relabel` on the
class), so nested calls such as construct_srg1 -> verify_ddg and
graph6_decode -> Graph appear as child spans.  Spans stay in memory with
parent links; a span's self time is its duration minus its children's.

Besides calls and self time, the tracer keeps counts worked out from the
arguments and results, outside the program ("computed"): verifier pairs,
matrix products and multiply-adds, graph6 bytes and canon vertices.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

from srgforge import canon, cli, ddg, designs, gf, graphs, spectra, srg, \
    symplectic

# (module, attribute path) of every traced function; the span name is
# "<module>.<attribute path>", except that Graph.__post_init__ is "graphs.Graph"
TRACED = (
    (gf, "make_field"),
    (designs, "affine_geometry_design"),
    (designs, "projective_complement_design"),
    (designs, "verify_symmetric"),
    (ddg, "construct_ddg"),
    (ddg, "verify_ddg"),
    (ddg, "random_left_quasigroup"),
    (ddg, "random_bijection_family"),
    (graphs, "Graph.__post_init__"),
    (graphs, "graph6_encode"),
    (graphs, "graph6_decode"),
    (graphs, "Graph.relabel"),
    (spectra, "exact_spectrum"),
    (spectra, "adjacency_matrix"),
    (srg, "construct_srg1"),
    (srg, "verify_srg1_cases"),
    (srg, "verify_srg"),
    (srg, "construct_ddg_hoffman"),
    (srg, "construct_srg2"),
    (srg, "hoffman_colorings"),
    (canon, "canonical_form"),
    (canon, "count_classes"),
    (symplectic, "symplectic_graph"),
    (symplectic, "delsarte_clique_census"),
) + tuple((cli, name) for name in sorted(vars(cli)) if name.startswith("cmd_"))


def span_name(module, attr: str) -> str:
    short = module.__name__.rpartition(".")[2]
    return f"{short}.{attr.removesuffix('.__post_init__')}"


def _pairs(args, kwargs, cert) -> dict:
    """Pairs a verifier checked: n(n-1)/2 for a passing certificate, else
    the loop position of the witness pair plus one (0 when the pair loop
    never ran)."""
    n = args[0].n
    if cert.passed:
        return {"pairs": n * (n - 1) // 2}
    pair = cert.witnesses[0].get("pair")
    if pair is None:
        return {"pairs": 0}
    u, w = pair
    return {"pairs": u * n - u * (u + 1) // 2 + (w - u - 1) + 1}


def _spectrum_work(args, kwargs, result) -> dict:
    """Matrix products of exact_spectrum: A^2, one per annihilating factor
    and one per trace power beyond the first."""
    g, candidates = args[0], args[1]
    ints = {c for c in candidates if isinstance(c, int)}
    rads = {c.radicand for c in candidates if not isinstance(c, int)}
    products = 1 + len(ints) + len(rads) + max(0, len(ints) + 2 * len(rads) - 1)
    return {"products": products, "madds": products * g.n ** 3}


# span name -> (computed count names, function of (args, kwargs, result))
COMPUTED = {
    "ddg.verify_ddg": (("pairs",), _pairs),
    "srg.verify_srg": (("pairs",), _pairs),
    "srg.verify_srg1_cases": (("pairs",), _pairs),
    "spectra.exact_spectrum": (("products", "madds"), _spectrum_work),
    "graphs.graph6_decode": (("bytes",),
                             lambda a, k, r: {"bytes": len(a[0].strip())}),
    "graphs.graph6_encode": (("bytes",), lambda a, k, r: {"bytes": len(r)}),
    "canon.canonical_form": (("vertices",),
                             lambda a, k, r: {"vertices": a[0].n}),
}


def layer_names() -> list[str]:
    return [span_name(m, a) for m, a in TRACED]


def computed_names() -> list[str]:
    return [f"{name}.{key}" for name, (keys, _) in COMPUTED.items()
            for key in keys]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, parent, request, start, end]
        self.stack: list[int] = []
        self.request = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.computed: dict[str, int] = defaultdict(int)
        self._installed: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, parent, self.request, time.perf_counter(),
                           None])
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        computed = COMPUTED.get(name, ((), None))[1]
        if inspect.isgeneratorfunction(fn):
            # a span per resumption, so lazy work is charged where it runs
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        sid = tracer._open(name)
                        try:
                            value = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(sid)
                        yield value
                finally:
                    it.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if computed is not None:
                for key, value in computed(args, kwargs, result).items():
                    tracer.computed[f"{name}.{key}"] += value
            return result
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        namespaces = [m for key, m in sys.modules.items()
                      if key == "srgforge" or key.startswith("srgforge.")]
        for module, attr in TRACED:
            name = span_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._installed.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._installed.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, _, _, start, end), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """name -> (value, unit) for every layer and computed count."""
        self_s = self.self_times()
        out = {}
        for name in layer_names():
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
        for name in computed_names():
            out[name] = (self.computed.get(name, 0), "count-computed")
        return out

    def dump(self, path) -> None:
        t0 = self.spans[0][3] if self.spans else 0.0
        doc = [{"id": i, "name": name, "parent": parent, "request": req,
                "start_s": start - t0, "end_s": end - t0}
               for i, (name, parent, req, start, end) in enumerate(self.spans)]
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh)
            fh.write("\n")
