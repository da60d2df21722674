"""Per-layer tracing from outside the package.

Wrappers replace a public function in every ``yoccoz.*`` module namespace
that binds it (and a method on its class), so calls through any import path
are seen.  Three wrapper kinds:

- ``span``: counts calls and records a span (name, start, end, parent);
- ``recursive``: counts every entry but records a span only for the
  outermost one (entries while the function is already active are counted as
  calls, the outermost ones also as queries);
- ``count``: counts calls only, for hot helpers where a span would cost more
  than the work.

A layer's self time is the sum over its spans of the span's duration minus
the time covered by its child spans, so the self times of the spans under a
root add up to the root's duration.  Spans are kept in flat arrays and
written out once, at the end of the run.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (metric prefix, module, attribute or Class.method, wrapper kind); the
# module is the layer
TARGETS = [
    ("cli.main", "cli", "main", "span"),
    ("angles.double", "angles", "double", "count"),
    ("angles.normalize", "angles", "normalize", "count"),
    ("lamination.build", "lamination", "build", "span"),
    ("lamination.alpha_cycle", "lamination", "alpha_cycle", "span"),
    ("lamination.same_gap", "lamination", "Lamination.same_gap", "recursive"),
    ("lamination.trace", "lamination", "Lamination.trace", "recursive"),
    ("lamination.is_vertex", "lamination", "Lamination.is_vertex", "count"),
    ("lamination.polygons_inside", "lamination", "Lamination.polygons_inside", "recursive"),
    ("puzzle.tau_sequence", "puzzle", "tau_sequence", "span"),
    ("puzzle.descendant_check", "puzzle", "descendant_check", "span"),
    ("puzzle.first_nondegenerate", "puzzle", "first_nondegenerate", "span"),
    ("puzzle.fraternal_descendants", "puzzle", "fraternal_descendants", "span"),
    ("puzzle.enumerate_pieces", "puzzle", "enumerate_pieces", "span"),
    ("puzzle.sub_pieces", "puzzle", "sub_pieces", "span"),
    ("tiling.residual_member", "tiling", "residual_member", "span"),
    ("tiling.build_certificate", "tiling", "build_certificate", "span"),
    ("tiling.verify_certificate", "tiling", "verify_certificate", "span"),
    ("renorm.detect", "renorm", "detect", "span"),
    ("geometry.trace_ray", "geometry", "trace_ray", "span"),
    ("geometry.ray_point", "geometry", "ray_point", "span"),
    ("geometry.piece_curve", "geometry", "piece_curve", "span"),
    ("geometry.modulus_estimate", "geometry", "modulus_estimate", "span"),
    ("render.render_puzzle", "render", "render_puzzle", "span"),
    ("sobolev.verify_slitbounds", "sobolev", "verify_slitbounds", "span"),
    ("sobolev.harmonic_extension_strip", "sobolev", "harmonic_extension_strip", "span"),
    ("sobolev.strip_Iij", "sobolev", "strip_Iij", "span"),
    ("sobolev.dirichlet_norm", "sobolev", "dirichlet_norm", "span"),
    ("sobolev.kernel_constant", "sobolev", "kernel_constant", "span"),
    ("plgeom.make_cell", "plgeom", "make_cell", "count"),
    ("plgeom.PLAtlas.dilatations", "plgeom", "PLAtlas.dilatations", "span"),
    ("qcmodel.phi_atlas", "qcmodel", "phi_atlas", "span"),
    ("qcmodel.strip_model", "qcmodel", "strip_model", "span"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: Counter = Counter()
        self.queries: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)  # summed span durations
        self.extra: Counter = Counter()  # result-derived counts (points, cells, ...)
        self._stack: list[int] = []
        self._child: list[float] = []
        self._active: set[str] = set()
        self._restore: list = []

    # ---------------------------------------------------------------- spans

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        return idx

    def _close(self, name: str, idx: int, t0: float, t1: float):
        self._stack.pop()
        child = self._child.pop()
        self.span_start[idx] = t0
        self.span_end[idx] = t1
        self.self_s[name] += (t1 - t0) - child
        self.total_s[name] += t1 - t0
        if self._child:
            self._child[-1] += t1 - t0

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of the given name."""
        self.calls[name] += 1
        idx = self._open(name)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, idx, t0, perf_counter())

    # ------------------------------------------------------------- wrappers

    def _wrap(self, name: str, kind: str, fn, on_result):
        calls = self.calls
        if kind == "count":
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        run = self.run

        def spanned(*args, **kwargs):
            result = run(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        if kind == "span":
            return spanned
        active = self._active

        def recursive(*args, **kwargs):
            if name in active:
                calls[name] += 1
                return fn(*args, **kwargs)
            active.add(name)
            self.queries[name] += 1
            try:
                return spanned(*args, **kwargs)
            finally:
                active.discard(name)
        return recursive

    def install(self, on_result: dict | None = None):
        """Wrap every target; ``on_result`` maps span names to result hooks."""
        on_result = on_result or {}
        for _, module, _, _ in TARGETS:  # every layer, used by this workload or not
            importlib.import_module(f"yoccoz.{module}")
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "yoccoz" or n.startswith("yoccoz."))]
        for name, module, attr, kind in TARGETS:
            owner = sys.modules[f"yoccoz.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, kind, orig, on_result.get(name)))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, kind, orig, on_result.get(name))
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for obj, key, orig in reversed(self._restore):
            setattr(obj, key, orig)
        self._restore.clear()

    # --------------------------------------------------------------- output

    def write_spans(self, path: str):
        """One line per span: id, parent id, name, start and end (seconds)."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")
