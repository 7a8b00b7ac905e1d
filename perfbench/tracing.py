"""Spans around the package's public functions, installed from outside.

A Tracer rebinds each traced function in every ``hedge_iep`` module that
holds it by name (``bareiss_determinant`` lives in ``mpoly`` and in
``rigid``, ``build_C`` in ``lambdas``, ``pth``, ``repro`` and ``cli``) and
wraps the traced methods on their classes.  Uninstalling puts every replaced
attribute back.  Spans are kept in memory as
``[name, start, end, parent_index, run_id, ok]`` and written out at the end;
for ``lru_cache`` functions each call also counts as a compute or a cache hit.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, attribute); a dotted attribute is a method on a class
TARGETS = (
    ("trees.build", "hedge_iep.trees", "build_hedge"),
    ("trees.profile", "hedge_iep.trees", "profile"),
    ("trees.pendent_paths", "hedge_iep.trees", "pendent_paths"),
    ("covers.path_cover_number", "hedge_iep.covers", "path_cover_number"),
    ("covers.zero_forcing_number", "hedge_iep.covers", "zero_forcing_number"),
    ("covers.M_formula", "hedge_iep.covers", "M_formula"),
    ("weights.symmetric_representative", "hedge_iep.weights", "symmetric_representative"),
    ("weights.to_numpy", "hedge_iep.weights", "WeightedMatrix.to_numpy"),
    ("weights.collapse_pendent_k_paths", "hedge_iep.weights", "collapse_pendent_k_paths"),
    ("lambdas.abc_coefficients", "hedge_iep.lambdas", "abc_coefficients"),
    ("lambdas.build_C", "hedge_iep.lambdas", "build_C"),
    ("lambdas.char_polys", "hedge_iep.lambdas", "char_polys"),
    ("lambdas.remainder_poly", "hedge_iep.lambdas", "remainder_poly"),
    ("numeric.eigenvalues_sym", "hedge_iep.numeric", "eigenvalues_sym"),
    ("numeric.cluster_multiplicities", "hedge_iep.numeric", "cluster_multiplicities"),
    ("spectra.gap_vector", "hedge_iep.spectra", "gap_vector"),
    ("polys.exact_div", "hedge_iep.polys", "PolyQ.exact_div"),
    ("polys.poly_gcd", "hedge_iep.polys", "poly_gcd"),
    ("mpoly.bareiss_determinant", "hedge_iep.mpoly", "bareiss_determinant"),
    ("mpoly.divmod_lex", "hedge_iep.mpoly", "MPolyQ.divmod_lex"),
    ("algebraic.refined_xi", "hedge_iep.algebraic", "refined_xi"),
    ("pth.ph_construct", "hedge_iep.pth", "ph_construct"),
    ("pth.ph_spectrum", "hedge_iep.pth", "ph_spectrum"),
    ("pth.recognize", "hedge_iep.pth", "recognize"),
    ("pth.recognize_search", "hedge_iep.pth", "recognize_search"),
    ("pth.t31_exact_spectrum", "hedge_iep.pth", "t31_exact_spectrum"),
    ("rigid.char_poly_symbolic", "hedge_iep.rigid", "char_poly_symbolic"),
    ("rigid.remainder_symbolic", "hedge_iep.rigid", "remainder_symbolic"),
    ("rigid.level_resultant", "hedge_iep.rigid", "level_resultant"),
    ("rigid.simplify_resultant", "hedge_iep.rigid", "simplify_resultant"),
    ("rigid.companion_double_root_entry", "hedge_iep.rigid", "companion_double_root_entry"),
    ("rigid.solve_rigid", "hedge_iep.rigid", "solve_rigid"),
    ("rigid.solve_route_a", "hedge_iep.rigid", "solve_route_a"),
    # MPolyQ.evaluate is only called with QXi arguments: route B's exact check
    ("rigid.route_b_eval", "hedge_iep.mpoly", "MPolyQ.evaluate"),
    ("rigid.certify_coincidences", "hedge_iep.rigid", "certify_coincidences"),
    ("rigid.rigid_level_spectra", "hedge_iep.rigid", "rigid_level_spectra"),
    ("rigid.rigid_multiplicity_list", "hedge_iep.rigid", "rigid_multiplicity_list"),
    ("rigid.rigid_b_values", "hedge_iep.rigid", "rigid_b_values"),
    ("rigid.level_figure_data", "hedge_iep.rigid", "level_figure_data"),
    ("rigid.consecutive_interlacing_gap", "hedge_iep.rigid", "consecutive_interlacing_gap"),
)

#: counters read from arguments at a layer boundary: span name -> (counter, size of args)
SIZE_HOOKS = {"numeric.eigenvalues_sym": ("numeric.eigen_order_sum", lambda args: len(args[0]))}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hedge_iep" or name.startswith("hedge_iep."))]


class Tracer:
    """Records spans and counts; ``installed()`` wraps the targets for the
    duration of a ``with`` block."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.run_id, True])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, ok: bool) -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        span[5] = ok
        self._stack.pop()

    @contextlib.contextmanager
    def request(self, name: str):
        """Root span of one benchmark request; its spans share a run id."""
        self.run_id += 1
        idx = self._open("request." + name)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(idx, ok)

    def wrap(self, name: str, fn):
        tracer = self
        cache_info = getattr(fn, "cache_info", None)
        size_hook = SIZE_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if size_hook:
                tracer.counts[size_hook[0]] += size_hook[1](args)
            misses = cache_info().misses if cache_info else 0
            idx = tracer._open(name)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                tracer._close(idx, ok)
                if cache_info:
                    kind = "computes" if cache_info().misses > misses else "cache_hits"
                    tracer.counts[f"{name}.{kind}"] += 1

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for name, modname, attr in TARGETS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(name, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self.wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._saved.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, orig = self._saved.pop()
            setattr(owner, key, orig)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: outermost total time, self time, calls, and the
        total time of calls that raised; plus the counters and each request's
        unattributed remainder (its time not inside any layer span)."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: dict = {}
        unattributed = 0.0
        requests = 0.0
        for idx, (name, start, end, parent, _, ok) in enumerate(self.spans):
            dur = end - start
            row = layers.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0,
                                           "raised_s": 0.0, "raised_calls": 0,
                                           "in_parent": Counter()})
            row["calls"] += 1
            row["self_s"] += dur - child_time[idx]
            if parent >= 0:
                row["in_parent"][self.spans[parent][0]] += 1
            if not self._inside_same_name(idx):
                row["total_s"] += dur
                if not ok:
                    row["raised_s"] += dur
                    row["raised_calls"] += 1
            if name.startswith("request."):
                requests += dur
                unattributed += dur - child_time[idx]
        for row in layers.values():
            row["in_parent"] = dict(row["in_parent"])
        return {
            "layers": layers,
            "counts": dict(self.counts),
            "requests_s": requests,
            "unattributed_s": unattributed,
        }

    def _inside_same_name(self, idx: int) -> bool:
        name = self.spans[idx][0]
        p = self.spans[idx][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _NoTrace:
    """Stand-in used for untraced runs: no spans, no wrapping."""

    def request(self, name: str):
        return contextlib.nullcontext()

    def installed(self):
        return contextlib.nullcontext(self)


NO_TRACE = _NoTrace()
