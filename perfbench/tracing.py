"""Outside-in tracing of smallmodel's public functions.

The traced run replaces each function below with a wrapper, in its
defining module and in every smallmodel module that imported it by name,
and records calls and self time (span time minus the time of traced
calls nested inside it), so self times add up to no more than the pass.
A few wrappers also count work from arguments or results. Nothing inside
``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

from smallmodel.normalform import DEFAULT_BIT_BOUND

# (module, attribute or Class.method, layer name, extra counter)
TARGETS = (
    ("ratlin", "rref", "ratlin.rref", None),
    ("ratlin", "intersection", "ratlin.intersection", "distinct"),
    ("ratlin", "sum_space", "ratlin.sum_space", None),
    ("ratlin", "nullspace", "ratlin.nullspace", None),
    ("ratlin", "sparse_rank", "ratlin.sparse_rank", "rows"),
    ("flags", "RationalFlag.make", "flags.RationalFlag.make", None),
    ("flags", "coordinate_flag", "flags.coordinate_flag", "distinct"),
    ("flags", "orbit_codim", "flags.orbit_codim", None),
    ("flags", "slm_inequality", "flags.slm_inequality", None),
    ("flags", "induced_flags", "flags.induced_flags", None),
    ("flags", "f0_subflag", "flags.f0_subflag", None),
    ("flags", "finite_building", "flags.finite_building", None),
    ("normalform", "invariant_factors", "normalform.invariant_factors", "smith"),
    ("normalform", "rank_mod_p", "normalform.rank_mod_p", None),
    ("complexes", "SimplicialComplex.__init__", "complexes.SimplicialComplex", None),
    ("complexes", "chain_complex", "complexes.chain_complex", None),
    ("complexes", "tensor_total", "complexes.tensor_total", None),
    ("complexes", "ChainComplex.check_dd_zero", "complexes.ChainComplex.check_dd_zero", None),
    ("complexes", "ChainComplex.boundary_columns",
     "complexes.ChainComplex.boundary_columns", None),
    ("diagonal", "build_diagonal", "diagonal.build_diagonal", "product_cells"),
    ("diagonal", "check_retraction", "diagonal.check_retraction", None),
    ("diagonal", "decomposition_check", "diagonal.decomposition_check", None),
    ("surfaces", "enumerate_multicurves", "surfaces.enumerate_multicurves", "distinct"),
    ("surfaces", "lemma_smallstabilizers_sweep", "surfaces.lemma_smallstabilizers_sweep", None),
    ("smallness", "check_small", "smallness.check_small", "pairs"),
    ("smallness", "vanishing_certificate", "smallness.vanishing_certificate", None),
    ("smallness", "generate_join_model", "smallness.generate_join_model", None),
    ("cupforms", "compression_criterion_b2", "cupforms.compression_criterion_b2", "digits"),
)
# networkx as bound in surfaces; these two layers read 0 once surfaces stops
# binding ``nx`` / ``nxiso``
NETWORKX = ("surfaces.wl_hash", "surfaces.iso_test")

MATRIX = ("ratlin.rref", "ratlin.intersection", "ratlin.sum_space", "ratlin.nullspace",
          "ratlin.sparse_rank")
FLAG_PAIRS = ("flags.RationalFlag.make", "flags.orbit_codim", "flags.slm_inequality",
              "flags.induced_flags", "flags.f0_subflag")
# Layers predicted to run on each workload; every other layer must read 0.
ACTIVE = {
    "flag-sweep": MATRIX + FLAG_PAIRS + ("flags.coordinate_flag",),
    "flag-random": MATRIX + FLAG_PAIRS,
    "homology": (
        "flags.finite_building", "normalform.invariant_factors", "normalform.rank_mod_p",
        "complexes.SimplicialComplex", "complexes.chain_complex", "complexes.tensor_total",
        "complexes.ChainComplex.check_dd_zero", "complexes.ChainComplex.boundary_columns",
        "diagonal.build_diagonal", "diagonal.check_retraction", "diagonal.decomposition_check",
    ),
    "curves-certs": (
        "surfaces.enumerate_multicurves", "surfaces.lemma_smallstabilizers_sweep",
        "smallness.check_small", "smallness.vanishing_certificate",
        "smallness.generate_join_model", "cupforms.compression_criterion_b2",
    ) + NETWORKX,
}


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counts = {}   # "<layer>.<counter>" -> number
        self.keys = {}     # layer -> set of distinct argument tuples
        self.absent = set()
        self._stack = []   # time spent in traced children of each open span

    def wrap(self, name, fn, before=None, after=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls[name], self_s[name] = 0, 0.0
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                calls[name] += 1
                self_s[name] += spent - stack.pop()
                if stack:
                    stack[-1] += spent
            if after is not None:
                after(out)
            return out

        return traced

    def _counter(self, key, combine):
        """A callback folding values into counts[key] with ``combine``."""
        self.counts[key] = 0
        return lambda value: self.counts.__setitem__(key, combine(self.counts[key], value))

    def _hooks(self, name, kind):
        """(before, after) callbacks that feed the layer's extra counter."""
        if kind == "distinct":
            seen = self.keys.setdefault(name, set())
            return (lambda *args: seen.add(args)), None
        if kind == "rows":
            add = self._counter(name + ".rows", int.__add__)
            return (lambda rows: add(len(rows))), None
        if kind == "smith":
            add = self._counter(name + ".nnz_in", int.__add__)
            bits = self._counter(name + ".max_factor_bits", max)
            return ((lambda columns, *rest, **kw: add(sum(len(col) for col in columns))),
                    (lambda factors: bits(max((f.bit_length() for f in factors), default=0))))
        if kind == "product_cells":
            add = self._counter("diagonal.product_cells", int.__add__)
            return None, (lambda parts: add(sum(len(c) for c in parts.product.cells.values())))
        if kind == "pairs":
            add = self._counter(name + ".pairs", int.__add__)
            return (lambda X: add(len(X.pairs))), None
        if kind == "digits":
            digits = self._counter("cupforms.max_coeff_digits", max)
            return (lambda T: digits(max(
                len(str(abs(part))) for c in (T.c111, T.c112, T.c122, T.c222)
                for part in (c.numerator, c.denominator)))), None
        return None, None

    def install(self):
        """Wrap every target in place."""
        for module, attr, name, kind in TARGETS:
            mod = importlib.import_module(f"smallmodel.{module}")
            before, after = self._hooks(name, kind)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(name, raw.__func__, before, after)))
                else:
                    setattr(cls, meth, self.wrap(name, raw, before, after))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(name, orig, before, after)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("smallmodel"):
                    for key, value in list(vars(other).items()):
                        if value is orig:
                            setattr(other, key, wrapped)
        self._install_networkx()

    def _install_networkx(self):
        surfaces = importlib.import_module("smallmodel.surfaces")
        if not (hasattr(surfaces, "nx") and hasattr(surfaces, "nxiso")):
            self.absent.update(NETWORKX)
            for name in NETWORKX:
                self.calls[name], self.self_s[name] = 0, 0.0
            return
        nx, nxiso = surfaces.nx, surfaces.nxiso
        wl_hash = self.wrap("surfaces.wl_hash", nx.weisfeiler_lehman_graph_hash)
        matcher = type("TracedGraphMatcher", (nxiso.GraphMatcher,), {
            "is_isomorphic": self.wrap("surfaces.iso_test", nxiso.GraphMatcher.is_isomorphic),
        })
        surfaces.nx = _Proxy(nx, weisfeiler_lehman_graph_hash=wl_hash)
        surfaces.nxiso = _Proxy(nxiso, GraphMatcher=matcher)

    def problems(self, workload, wall_s):
        """Silent zeros (a layer whose call count contradicts the prediction
        in ACTIVE), self times that add up to more than the pass, and Smith
        factors beyond the bit bound."""
        active = set(ACTIVE[workload]) - self.absent
        problems = []
        for name, calls in sorted(self.calls.items()):
            if name in active and not calls:
                problems.append(f"{name} predicted to run on {workload} but made 0 calls")
            elif name not in active and calls:
                problems.append(f"{name} predicted idle on {workload} but made {calls} calls")
        if sum(self.self_s.values()) > wall_s:
            problems.append(f"self times add up to {sum(self.self_s.values()):.3f} s, "
                            f"more than the pass's {wall_s:.3f} s")
        bits = self.counts.get("normalform.invariant_factors.max_factor_bits", 0)
        if bits > DEFAULT_BIT_BOUND:
            problems.append(f"a Smith factor has {bits} bits, over the bound {DEFAULT_BIT_BOUND}")
        return problems

    def layer_metrics(self):
        """Every per-layer number of one pass, by metric name."""
        out = dict(self.counts)
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name, seen in self.keys.items():
            out[f"{name}.distinct_frac"] = len(seen) / self.calls[name] if self.calls[name] else 0.0
        return out

class _Proxy:
    """A module stand-in: the given names replaced, the rest passed through."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)
