"""Per-layer spans for the benchmark, recorded from outside the package.

``Tracer.prepare`` wraps each layer module's public functions, and a
fixed list of methods, for every place they are looked up: the defining
module, every module that imported the name, the package namespace and
module-level dicts such as ``verify.SUITES``.  ``install`` puts the
wrappers there and ``uninstall`` puts the original objects back; while
installed, each call records a span (name, start, end, parent, task,
extra) in memory.  Modules, functions and methods that a later version
of the package no longer has are skipped, and their metrics read 0.  ``Polynomial.leading``
and the monomial helpers ``mono_mul``, ``mono_div`` and ``mono_lcm`` run
up to hundreds of thousands of times per task, so a span each would cost
more than the work it measures: ``leading`` is only counted, and the
helpers' time stays in their callers.
"""

from __future__ import annotations

import array
import functools
import gzip
import importlib
import types
from pathlib import Path

from workloads import SUITE_NAMES

LAYERS = ("cli", "parser", "divisor", "compute", "closed_forms", "recursion", "ideal", "poly",
          "certificates", "verify")
BENCH_LAYER = "bench"

# Module functions called too often for a span; their time stays in the caller.
UNWRAPPED = {"poly": {"mono_mul", "mono_div", "mono_lcm"}}
# (layer, class, method) wrapped with spans.
METHODS = (
    ("ideal", "Ideal", ("groebner", "canonical", "contains_poly", "contains_ideal", "equals",
                        "__eq__", "__add__", "__mul__", "__rmul__", "__pow__", "extend",
                        "to_str", "is_zero", "is_unit", "order_at_origin")),
    ("ideal", "GroebnerBasis", ("compute", "reduce", "contains")),
    ("poly", "Polynomial", ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__pow__",
                            "diff", "substitute", "extend", "monic", "to_str")),
)
# (layer, class, method) whose calls are counted without a span.
COUNTED = (("poly", "Polynomial", "leading"),)


class Tracer:
    """Spans in parallel arrays (about 30 bytes each), extras in a dict."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []   # name id -> layer id
        self.layers: list[str] = []
        self.depth: list[int] = []      # open spans per name id
        self.layer_depth: list[int] = []
        self.nid = array.array("i")
        self.parent = array.array("i")
        self.task_of = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.outer = bytearray()        # no enclosing span of the same layer
        self.extra: dict[int, object] = {}
        self.stack: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self.task = -1
        self.patches: list[tuple] = []  # (setter, original, wrapper)
        self.hook_errors = 0            # extras that could not be read

    def name_id(self, name: str, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
            self.layer_depth.append(0)
        self.names.append(name)
        self.layer_of.append(self.layers.index(layer))
        self.depth.append(0)
        return len(self.names) - 1

    def open(self, nid: int, clock) -> int:
        idx = len(self.nid)
        lid = self.layer_of[nid]
        self.nid.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.task_of.append(self.task)
        self.outer.append(self.layer_depth[lid] == 0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.depth[nid] += 1
        self.layer_depth[lid] += 1
        self.start.append(clock())
        return idx

    def close(self, idx: int, clock) -> None:
        self.end[idx] = clock()
        self.stack.pop()
        nid = self.nid[idx]
        self.depth[nid] -= 1
        self.layer_depth[self.layer_of[nid]] -= 1

    def wrap(self, name: str, layer: str, fn, post=None, pre=None):
        from time import perf_counter as clock
        nid = self.name_id(name, layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                args = pre(args)
            idx = self.open(nid, clock)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx, clock)
            if post is not None:
                try:
                    self.extra[idx] = post(args, result)
                except Exception:  # the call itself succeeded; only its extra is lost
                    self.hook_errors += 1
            return result
        return wrapper

    def counter(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------

    def _hooks(self, layer: str, attr: str):
        """Extra data some spans record: (post, pre)."""
        if (layer, attr) == ("ideal", "groebner_basis"):
            # Materialise the generator iterable once so its length can be read.
            return (lambda args, out: (len(args[0]), len(out)),
                    lambda args: (tuple(args[0]),) + args[1:] if args else args)
        if (layer, attr) == ("ideal", "normal_form"):
            # (reduced to zero, inside groebner_basis, inside a containment query)
            return (lambda args, out: (not out, any(self.depth[g] for g in self._gb_ids),
                                       any(self.depth[c] for c in self._contains_ids)), None)
        if (layer, attr) == ("recursion", "hodge_chain"):
            return (lambda args, out: (sum(r.exact for r in out.results), len(out.results)), None)
        if layer == "closed_forms":
            return (lambda args, out: len(out.ideal.generators)
                    if getattr(out, "ideal", None) is not None else None), None
        return None, None

    def prepare(self, package: str = "hodgeideals") -> None:
        """Build the wrappers and the list of places to patch."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{package}.{layer}")
            except ModuleNotFoundError:
                continue
        namespaces = [vars(m) for m in modules.values()] + [vars(importlib.import_module(package))]
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in sorted(vars(mod).items()):
                if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in UNWRAPPED.get(layer, ())):
                    post, pre = self._hooks(layer, attr)
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", layer, obj, post, pre)
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                if isinstance(obj, types.FunctionType) and id(obj) in wrappers:
                    self.patches.append((functools.partial(ns.__setitem__, attr), obj,
                                         wrappers[id(obj)]))
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if isinstance(value, types.FunctionType) and id(value) in wrappers:
                            self.patches.append((functools.partial(obj.__setitem__, key), value,
                                                 wrappers[id(value)]))
        self._prepare_methods(modules)
        self.task_nid = self.name_id("bench.task", BENCH_LAYER)
        self._gb_ids = [i for i, n in enumerate(self.names) if n == "ideal.groebner_basis"]
        self._contains_ids = [i for i, n in enumerate(self.names) if ".contains" in n]

    def _prepare_methods(self, modules) -> None:
        def found(layer, cls_name, attr):
            cls = getattr(modules.get(layer), cls_name, None)
            return cls if cls is not None and attr in vars(cls) else None

        for layer, cls_name, methods in METHODS:
            done: dict[int, object] = {}
            for attr in methods:
                cls = found(layer, cls_name, attr)
                if cls is None:
                    continue
                raw = vars(cls)[attr]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                if id(fn) not in done:
                    done[id(fn)] = self.wrap(f"{layer}.{cls_name}.{attr}", layer, fn)
                wrapped = done[id(fn)]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                self.patches.append((functools.partial(setattr, cls, attr), raw, wrapped))
        for layer, cls_name, attr in COUNTED:
            cls = found(layer, cls_name, attr)
            if cls is None:
                continue
            raw = vars(cls)[attr]
            self.patches.append((functools.partial(setattr, cls, attr), raw,
                                 self.counter(f"{layer}.{attr}", raw)))

    def install(self) -> None:
        for setter, _, wrapper in self.patches:
            setter(wrapper)

    def uninstall(self) -> None:
        for setter, original, _ in self.patches:
            setter(original)

    # -- output -------------------------------------------------------------

    def write(self, path: Path) -> None:
        """All spans, gzipped, one tab-separated line each:
        task, name, start, end, parent span index, extra."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("task\tname\tstart\tend\tparent\textra\n")
            for i, nid in enumerate(self.nid):
                extra = self.extra.get(i)
                fh.write(f"{self.task_of[i]}\t{self.names[nid]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t"
                         f"{'' if extra is None else extra}\n")


def summarize(t: Tracer, n_tasks: int) -> dict[str, float]:
    """Per-layer metrics from the recorded spans (see perfbench/README.md)."""
    n = len(t.nid)
    dur = [e - s for s, e in zip(t.start, t.end)]
    layer = [t.layer_of[nid] for nid in t.nid]
    ideal = t.layers.index("ideal") if "ideal" in t.layers else -1
    child = [0.0] * n        # time covered by direct children
    ideal_child = [0.0] * n  # ... by direct children in the ideal layer
    by_name: dict[int, list[int]] = {}
    self_s = [0.0] * len(t.layers)
    inclusive = [0.0] * len(t.layers)
    for i in range(n):
        by_name.setdefault(t.nid[i], []).append(i)
        p = t.parent[i]
        if p >= 0:
            child[p] += dur[i]
            if layer[i] == ideal:
                ideal_child[p] += dur[i]
        if t.outer[i]:
            inclusive[layer[i]] += dur[i]
    for i in range(n):
        self_s[layer[i]] += dur[i] - child[i]

    index = {name: i for i, name in enumerate(t.names)}

    def spans(*names):
        return [i for name in names for i in by_name.get(index.get(name, -1), [])]

    def layer_total(values, name):
        return values[t.layers.index(name)] if name in t.layers else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    per_task = max(n_tasks, 1)
    m: dict[str, float] = {}
    gb = spans("ideal.groebner_basis")
    m["ideal.groebner_basis.self_s"] = sum(dur[i] - child[i] for i in gb) / per_task
    m["ideal.groebner_basis.calls"] = len(gb) / per_task
    m["ideal.spairs"] = len(spans("ideal.s_polynomial")) / per_task
    nf = [t.extra[i] for i in spans("ideal.normal_form") if i in t.extra]
    under_gb = [zero for zero, in_gb, _ in nf if in_gb]
    m["ideal.reductions_to_zero_frac"] = ratio(sum(under_gb), len(under_gb))
    sizes = [t.extra[i] for i in gb if i in t.extra]
    m["ideal.groebner_basis.in_gens"] = ratio(sum(a for a, _ in sizes), len(sizes))
    m["ideal.groebner_basis.out_basis"] = ratio(sum(b for _, b in sizes), len(sizes))
    m["ideal.membership.calls"] = sum(1 for _, in_gb, in_c in nf if in_c and not in_gb) / per_task
    groebner = spans("ideal.Ideal.groebner")
    computed = {t.parent[i] for i in spans("ideal.GroebnerBasis.compute")}
    m["ideal.gb_cache_hit_frac"] = ratio(sum(i not in computed for i in groebner), len(groebner))

    ds = spans("recursion.derivation_step")
    m["recursion.derivation_step.self_s"] = sum(dur[i] - ideal_child[i] for i in ds) / per_task
    m["recursion.derivation_step.calls"] = len(ds) / per_task
    m["recursion.seed_cert_s"] = sum(
        dur[i] for i in spans("recursion.i0_seed", "recursion.certificate_for")
        if t.outer[i]) / per_task
    chains = [t.extra[i] for i in spans("recursion.hodge_chain") if i in t.extra]
    m["recursion.exact_frac"] = ratio(sum(e for e, _ in chains), sum(k for _, k in chains))

    m["closed_forms.s"] = layer_total(inclusive, "closed_forms") / per_task
    m["closed_forms.generators"] = sum(
        t.extra.get(i) or 0 for i in range(n)
        if t.outer[i] and t.layers[layer[i]] == "closed_forms") / per_task
    m["compute.self_s"] = layer_total(self_s, "compute") / per_task
    m["divisor.s"] = layer_total(inclusive, "divisor") / per_task
    m["divisor.periodic_reduce.calls"] = len(spans("divisor.periodic_reduce")) / per_task
    m["cli.self_s"] = layer_total(self_s, "cli") / per_task
    m["parser.s"] = layer_total(inclusive, "parser") / per_task
    m["certificates.s"] = layer_total(inclusive, "certificates") / per_task
    m["poly.leading.calls"] = t.counts.get("poly.leading", [0])[0] / per_task
    m["poly.mul.calls"] = len(spans("poly.Polynomial.__mul__")) / per_task
    for suite in SUITE_NAMES:
        calls = spans(f"verify.suite_{suite}")
        m[f"verify.{suite}.s"] = ratio(sum(dur[i] for i in calls), len(calls))

    task_time = sum(dur[i] for i in spans("bench.task"))
    for name in LAYERS + (BENCH_LAYER,):
        m[f"layer.{name}.self_s"] = layer_total(self_s, name) / per_task
        m[f"layer.{name}.share"] = ratio(layer_total(self_s, name), task_time)
    return m
