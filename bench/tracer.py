"""Span tracer that wraps the toolkit's public functions from outside.

``Tracer.install`` replaces every public function in every toolkit module
namespace that binds it (``frame_functional`` binds ``calderon_sum``,
``calderon_values`` and ``property_x_scan``; ``counting`` binds
``overlap_measure``; ``calderon`` binds ``lipschitz_constants``), plus the
public methods and ``__post_init__`` of the toolkit's classes.  Each call
records a span (name, start, end, parent span, item id) into flat arrays
kept in memory; ``Tracer.remove`` puts every original back.  Layer numbers
are derived from the spans afterwards: a layer is the module that defines
the function, its calls are the spans whose parent lies outside the layer,
and self time is a span's duration minus the time covered by its children.

Only single-threaded calls are traced correctly, which is how the runner
executes a scenario with its default worker count.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import types
from array import array
from collections import Counter
from time import perf_counter

PACKAGE = "affineframes"
LAYERS = ("automorphisms", "calderon", "profiles", "quadrature", "frame_functional",
          "counting", "metric_lattice", "config", "runner")

# Per-layer metrics: unit, which way is better, and the end-to-end metric and
# workload each should move (or leave flat).  Counts and times are per item.
LAYER_METRICS: dict[str, tuple[str, str, str]] = {}
for _layer in LAYERS:
    LAYER_METRICS[f"{_layer}.calls"] = ("count", "lower", "calls into the layer per item")
    LAYER_METRICS[f"{_layer}.self_s"] = ("s", "lower", "self time per item")
_ORBIT = "orbit_scan item_p50_s"
LAYER_METRICS.update({
    "automorphisms.constructed": ("count", "lower", f"{_ORBIT}; flat on counting_sandwich"),
    "automorphisms.constants_calls": ("count", "lower", f"{_ORBIT}; flat on counting_sandwich"),
    "automorphisms.oracle_directions": ("count", "lower", "scenario_mix items_per_s"),
    "automorphisms.oracle_self_s": ("s", "lower", "scenario_mix items_per_s"),
    "calderon.points": ("count", "lower", f"{_ORBIT}, scenario_mix items_per_s"),
    "calderon.points_per_call": ("count", "higher", f"{_ORBIT}, scenario_mix items_per_s"),
    "profiles.points": ("count", "lower", f"{_ORBIT}, scenario_mix items_per_s"),
    "profiles.points_per_call": ("count", "higher", f"{_ORBIT}, scenario_mix items_per_s"),
    "quadrature.integrand_calls": ("count", "lower", _ORBIT),
    "quadrature.nodes": ("count", "lower", _ORBIT),
    "frame_functional.functional_calls": ("count", "lower", _ORBIT),
    "counting.candidates": ("count", "lower",
                            "scenario_mix items_per_s and peak_rss_mb, counting_sandwich "
                            "item_p50_s"),
    "counting.counted": ("count", "higher", "useful part of counting.candidates"),
    "counting.inside_ratio": ("ratio", "higher", "scenario_mix items_per_s and peak_rss_mb"),
    "metric_lattice.overlap_calls": ("count", "lower",
                                     "counting_sandwich item_p50_s and items_per_s; "
                                     "flat on orbit_scan"),
    "metric_lattice.overlap_self_s": ("s", "lower",
                                      "counting_sandwich item_p50_s and items_per_s; "
                                      "flat on orbit_scan"),
    "metric_lattice.mc_samples": ("count", "lower", "counting_sandwich items_per_s"),
    "metric_lattice.box_points": ("count", "lower", "counting_sandwich items_per_s"),
    "runner.csv_bytes": ("bytes", "lower", "setup_s and scenario_mix items_per_s"),
    "trace.spans": ("count", "lower", "spans recorded per item"),
    "trace.overhead_ratio": ("ratio", "lower",
                             "traced over untraced time per pass, minus one"),
})

_INTEGRATORS = {"integrate_interval", "integrate_with_breakpoints", "integrate_adaptive",
                "integrate_box", "integrate_box_adaptive"}


def _layer_of(module_name: str) -> str | None:
    head, _, layer = module_name.partition(".")
    return layer if head == PACKAGE and layer in LAYERS else None


class Tracer:
    """Records spans for the calls made between ``install`` and ``remove``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("i")
        self.item = array("i")
        self.item_id = -1
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, fn, name: str, pre=None, post=None):
        name_id = self._name_id(name)
        start, end, parent, names, items = (self.start, self.end, self.parent,
                                            self.name, self.item)
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            up = stack[-1] if stack else -1
            if pre is not None:
                args, kwargs = pre(tracer, up, args, kwargs)
            parent.append(up)
            names.append(name_id)
            items.append(tracer.item_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if post is not None:
                post(tracer, up, fn, args, kwargs, result)
            return result

        wrapper.__wrapped_by_bench__ = True
        return wrapper

    def parent_name(self, up: int) -> str:
        return self.names[self.name[up]] if up >= 0 else ""

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType):
                    layer = _layer_of(obj.__module__)
                    if layer is not None:
                        self._replace(module, attr, obj, f"{layer}.{obj.__name__}")
                elif isinstance(obj, type) and obj.__module__ == module.__name__:
                    layer = _layer_of(module.__name__)
                    for meth, fn in list(vars(obj).items()):
                        if isinstance(fn, types.FunctionType) and (
                                not meth.startswith("_") or meth == "__post_init__"):
                            self._replace(obj, meth, fn, f"{layer}.{obj.__name__}.{meth}")

    def _replace(self, owner, attr: str, fn, name: str) -> None:
        pre = _wrap_integrand if name.split(".", 1)[1] in _INTEGRATORS else None
        setattr(owner, attr, self._span_wrapper(fn, name, pre=pre, post=_POST_HOOKS.get(name)))
        self._undo.append((owner, attr, fn))

    def remove(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- derived numbers -------------------------------------------------

    def span_arrays(self) -> dict:
        import numpy as np

        return {"start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
                "name": np.frombuffer(self.name, dtype=np.intc).copy(),
                "item": np.frombuffer(self.item, dtype=np.intc).copy(),
                "names": np.array(self.names, dtype=str)}

    def layer_totals(self) -> dict[str, float]:
        """Entry calls and self seconds per layer, plus named span self times."""
        import numpy as np

        spans = self.span_arrays()
        n = spans["start"].shape[0]
        layer_ids = {layer: i for i, layer in enumerate(LAYERS)}
        name_layer = np.array([layer_ids[_span_layer(nm)] for nm in self.names] or [0],
                              dtype=np.int64)
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time[:n]
        span_layer = name_layer[spans["name"]] if n else np.empty(0, dtype=np.int64)
        parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], -1)
        entry = span_layer != parent_layer
        out: dict[str, float] = {"trace.spans": float(n)}
        for layer, i in layer_ids.items():
            mine = span_layer == i
            out[f"{layer}.calls"] = float(np.count_nonzero(mine & entry))
            out[f"{layer}.self_s"] = float(self_time[mine].sum())
        for metric, span_name in (("automorphisms.oracle_self_s",
                                   "automorphisms.lipschitz_oracle"),
                                  ("metric_lattice.overlap_self_s",
                                   "metric_lattice.overlap_measure")):
            nid = self._name_ids.get(span_name)
            out[metric] = float(self_time[spans["name"] == nid].sum()) if nid is not None else 0.0
        return out


def _span_layer(name: str) -> str:
    return name.split(".", 1)[0]


# ---------------------------------------------------------------------------
# Count hooks, called after the wrapped function returns
# ---------------------------------------------------------------------------

def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _rows(points) -> int:
    import numpy as np

    arr = np.asarray(points, dtype=float)
    return int(arr.shape[0]) if arr.ndim >= 1 else 1


def _outside(tracer: Tracer, up: int, layer: str) -> bool:
    return _span_layer(tracer.parent_name(up)) != layer


def _tally(key: str):
    def hook(tracer, up, fn, args, kwargs, result):
        tracer.counts[key] += 1
    return hook


def _count_oracle(tracer, up, fn, args, kwargs, result):
    tracer.counts["automorphisms.oracle_directions"] += int(
        _bound(fn, args, kwargs)["n_directions"])


def _count_calderon_points(tracer, up, fn, args, kwargs, result):
    if not _outside(tracer, up, "calderon"):
        return
    tracer.counts["calderon.entry_calls"] += 1
    if fn.__name__ == "calderon_values":
        tracer.counts["calderon.points"] += _rows(_bound(fn, args, kwargs)["points"])
    else:  # calderon_sum / calderon_tail evaluate one frequency
        tracer.counts["calderon.points"] += 1


def _count_profile_points(tracer, up, fn, args, kwargs, result):
    tracer.counts["profiles.evaluate_calls"] += 1
    tracer.counts["profiles.points"] += int(result.shape[0])


def _count_enumerated(tracer, up, fn, args, kwargs, result):
    tracer.counts["counting.counted"] += int(result.count)


def _count_box_points(tracer, up, fn, args, kwargs, result):
    rows = int(result.shape[0])
    tracer.counts["metric_lattice.box_points"] += rows
    if tracer.parent_name(up) == "counting.enumerate_points":
        tracer.counts["counting.candidates"] += rows


def _count_overlap(tracer, up, fn, args, kwargs, result):
    if tracer.parent_name(up) != "metric_lattice.overlap_measure":
        tracer.counts["metric_lattice.overlap_calls"] += 1
    arguments = _bound(fn, args, kwargs)
    if arguments["metric"].kind != "gabor_product":  # gabor splits into 1-d calls
        tracer.counts["metric_lattice.mc_samples"] += int(arguments["n_samples"])


_POST_HOOKS = {
    "automorphisms.Automorphism.__post_init__": _tally("automorphisms.constructed"),
    "automorphisms.lipschitz_constants": _tally("automorphisms.constants_calls"),
    "automorphisms.lipschitz_oracle": _count_oracle,
    "calderon.calderon_values": _count_calderon_points,
    "calderon.calderon_sum": _count_calderon_points,
    "calderon.calderon_tail": _count_calderon_points,
    "profiles.PiecewiseConstantProfile.evaluate": _count_profile_points,
    "profiles.SampledGridProfile.evaluate": _count_profile_points,
    "frame_functional.frame_functional": _tally("frame_functional.functional_calls"),
    "counting.enumerate_points": _count_enumerated,
    "metric_lattice.Lattice.points_in_box": _count_box_points,
    "metric_lattice.overlap_measure": _count_overlap,
}


def _wrap_integrand(tracer: Tracer, up: int, args, kwargs):
    """At entry into quadrature, wrap the integrand to count calls and nodes.

    The integrand becomes a span of the layer that defined it, so its time
    is not charged to quadrature.
    """
    if not _outside(tracer, up, "quadrature"):
        return args, kwargs
    if args:
        f, rest = args[0], args[1:]
    else:
        f, rest = kwargs.pop("f"), ()
    layer = _layer_of(f.__module__) or "quadrature"

    def count(tracer_, up_, fn, a, kw, result):
        tracer_.counts["quadrature.integrand_calls"] += 1
        tracer_.counts["quadrature.nodes"] += _rows(a[0])

    wrapped = tracer._span_wrapper(f, f"{layer}.{f.__qualname__}", post=count)
    return (wrapped, *rest), kwargs


def installed_wrappers() -> list[str]:
    """Names still bound to a tracer wrapper anywhere in the toolkit."""
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in vars(module).items():
            if getattr(obj, "__wrapped_by_bench__", False):
                found.append(f"{layer}.{attr}")
            elif isinstance(obj, type) and obj.__module__ == module.__name__:
                found.extend(f"{layer}.{obj.__name__}.{m}" for m, fn in vars(obj).items()
                             if getattr(fn, "__wrapped_by_bench__", False))
    return found
