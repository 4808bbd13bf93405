"""Per-layer tracing from outside the library.

Every public function and public method (plus __mul__ and __pow__) defined
in the layer modules is replaced by a wrapper that counts calls and times
them.  A function is patched under every name that binds it, in every
artinmark module and in the package namespace, so a call through
`from .parabolic import minimal_standardizer` in cli is traced like a call
inside parabolic.  Private helpers that another module imports by name,
such as parabolic._standard_target, are patched the same way.  A layer's
self time is the time spent inside its wrapped calls minus the time of
wrapped calls nested inside them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("rings", "coxeter", "garside", "parabolic", "simplex", "ribbons", "marking", "graph", "cli")

# per-layer metric -> (kind, wrapped function key); kinds: calls, incl, self
_COUNTED = {
    "rings.sign_calls": ("calls", "rings.CosRing.sign"),
    "coxeter.rootsystem_s": ("incl", "coxeter.root_reflection_table"),
    "coxeter.mul_calls": ("calls", "coxeter.CoxeterElement.__mul__"),
    "coxeter.inverse_calls": ("calls", "coxeter.CoxeterElement.inverse"),
    "garside.from_word_calls": ("calls", "garside.GarsideContext.from_word"),
    "garside.mul_calls": ("calls", "garside.ArtinElement.__mul__"),
    "garside.inverse_calls": ("calls", "garside.ArtinElement.inverse"),
    "garside.normalize_calls": ("calls", "garside.GarsideContext.normalize_factors"),
    "garside.gcd_calls": ("calls", "garside.GarsideContext.gcd_simples"),
    "garside.member_calls": ("calls", "garside.member_of_standard"),
    "parabolic.min_std_calls": ("calls", "parabolic.minimal_standardizer"),
    "parabolic.min_std_s": ("incl", "parabolic.minimal_standardizer"),
    "parabolic.sim_std_calls": ("calls", "parabolic.simultaneous_standardizer"),
    "parabolic.sim_std_s": ("incl", "parabolic.simultaneous_standardizer"),
    "parabolic.canonical_calls": ("calls", "parabolic.ParabolicSubgroup.canonical"),
    "simplex.canon_calls": ("calls", "simplex.canonical_positive_standardizer"),
    "simplex.canon_s": ("incl", "simplex.canonical_positive_standardizer"),
    "simplex.extract_calls": ("calls", "simplex.extract_ascending_product"),
    "simplex.extract_s": ("incl", "simplex.extract_ascending_product"),
    "ribbons.delta_form_calls": ("calls", "ribbons.ribbon_delta_form"),
    "marking.validate_calls": ("calls", "marking.validate_marking"),
    "marking.validate_s": ("incl", "marking.validate_marking"),
    "marking.decompose_calls": ("calls", "marking.decompose_transversal"),
    "marking.projection_calls": ("calls", "marking.projection"),
    "marking.flip_enum_calls": ("calls", "marking.enumerate_flip_moves"),
    "graph.neighbors_calls": ("calls", "graph.neighbors"),
    "graph.neighbors_s": ("incl", "graph.neighbors"),
}
_DESCENTS = ("coxeter.CoxeterElement.left_descents", "coxeter.CoxeterElement.right_descents")
_CERTIFICATE = "marking.Marking.certificate"

METRICS = (
    [m for m in _COUNTED if m.startswith("rings.")] + ["rings.self_s"]
    + ["coxeter.rootsystem_s", "coxeter.mul_calls", "coxeter.inverse_calls",
       "coxeter.descent_calls", "coxeter.self_s"]
    + [m for m in _COUNTED if m.startswith("garside.")] + ["garside.self_s"]
    + [m for m in _COUNTED if m.startswith("parabolic.")]
    + ["parabolic.canonical_miss_ratio", "parabolic.self_s"]
    + [m for m in _COUNTED if m.startswith("simplex.")] + ["simplex.self_s"]
    + ["ribbons.delta_form_calls", "ribbons.self_s"]
    + [m for m in _COUNTED if m.startswith("marking.")]
    + ["marking.flip_candidates", "marking.flip_yield", "marking.self_s"]
    + ["graph.neighbors_calls", "graph.neighbors_s", "graph.nodes", "graph.self_s"]
    + ["cli.self_s", "trace.wall_s"]
)


class Tracer:
    """Call counts, inclusive times and per-layer self times."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.incl: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.extra: Counter[str] = Counter()
        self._stack: list[float] = []
        self._active: Counter[str] = Counter()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, key: str, layer: str):
        perf = time.perf_counter
        stack, calls, incl, self_s, active = (
            self._stack, self.calls, self.incl, self.self_s, self._active)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            active[key] += 1
            stack.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = perf() - start
                nested = stack.pop()
                self_s[layer] += spent - nested
                if stack:
                    stack[-1] += spent
                active[key] -= 1
                if not active[key]:
                    incl[key] += spent

        return traced

    def _hooked(self, fn, key: str):
        """Result hooks for the counts that are not call counts."""
        extra, calls = self.extra, self.calls
        if key == "marking.enumerate_flip_moves":
            def hook(*args, **kwargs):
                before = calls[_CERTIFICATE]
                result = fn(*args, **kwargs)
                # the first certificate call is the input marking's own
                extra["flip_candidates"] += calls[_CERTIFICATE] - before - 1
                extra["flips"] += len(result)
                return result
        elif key == "graph.bfs":
            def hook(*args, **kwargs):
                result = fn(*args, **kwargs)
                extra["nodes"] += len(result.nodes)
                return result
        elif key == "graph.standard_marking_connectivity":
            def hook(*args, **kwargs):
                result = fn(*args, **kwargs)
                extra["nodes"] += result.node_count
                return result
        else:
            return fn
        return functools.wraps(fn)(hook)

    def install(self) -> None:
        """Patch every layer module of a freshly imported artinmark."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "artinmark" or name.startswith("artinmark.")
        }
        originals: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[f"artinmark.{layer}"]
            for name, obj in list(vars(mod).items()):
                if _defined_here(obj, mod) and _is_plain_callable(obj):
                    if name.startswith("_") and not _bound_elsewhere(obj, name, mod, modules):
                        continue
                    key = f"{layer}.{name}"
                    originals[id(obj)] = self._wrap(self._hooked(obj, key), key, layer)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._patch_class(obj, layer)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    setattr(mod, name, originals[id(obj)])

    def _patch_class(self, cls, layer: str) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in ("__mul__", "__pow__"):
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(raw.__func__, key, layer)))
            elif inspect.isfunction(raw):
                setattr(cls, name, self._wrap(raw, key, layer))

    # -- results ----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (kind, key) in _COUNTED.items():
            out[name] = self.calls[key] if kind == "calls" else self.incl[key]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        out["coxeter.descent_calls"] = sum(self.calls[k] for k in _DESCENTS)
        canon = self.calls["parabolic.ParabolicSubgroup.canonical"]
        out["parabolic.canonical_miss_ratio"] = (
            self.calls["parabolic.minimal_standardizer"] / canon if canon else 0.0)
        out["marking.flip_candidates"] = self.extra["flip_candidates"]
        cands = self.extra["flip_candidates"]
        out["marking.flip_yield"] = self.extra["flips"] / cands if cands else 0.0
        out["graph.nodes"] = self.extra["nodes"]
        out["trace.wall_s"] = wall_s
        return {name: out[name] for name in METRICS}


def _defined_here(obj, mod) -> bool:
    return getattr(obj, "__module__", None) == mod.__name__


def _is_plain_callable(obj) -> bool:
    return inspect.isfunction(obj) or type(obj).__name__ == "_lru_cache_wrapper"


def _bound_elsewhere(obj, name, home, modules) -> bool:
    return any(m is not home and vars(m).get(name) is obj for m in modules.values())
