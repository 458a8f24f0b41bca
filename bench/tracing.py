"""Traced mode: wraps privcap's public functions where the calling modules
look them up, records spans in memory, and derives the per-layer metrics.

Spans are kept for every wrapped call except the two hot leaves, the
objective handed to ``coordinate_ascent`` and ``entropy_from_eigenvalues``,
which run hundreds of thousands of times per search; those add to a
(phase, name) counter of calls and seconds instead.  A function that a
later version of privcap removes or renames is skipped, and the metrics
that need it are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

TARGETS = (
    ("privcap.tradeoff", "maximize_p"),
    ("privcap.tradeoff", "holevo_capacity"),
    ("privcap.tradeoff", "evaluate_ensemble"),
    ("privcap.tradeoff", "tensor_ensembles"),
    ("privcap.search", "coordinate_ascent"),
    ("privcap.entropy", "entropy_from_eigenvalues"),
    ("privcap.channels", "tensor_channels"),
    ("privcap.channels", "make_dephasing"),
    ("privcap.channels", "make_erasure"),
    ("privcap.channels", "make_cloning"),
    ("privcap.regions", "additivity_gap"),
    ("privcap.regions", "sample_boundary"),
    ("privcap.regions", "pareto_point"),
    ("privcap.regions", "membership"),
)
HOT = ("entropy_from_eigenvalues",)
OBJECTIVE = "objective"
SEARCHES = ("maximize_p", "holevo_capacity")
CONSTRUCTORS = ("make_dephasing", "make_erasure", "make_cloning", "tensor_channels")
PROBE_KEYS = ("dephasing", "erasure", "cloning10", "erasure2")
FAMILY_KEYS = ("dephasing", "cloning10", "erasure")

# metric name -> (unit, wrapped functions it needs)
LAYER_METRICS = {
    "search.objective_calls": ("count", ("coordinate_ascent", "maximize_p", "holevo_capacity")),
    "search.ascent_calls": ("count", ("coordinate_ascent", "maximize_p", "holevo_capacity")),
    "search.self_s": ("s", ("coordinate_ascent",)),
    "search.evals_per_s": ("1/s", ("coordinate_ascent", "maximize_p", "holevo_capacity")),
    "tradeoff.objective_us": ("us", ("coordinate_ascent",)),
    "tradeoff.restart_overhead_s": ("s", ("coordinate_ascent", "maximize_p", "holevo_capacity")),
    **{f"tradeoff.evaluate_us.{k}": ("us", ("evaluate_ensemble",)) for k in PROBE_KEYS},
    "entropy.calls": ("count", ("entropy_from_eigenvalues",)),
    "entropy.self_s": ("s", ("entropy_from_eigenvalues",)),
    "regions.first_copy_s": ("s", ("additivity_gap", "maximize_p")),
    "regions.second_copy_s": ("s", ("additivity_gap", "maximize_p")),
    **{f"regions.sample_boundary_ms.{k}": ("ms", ("sample_boundary",)) for k in FAMILY_KEYS},
    "regions.pareto_point_ms": ("ms", ("pareto_point",)),
    "regions.membership_ms": ("ms", ("membership",)),
    "channels.tensor_channels_ms": ("ms", ("tensor_channels",)),
    "channels.construct_ms": ("ms", CONSTRUCTORS),
    "trace.overhead_s": ("s", ()),
}


class Span:
    __slots__ = ("name", "phase", "parent", "start", "end", "child")

    def __init__(self, name, phase, parent):
        self.name = name
        self.phase = phase
        self.parent = parent
        self.child = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Install/uninstall swaps every module binding of a target function."""

    def __init__(self):
        self.phase = "setup"
        self.spans: list[Span] = []
        self.hot: dict = {}
        self._stack: list[Span] = []
        self._wrappers: dict = {}
        self._originals: dict = {}
        for module_name, name in TARGETS:
            try:
                fn = getattr(importlib.import_module(module_name), name)
            except (ImportError, AttributeError):
                continue
            self._originals[name] = fn
            if name in HOT:
                self._wrappers[name] = self._counted(name, fn)
            elif name == "coordinate_ascent":
                self._wrappers[name] = self._ascent(fn)
            else:
                self._wrappers[name] = self._spanned(name, fn)

    @property
    def present(self) -> set:
        return set(self._originals)

    def _bindings(self):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "privcap" or mod_name.startswith("privcap.")):
                continue
            for name, fn in self._originals.items():
                current = getattr(mod, name, None)
                if current is fn or current is self._wrappers[name]:
                    yield mod, name

    def install(self) -> None:
        for mod, name in self._bindings():
            setattr(mod, name, self._wrappers[name])

    def uninstall(self) -> None:
        for mod, name in self._bindings():
            setattr(mod, name, self._originals[name])

    def _spanned(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, tracer.phase, stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
                if span.parent is not None:
                    span.parent.child[name] = span.parent.child.get(name, 0.0) + span.seconds
        return traced

    def _counted(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                entry = tracer.hot.setdefault((tracer.phase, name), [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
        return counted

    def _ascent(self, fn):
        spanned = self._spanned("coordinate_ascent", fn)

        @functools.wraps(fn)
        def ascent(objective, *args, **kwargs):
            return spanned(self._counted(OBJECTIVE, objective), *args, **kwargs)
        return ascent

    def dump(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        doc = {
            "spans": [{"name": s.name, "phase": s.phase, "start": s.start, "end": s.end,
                       "parent": index.get(id(s.parent))} for s in self.spans],
            "counters": [{"phase": p, "name": n, "calls": c, "seconds": t}
                         for (p, n), (c, t) in self.hot.items()],
        }
        path.write_text(json.dumps(doc))


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def layer_metrics(tracer: Tracer, rounds: int, untraced_wall: float, traced_wall: float):
    """Per-layer metrics of the traced rounds (phase "round") and the probe.

    Returns (metrics {name: value}, names of absent metrics).  A layer the
    workload does not exercise reads 0; per-round values divide by the
    number of traced rounds.
    """
    spans = tracer.spans
    work = [s for s in spans if s.phase == "round"]
    searches = [s for s in work if s.name in SEARCHES]
    ascents = [s for s in work if s.name == "coordinate_ascent"]
    obj_calls, obj_s = tracer.hot.get(("round", OBJECTIVE), (0, 0.0))
    ent_calls, ent_s = tracer.hot.get(("round", "entropy_from_eigenvalues"), (0, 0.0))
    search_s = sum(s.seconds for s in searches)
    n = len(searches)
    gaps = [s for s in work if s.name == "additivity_gap"]
    copies = [[c.seconds for c in work if c.parent is g and c.name == "maximize_p"] for g in gaps]

    def probe(name, key, scale):
        return scale * _median([s.seconds for s in spans
                                if s.name == name and s.phase == f"probe:{key}"])

    def per_family(name):
        return sum(probe(name, k, 1e3) for k in FAMILY_KEYS) / len(FAMILY_KEYS)

    values = {
        "search.objective_calls": obj_calls / n if n else 0.0,
        "search.ascent_calls": len(ascents) / n if n else 0.0,
        "search.self_s": (sum(a.seconds for a in ascents) - obj_s) / rounds,
        "search.evals_per_s": obj_calls / search_s if search_s else 0.0,
        "tradeoff.objective_us": 1e6 * obj_s / obj_calls if obj_calls else 0.0,
        "tradeoff.restart_overhead_s":
            sum(s.seconds - s.child.get("coordinate_ascent", 0.0) for s in searches) / rounds,
        **{f"tradeoff.evaluate_us.{k}": probe("evaluate_ensemble", k, 1e6) for k in PROBE_KEYS},
        "entropy.calls": ent_calls / rounds,
        "entropy.self_s": ent_s / rounds,
        "regions.first_copy_s": _median([c[0] for c in copies if len(c) == 2]),
        "regions.second_copy_s": _median([c[1] for c in copies if len(c) == 2]),
        **{f"regions.sample_boundary_ms.{k}": probe("sample_boundary", k, 1e3)
           for k in FAMILY_KEYS},
        "regions.pareto_point_ms": per_family("pareto_point"),
        "regions.membership_ms": per_family("membership"),
        "channels.tensor_channels_ms": probe("tensor_channels", "tensor_channels", 1e3),
        "channels.construct_ms":
            1e3 * sum(s.seconds for s in spans if s.phase == "setup" and s.name in CONSTRUCTORS),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    present = tracer.present
    absent = [m for m, (_, needs) in LAYER_METRICS.items() if not set(needs) <= present]
    return {m: v for m, v in values.items() if m not in absent}, absent
