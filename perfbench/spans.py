"""Spans around qmeasure's public functions, installed from outside.

`install()` replaces every public function of the listed modules, and the
public methods and constructors of their classes, with a timing wrapper.
Functions are replaced wherever a qmeasure module bound them (a name
imported with `from .histories import region_algebra` is a separate
binding), so calls between modules are seen too.  Nothing under `src/`
changes; the wrappers live only in the traced process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

MODULES = (
    "sk_model", "histories", "causal_order", "decoherence", "hilbert",
    "causality", "patching", "scenarios", "serialization", "cli", "_linalg",
)


def _count_region_algebra(add, args, kwargs, result):
    add("histories", args[0].size)
    add("atoms", result.n_atoms)


def _count_scatter(add, args, kwargs, result):
    add("columns", args[0].shape[1])


def _count_factorizability(add, args, kwargs, result):
    add("combinations", result.combinations_checked)


def _count_poz(add, args, kwargs, result):
    add("regions", len(result.results))


def _count_lon(add, args, kwargs, result):
    add("past_sets", len(result.results))


def _count_feasibility(add, args, kwargs, result):
    add("iterations", result.iterations)


# work counts recorded at the boundary of these layers
COUNTERS = {
    "histories.region_algebra": _count_region_algebra,
    "linalg.scatter_columns": _count_scatter,
    "causality.check_quantum_factorizability": _count_factorizability,
    "causality.check_poz": _count_poz,
    "causality.check_lon": _count_lon,
    "patching.joint_feasibility": _count_feasibility,
}


class Tracer:
    """Per-name call counts, inclusive and self time, and work counts.

    A span's self time is its duration minus the time of the spans it
    directly encloses.
    """

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._children: list[float] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        stack = self._children

        def add(quantity, value):
            key = f"{name}.{quantity}"
            self.counts[key] = self.counts.get(key, 0) + value

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + dt
                self.self_time[name] = self.self_time.get(name, 0.0) + dt - child
            if counter is not None:
                counter(add, args, kwargs, result)
            return result

        return span

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_time[name]
        out.update(self.counts)
        out["causal_order.self_s"] = sum(
            v for k, v in self.self_time.items() if k.startswith("causal_order.")
        )
        iters = self.counts.get("patching.joint_feasibility.iterations", 0)
        out["patching.dykstra_step_us"] = (
            1e6 * self.total["patching.joint_feasibility"] / iters if iters else 0.0
        )
        return out


def _wrap_class(tracer: Tracer, prefix: str, cls) -> None:
    for attr, value in list(vars(cls).items()):
        if attr == "__init__" and inspect.isfunction(value):
            setattr(cls, attr, tracer.wrap(f"{prefix}.{cls.__name__}", value))
        elif attr.startswith("_"):
            continue
        elif inspect.isfunction(value):
            setattr(cls, attr, tracer.wrap(f"{prefix}.{attr}", value))
        elif isinstance(value, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(f"{prefix}.{attr}", value.__func__)))
        elif isinstance(value, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(f"{prefix}.{attr}", value.__func__)))


def install() -> Tracer:
    tracer = Tracer()
    package = importlib.import_module("qmeasure")
    modules = {m: importlib.import_module(f"qmeasure.{m}") for m in MODULES}
    namespaces = [package, *modules.values()]
    for mod_name, mod in modules.items():
        prefix = mod_name.lstrip("_")  # metric names must start with a letter
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                _wrap_class(tracer, prefix, obj)
            elif inspect.isfunction(obj):
                span = tracer.wrap(f"{prefix}.{name}", obj)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, bound, span)
    return tracer
