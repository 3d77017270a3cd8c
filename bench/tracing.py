"""Spans around the public functions of each epbs layer, for the traced run.

``Tracer.install`` wraps every public function defined in the layer modules
and rebinds each module-global name that refers to one of them (for
example ``epbs.observables.evolution_operator`` and
``epbs.cli.trace_evolution``), so calls between layers pass through a
wrapper.  Spans are kept in memory as (name, start, end, parent, info) and
written out once, at the end.  ``install`` returns the function that puts
the original names back; nothing is wrapped outside the traced run.

A span's self time is its duration minus the time its child spans cover;
its layer-self time subtracts only the time spent in other layers below it.
"""

from __future__ import annotations

import importlib
import json
import time
import types
from collections import Counter, defaultdict

LAYERS = ("fock_core", "spectral", "propagator", "observables", "cli", "_svg")


def _trace_points(args, kwargs, _out):
    grid = kwargs.get("z_grid", args[2] if len(args) > 2 else None)
    return len(grid)


def _method(_args, _kwargs, out):
    return out.method


ANNOTATE = {
    "propagator.evolution_operator": _method,
    "observables.trace_evolution": _trace_points,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, info]
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, annotate):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if annotate is not None:
                span[4] = annotate(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap the layers' public functions; returns the undo function."""
        package = importlib.import_module("epbs")
        modules = {layer: importlib.import_module(f"epbs.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = self._wrap(name, obj, ANNOTATE.get(name))
        patched = []
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
                    patched.append((mod, attr, obj))

        def restore():
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

        return restore


def dump(spans: list[list], path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "info"], "spans": spans},
                  fh, separators=(",", ":"))


def load(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def rebase(spans: list[list], offset: int) -> list[list]:
    """Spans of another process, renumbered to follow ``offset`` earlier spans."""
    return [[s[0], s[1], s[2], s[3] + offset if s[3] >= 0 else -1, s[4]] for s in spans]


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer numbers summed over all spans given (one or more passes)."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    foreign = [0.0] * n  # time in spans of other layers below this one
    # children always come after their parent, so one reverse sweep suffices
    for i in range(n - 1, -1, -1):
        p = spans[i][3]
        if p >= 0:
            child_time[p] += dur[i]
            same = _layer(spans[i][0]) == _layer(spans[p][0])
            foreign[p] += foreign[i] if same else dur[i]

    calls = Counter()
    total = defaultdict(float)
    self_t = defaultdict(float)
    layer_self = defaultdict(float)
    layer_excl = defaultdict(float)
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] += 1
        total[name] += dur[i]
        self_t[name] += dur[i] - child_time[i]
        layer_self[name] += dur[i] - foreign[i]
        layer_excl[_layer(name)] += dur[i] - child_time[i]

    paths = Counter(s[4] for s in spans if s[0] == "propagator.evolution_operator")
    nested_assembly = sum(
        1 for s in spans
        if s[0] == "propagator.assemble_propagator" and s[3] >= 0
        and spans[s[3]][0] == "propagator.evolution_operator"
    )
    evals_under = Counter()
    for s in spans:
        if s[0] != "propagator.evolution_operator":
            continue
        p = s[3]
        while p >= 0:
            evals_under[spans[p][0]] += 1
            p = spans[p][3]

    def per_call(num, name):
        return num / calls[name] if calls[name] else 0.0

    ev = "propagator.evolution_operator"
    return {
        "propagator.evolution_operator.calls": calls[ev],
        "propagator.evolution_operator.self_s": self_t[ev],
        "propagator.evolution_operator.us_per_call": per_call(total[ev], ev) * 1e6,
        "propagator.path.ep_limit": paths["ep_limit"],
        "propagator.path.wei_norman": paths["wei_norman"],
        "propagator.path.matrix_exp": paths["matrix_exp"],
        "propagator.assemble_per_eval": per_call(nested_assembly, ev),
        "propagator.matrix_exp_oracle.calls": calls["propagator.matrix_exp_oracle"],
        "observables.trace_evolution.calls": calls["observables.trace_evolution"],
        "observables.trace_evolution.points": sum(
            s[4] for s in spans if s[0] == "observables.trace_evolution"),
        "observables.trace_evolution.self_s": layer_self["observables.trace_evolution"],
        "observables.steady_state_onset.self_s": layer_self["observables.steady_state_onset"],
        "observables.steady_state_onset.evals_per_call": per_call(
            evals_under["observables.steady_state_onset"], "observables.steady_state_onset"),
        "observables.periodicity_check.self_s": layer_self["observables.periodicity_check"],
        "observables.periodicity_check.evals_per_call": per_call(
            evals_under["observables.periodicity_check"], "observables.periodicity_check"),
        "observables.fit_ep_order.self_s": layer_self["observables.fit_ep_order"],
        "fock_core.build_operators.calls": calls["fock_core.build_operators"],
        "fock_core.build_hamiltonian.calls": calls["fock_core.build_hamiltonian"],
        "fock_core.self_s": layer_excl["fock_core"],
        "spectral.eigenvalue_flow.self_s": layer_self["spectral.eigenvalue_flow"],
        "spectral.certify_ep.self_s": layer_self["spectral.certify_ep"],
        "cli.validate.self_s": layer_self["cli.validate"],
        "cli.run.self_s": layer_self["cli.run"],
        "cli.svg.self_s": layer_excl["_svg"],
    }
