"""Out-of-tree tracing of bridgeint: spans at layer boundaries, counters per step.

Hooks wrap functions at the name each caller looks them up under (a name a
module imported with ``from .x import f`` is its own binding), so nothing in
``src/`` changes.  Per-step hooks (``Potential.__call__`` and the normals of
every Philox stream handed out by ``estimators.stream``) are aggregated under
the enclosing span as calls, items and busy time instead of one span per call.

A hooked name that no longer resolves is recorded as missing and every metric
built on it is left out; a hook never raises into the program.  Spans stay in
memory and are written out by the caller when the traced pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time

import numpy as np


def _path_attrs(a):
    n = int(a["n"])
    nodes = a["grid"].nodes
    return {"paths": n, "steps": n * (len(nodes) - 1), "horizon": float(nodes[-1])}


def _collect_attrs(a):
    n, cfg = int(a["n"]), a["cfg"]
    return {"paths": n, "batches": math.ceil(n / cfg.batch_size),
            "workers": int(cfg.workers)}


# (module, attribute, span name, argument counter); the counter gets the
# call's bound arguments by parameter name.
SPAN_HOOKS = (
    ("bridgeint.cli", "main", "cli.main", None),
    ("bridgeint.cli", "load_config", "cli.config", None),
    ("bridgeint.cli", "_write_rows", "cli.write", None),
    ("bridgeint.cli", "_write_summary", "cli.write", None),
    ("bridgeint.convergence", "ConvergenceReport.write_csv", "cli.write", None),
    ("bridgeint.cli", "run_theorem1", "convergence.run", None),
    ("bridgeint.convergence", "_one_sided_mgf_reference", "convergence.references", None),
    ("bridgeint.convergence", "moment_two_sided", "quadrature.moment_two_sided", None),
    ("bridgeint.convergence", "moment_free", "quadrature.moment_free", None),
    ("bridgeint.cli", "moment_bridge", "quadrature.moment_bridge",
     lambda a: {"k": int(a["k"])}),
    ("bridgeint.cli", "moment_free", "quadrature.moment_free", None),
    ("bridgeint.cli", "moment_two_sided", "quadrature.moment_two_sided", None),
    ("bridgeint.quadrature", "moment_free", "quadrature.moment_free", None),
    ("bridgeint.estimators", "_collect", "estimators.collect", _collect_attrs),
    ("bridgeint.estimators", "bridge_integral_batch", "path_sim.bridge", _path_attrs),
    ("bridgeint.estimators", "free_integral_batch", "path_sim.free", _path_attrs),
    ("bridgeint.estimators", "green_potential_radial", "potentials.green",
     lambda a: {"points": int(np.size(a["dist"]))}),
    ("bridgeint.estimators", "green_potential", "potentials.green",
     lambda a: {"points": 1}),
    ("bridgeint.cli", "transition_density", "gaussian.transition_density", None),
    ("bridgeint.estimators", "transition_density", "gaussian.transition_density", None),
)

# per-step counters and the hook each one needs
POTENTIAL_HOOK = ("bridgeint.potentials", "Potential.__call__")
STREAM_HOOK = ("bridgeint.estimators", "stream")
COUNTERS = {
    "potentials.eval.radial": POTENTIAL_HOOK,
    "potentials.eval.tabulated": POTENTIAL_HOOK,
    "path_sim.normals": STREAM_HOOK,
}


def _resolve(module_name: str, attr: str):
    """(owner, name, value) for ``module.attr``, or None when it does not resolve."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    return None if value is None else (owner, name, value)


class Tracer:
    """Spans and per-step counters for one traced process.

    ``install`` puts the hooks in place and ``uninstall`` restores the
    original functions.  ``run_id`` tags the spans of each CLI invocation.
    """

    def __init__(self):
        self.spans = []
        self.run_id = None
        self.hooked = []
        self.missing = []
        self.errors = []
        self.outside = {}
        self._stack = []
        self._undo = []
        self._clock = time.perf_counter_ns

    # -- recording -----------------------------------------------------------

    def _open(self, name, attrs):
        span = {"id": len(self.spans), "name": name, "run": self.run_id,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": self._clock(), "end": None, "attrs": attrs, "agg": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span["end"] = self._clock()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    def _count(self, key, items, ns):
        target = self._stack[-1]["agg"] if self._stack else self.outside
        entry = target.setdefault(key, [0, 0, 0])
        entry[0] += 1
        entry[1] += int(items)
        entry[2] += ns

    def _error(self, where, exc):
        msg = f"{where}: {type(exc).__name__}: {exc}"
        if msg not in self.errors:
            self.errors.append(msg)

    # -- hooks ---------------------------------------------------------------

    def _set(self, owner, name, value, original):
        setattr(owner, name, value)
        self._undo.append((owner, name, original))

    def _span_wrapper(self, fn, span_name, counter):
        tracer = self
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {}
            if counter is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    attrs = counter(bound.arguments)
                except Exception as exc:  # a hook must never break the program
                    tracer._error(span_name, exc)
            span = tracer._open(span_name, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)
        return wrapper

    def _hook(self, module_name, attr):
        found = _resolve(module_name, attr)
        label = f"{module_name}.{attr}"
        if found is None:
            self.missing.append(label)
        else:
            self.hooked.append(label)
        return found

    def install(self):
        for module_name, attr, span_name, counter in SPAN_HOOKS:
            found = self._hook(module_name, attr)
            if found is not None:
                owner, name, fn = found
                self._set(owner, name, self._span_wrapper(fn, span_name, counter), fn)

        tracer = self
        clock = self._clock
        found = self._hook(*POTENTIAL_HOOK)
        if found is not None:
            owner, name, call = found

            @functools.wraps(call)
            def timed_call(v, z, *args, **kwargs):
                t0 = clock()
                try:
                    return call(v, z, *args, **kwargs)
                finally:
                    ns = clock() - t0
                    shape = np.shape(z)
                    points = int(np.prod(shape[:-1])) if len(shape) > 1 else 1
                    kind = "tabulated" if getattr(v, "kind", "") == "tabulated" else "radial"
                    tracer._count("potentials.eval." + kind, points, ns)
            self._set(owner, name, timed_call, call)

        found = self._hook(*STREAM_HOOK)
        if found is not None:
            owner, name, make_stream = found

            class TimedGenerator(np.random.Generator):
                """Same bit generator, so draws stay bit-identical; times normals."""

                def standard_normal(self, size=None, dtype=np.float64, out=None):
                    t0 = clock()
                    draws = super().standard_normal(size=size, dtype=dtype, out=out)
                    tracer._count("path_sim.normals", np.size(draws), clock() - t0)
                    return draws

            @functools.wraps(make_stream)
            def timed_stream(*args, **kwargs):
                return TimedGenerator(make_stream(*args, **kwargs).bit_generator)
            self._set(owner, name, timed_stream, make_stream)

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def dump(self) -> dict:
        return {"spans": self.spans, "outside": self.outside, "hooked": self.hooked,
                "missing": self.missing, "errors": self.errors}


# -- per-layer metrics from a dump ----------------------------------------------

class _Spans:
    def __init__(self, dump):
        self.spans = [s for s in dump["spans"] if s["end"] is not None]
        self.by_id = {s["id"]: s for s in self.spans}
        self.children = {}
        for s in self.spans:
            self.children.setdefault(s["parent"], []).append(s)
        self.aggs = [s["agg"] for s in self.spans] + [dump.get("outside", {})]

    @staticmethod
    def dur(s) -> float:
        return (s["end"] - s["start"]) / 1e9

    def named(self, *names):
        return [s for s in self.spans if s["name"] in names]

    def has_ancestor(self, s, names) -> bool:
        parent = s["parent"]
        while parent is not None and parent in self.by_id:
            if self.by_id[parent]["name"] in names:
                return True
            parent = self.by_id[parent]["parent"]
        return False

    def outermost(self, *names):
        return [s for s in self.named(*names) if not self.has_ancestor(s, names)]

    def busy(self, *names) -> float:
        return sum(self.dur(s) for s in self.outermost(*names))

    def self_s(self, s) -> float:
        kids = sum(self.dur(c) for c in self.children.get(s["id"], []))
        counted = sum(entry[2] for entry in s["agg"].values()) / 1e9
        return self.dur(s) - kids - counted

    def counter(self, key, aggs=None):
        calls = items = ns = 0
        for agg in self.aggs if aggs is None else aggs:
            if key in agg:
                c, i, n = agg[key]
                calls, items, ns = calls + c, items + i, ns + n
        return calls, items, ns


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(dump: dict, wall_s: float):
    """Per-layer metrics of one traced pass, plus flags and path-step details.

    A metric whose hook is missing, or whose argument counter failed, is left
    out rather than reported as 0.
    """
    sp = _Spans(dump)
    hooked = set(dump["hooked"])
    spans_ok = {span for module, attr, span, _ in SPAN_HOOKS if f"{module}.{attr}" in hooked}
    counters_ok = {key for key, (module, attr) in COUNTERS.items()
                   if f"{module}.{attr}" in hooked}
    out, flags, details = {}, [], {}

    def put(name, value, spans=(), counters=()):
        if set(spans) <= spans_ok and set(counters) <= counters_ok:
            out[name] = float(value)

    def attr_sum(spans, key):
        values = [s["attrs"].get(key) for s in spans]
        return None if any(v is None for v in values) else sum(values)

    # path_sim
    path_names = ("path_sim.bridge", "path_sim.free")
    for name in path_names:
        spans = sp.named(name)
        steps, paths = attr_sum(spans, "steps"), attr_sum(spans, "paths")
        if steps is not None:
            put(f"{name}.path_steps", steps, [name])
            put(f"{name}.steps_per_path", _ratio(steps, paths), [name])
            put(f"{name}.ns_per_path_step",
                _ratio(1e9 * sum(sp.dur(s) for s in spans), steps), [name])
            by_t = {}
            for s in spans:
                acc = by_t.setdefault(s["attrs"]["horizon"], [0, 0])
                acc[0] += s["attrs"]["steps"]
                acc[1] += s["attrs"]["paths"]
            details[f"{name}.steps_per_path_by_horizon"] = {
                f"{t:g}": round(st / n, 1) for t, (st, n) in sorted(by_t.items())}
        put(f"{name}.self_s", sum(sp.self_s(s) for s in spans), [name])
    _, draws, ns = sp.counter("path_sim.normals")
    put("path_sim.normals.draws", draws, counters=["path_sim.normals"])
    put("path_sim.normals.ns_per_draw", _ratio(ns, draws), counters=["path_sim.normals"])
    put("path_sim.normals.busy_s", ns / 1e9, counters=["path_sim.normals"])
    put("path_sim.wall_share", _ratio(sp.busy(*path_names), wall_s), path_names)

    # potentials
    for kind in ("radial", "tabulated"):
        key = f"potentials.eval.{kind}"
        _, points, ns = sp.counter(key)
        put(f"{key}.points", points, counters=[key])
        put(f"{key}.ns_per_point", _ratio(ns, points), counters=[key])
        put(f"{key}.busy_s", ns / 1e9, counters=[key])
    green = sp.named("potentials.green")
    put("potentials.green.points", attr_sum(green, "points") or 0, ["potentials.green"])
    put("potentials.green.busy_s", sp.busy("potentials.green"), ["potentials.green"])

    # estimators
    collects = sp.named("estimators.collect")
    put("estimators.collect.paths", attr_sum(collects, "paths") or 0, ["estimators.collect"])
    put("estimators.collect.batches", attr_sum(collects, "batches") or 0,
        ["estimators.collect"])
    put("estimators.collect.busy_s", sp.busy("estimators.collect"), ["estimators.collect"])
    put("estimators.collect.self_s", sum(sp.self_s(s) for s in collects),
        ["estimators.collect"])

    # quadrature
    quad_names = ("quadrature.moment_bridge", "quadrature.moment_free",
                  "quadrature.moment_two_sided")
    bridge_q = sp.named("quadrature.moment_bridge")
    put("quadrature.moment_bridge.calls", len(bridge_q), ["quadrature.moment_bridge"])
    for k in (1, 2):
        put(f"quadrature.moment_bridge.k{k}_s",
            sum(sp.dur(s) for s in bridge_q if s["attrs"].get("k") == k),
            ["quadrature.moment_bridge"])
    put("quadrature.moment_free.busy_s", sp.busy("quadrature.moment_free"),
        ["quadrature.moment_free"])
    put("quadrature.moment_two_sided.busy_s", sp.busy("quadrature.moment_two_sided"),
        ["quadrature.moment_two_sided"])
    put("quadrature.wall_share", _ratio(sp.busy(*quad_names), wall_s), quad_names)

    # convergence
    runs = sp.named("convergence.run")
    put("convergence.targets_s",
        sum(sp.dur(s) for s in sp.outermost(*quad_names)
            if sp.has_ancestor(s, ("convergence.run",))),
        ["convergence.run", "quadrature.moment_two_sided", "quadrature.moment_free"])
    put("convergence.references_s", sp.busy("convergence.references"),
        ["convergence.run", "convergence.references"])
    put("convergence.bridge_legs_s",
        sum(sp.dur(s) for s in collects
            if sp.has_ancestor(s, ("convergence.run",))
            and not sp.has_ancestor(s, ("convergence.references",))),
        ["convergence.run", "convergence.references", "estimators.collect"])
    put("convergence.self_s", sum(sp.self_s(s) for s in runs), ["convergence.run"])

    # cli
    put("cli.config_s", sp.busy("cli.config"), ["cli.config"])
    put("cli.write_s", sp.busy("cli.write"), ["cli.write"])
    put("cli.self_s", sum(sp.self_s(s) for s in sp.named("cli.main")), ["cli.main"])

    # gaussian
    dens = sp.named("gaussian.transition_density")
    put("gaussian.transition_density.calls", len(dens), ["gaussian.transition_density"])
    put("gaussian.busy_s", sp.busy("gaussian.transition_density"),
        ["gaussian.transition_density"])

    # layers that read zero while the layer that calls them ran
    paths = sp.named(*path_names)
    in_process = [s for s in collects if s["attrs"].get("workers", 1) <= 1
                  or s["attrs"].get("batches", 1) <= 1]
    expectations = (
        ("estimators.collect", bool(collects), bool(runs)),
        ("path_sim", bool(paths), bool(in_process)),
        ("potentials.eval", sum(sp.counter(f"potentials.eval.{k}", [s["agg"] for s in paths])[1]
                                for k in ("radial", "tabulated")) > 0, bool(paths)),
        ("path_sim.normals", sp.counter("path_sim.normals")[1] > 0, bool(paths)),
        ("cli.config", bool(sp.named("cli.config")), bool(sp.named("cli.main"))),
        ("cli.write", bool(sp.named("cli.write")), bool(sp.named("cli.main"))),
    )
    for layer, ran, parent_ran in expectations:
        if parent_ran and not ran:
            flags.append(f"{layer} reads zero while its caller ran")
    steps = attr_sum(paths, "steps")
    inside = sum(sp.counter(f"potentials.eval.{k}", [s["agg"] for s in paths])[1]
                 for k in ("radial", "tabulated"))
    if steps and inside != steps:
        flags.append(f"path-steps {steps} != potential points inside path spans {inside}")
    return out, flags, details
