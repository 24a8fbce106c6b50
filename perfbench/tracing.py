"""Span tracing of oscinv's public functions, installed from outside the package.

Every layer module imports its neighbours' functions by name (``forward``
holds its own reference to ``quadrature.cumulative_oscillatory``), so wrapping
a function only where it is defined would let those calls escape.
``Tracer.install`` wraps each public function and public method of the layer
modules and then replaces every reference to the original in every ``oscinv``
module namespace; ``uninstall`` puts the originals back.  The package source
is never edited.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at top level).  Spans stay in memory until the run writes
them out.  Counts are recorded by hooks at the same call boundaries.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import os
import sys
import time

LAYERS = ("expressions", "traces", "quadrature", "basis", "sources", "forward",
          "asymptotics", "volterra", "inverse", "harness", "config", "cli")

# Computed, not measured: bytes of the arrays one cumulative_oscillatory pass
# materialises per envelope sample: the float input (8), its complex copy (16),
# the pair phase, full-pair and half-pair sums (3 arrays of N/2 complex, 24)
# and the complex output (16).
QUAD_BYTES_PER_SAMPLE = 64


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _lambdify_before(args, kwargs):
    from oscinv import expressions
    return len(expressions._LAMBDIFY_CACHE)


def _lambdify_after(tr, args, kwargs, out, before):
    from oscinv import expressions
    new = len(expressions._LAMBDIFY_CACHE) - before
    tr.counts["expressions.compiles"] += new
    tr.counts["expressions.cache_hits"] += 1 - new


def _quadrature_after(tr, args, kwargs, out, before):
    n = len(_arg(args, kwargs, 0, "values"))
    h = float(_arg(args, kwargs, 1, "h"))
    theta = float(_arg(args, kwargs, 2, "theta"))
    tr.counts["quadrature.passes"] += 1
    tr.counts["quadrature.samples"] += n
    tr.counts["quadrature.bytes_computed"] += QUAD_BYTES_PER_SAMPLE * n
    # the moment series branch runs when |theta * 2h| < 0.5
    if abs(theta * 2.0 * h) < 0.5:
        tr.counts["quadrature.series_passes"] += 1


def _volterra_after(tr, args, kwargs, out, before):
    tr.counts["volterra.steps"] += out.grid.size - 1


def _emit_after(tr, args, kwargs, out, before):
    tr.counts["harness.emit.bytes"] += os.path.getsize(out)


def _lambda_profile_after(tr, args, kwargs, out, before):
    if tr.inside("inverse."):
        tr.counts["inverse.lambda_profiles"] += 1


# span name -> (before hook or None, after hook)
HOOKS = {
    "expressions.lambdify_cached": (_lambdify_before, _lambdify_after),
    "quadrature.cumulative_oscillatory": (None, _quadrature_after),
    "volterra.solve_second_kind": (None, _volterra_after),
    "harness.emit_report": (None, _emit_after),
    "asymptotics.lambda_profile": (None, _lambda_profile_after),
}


def public_callables(module, layer):
    """(owner, attribute, span name, kind) for every public function and method.

    ``kind`` is "function", "method", "classmethod" or "staticmethod".  Only
    names in the module's ``__all__`` that the module itself defines are
    taken; dunder methods and properties are not wrapped.
    """
    out = []
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out.append((module, name, f"{layer}.{name}", "function"))
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, raw in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(raw, classmethod):
                    kind = "classmethod"
                elif isinstance(raw, staticmethod):
                    kind = "staticmethod"
                elif inspect.isfunction(raw):
                    kind = "method"
                else:
                    continue
                out.append((obj, attr, f"{layer}.{name}.{attr}", kind))
    return out


class Tracer:
    """Records spans and counts around oscinv's public calls while installed."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans = []
        self.stack = []
        self.counts = collections.Counter()
        self._patches = []
        self._wrapped = None

    # -- recording ------------------------------------------------------

    def inside(self, prefix):
        """True when an open span's name starts with ``prefix``."""
        spans = self.spans
        return any(spans[i][0].startswith(prefix) for i in self.stack)

    def wrap(self, fn, name):
        """Callable that runs ``fn`` inside a span called ``name``."""
        spans, stack, clock = self.spans, self.stack, self.clock
        before, after = HOOKS.get(name, (None, None))

        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, out, state)
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------

    def _build(self):
        originals = {}      # id(original function) -> (original, wrapper)
        methods = []        # (class, attribute, replacement, raw original)
        for layer in LAYERS:
            module = importlib.import_module(f"oscinv.{layer}")
            for owner, attr, name, kind in public_callables(module, layer):
                raw = vars(owner)[attr]
                if kind == "function":
                    originals[id(raw)] = (raw, self.wrap(raw, name))
                elif kind == "method":
                    methods.append((owner, attr, self.wrap(raw, name), raw))
                else:
                    rewrap = classmethod if kind == "classmethod" else staticmethod
                    methods.append((owner, attr,
                                    rewrap(self.wrap(raw.__func__, name)), raw))
        self._wrapped = (originals, methods)

    def install(self):
        """Route every oscinv reference to a public callable through a span."""
        if self._patches:
            return
        if self._wrapped is None:
            self._build()
        originals, methods = self._wrapped
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "oscinv"
                                      or modname.startswith("oscinv.")):
                continue
            if modname == "oscinv.selftest":
                continue
            for attr, val in list(vars(module).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, val))
        for owner, attr, replacement, raw in methods:
            setattr(owner, attr, replacement)
            self._patches.append((owner, attr, raw))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# -- arithmetic on recorded spans --------------------------------------------


def self_times(spans, lo=0, hi=None):
    """Self time of each span in ``spans[lo:hi]``, as a list.

    A span's self time is its duration minus the part of its interval that
    its child spans cover; overlapping children are counted once and
    children are clipped to the parent's interval.
    """
    hi = len(spans) if hi is None else hi
    children = collections.defaultdict(list)
    for i in range(lo, hi):
        parent = spans[i][3]
        if parent >= lo:
            children[parent].append((spans[i][1], spans[i][2]))
    out = []
    for i in range(lo, hi):
        _, start, end, _ = spans[i]
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append((end - start) - covered)
    return out


def op_layer_metrics(spans, lo, hi, counts):
    """Per-layer metrics of one op: the spans in ``spans[lo:hi]`` plus counts.

    ``counts`` holds the hook counts recorded during the op and the
    benchmark's own ``sources.drive_calls``.
    """
    selfs = self_times(spans, lo, hi)
    layer_self = collections.Counter()
    name_self = collections.Counter()
    name_calls = collections.Counter()
    name_total = collections.Counter()
    for (name, start, end, _), s in zip(spans[lo:hi], selfs):
        layer_self[name.split(".", 1)[0]] += s
        name_self[name] += s
        name_calls[name] += 1
        name_total[name] += end - start
    steps = counts.get("volterra.steps", 0)
    march = name_total["volterra.solve_second_kind"]
    m = {
        "expressions.parse.calls": name_calls["expressions.parse"],
        "expressions.compiles": counts.get("expressions.compiles", 0),
        "expressions.cache_hits": counts.get("expressions.cache_hits", 0),
        "expressions.self_s": layer_self["expressions"],
        "basis.mode_traces.calls":
            name_calls["basis.SeparableAmplitude.mode_traces"],
        "basis.mode_traces.self_s":
            name_self["basis.SeparableAmplitude.mode_traces"],
        "basis.eval_modes.self_s": name_self["basis.EigenBasis.eval_modes"],
        "sources.split.calls": name_calls["sources.split_source"],
        "sources.drive_calls": counts.get("sources.drive_calls", 0),
        "sources.self_s": layer_self["sources"],
        "quadrature.passes": counts.get("quadrature.passes", 0),
        "quadrature.samples": counts.get("quadrature.samples", 0),
        "quadrature.series_passes": counts.get("quadrature.series_passes", 0),
        "quadrature.self_s": layer_self["quadrature"],
        "quadrature.bytes_computed":
            counts.get("quadrature.bytes_computed", 0),
        "forward.solve.calls": name_calls["forward.solve_direct"],
        "forward.duhamel.calls": name_calls["forward.duhamel_coefficient"],
        "forward.self_s": layer_self["forward"],
        "asymptotics.build_expansion.self_s":
            name_self["asymptotics.build_expansion"],
        "asymptotics.residual_norm.self_s":
            name_self["asymptotics.residual_norm"],
        "asymptotics.u0_on.calls":
            name_calls["asymptotics.AsymptoticExpansion.u0_on"],
        "volterra.steps": steps,
        "volterra.self_s": layer_self["volterra"],
        "volterra.steps_per_s": steps / march if march > 0 else 0.0,
        "inverse.ip1.self_s": name_self["inverse.ip1_recover"],
        "inverse.ip2.self_s": name_self["inverse.ip2_recover"],
        "inverse.ip3.self_s": name_self["inverse.ip3_recover"],
        "inverse.admissibility.self_s":
            name_self["inverse.check_admissibility"],
        "inverse.targets.self_s": name_self["inverse.ip1_build_targets"],
        "inverse.lambda_profiles": counts.get("inverse.lambda_profiles", 0),
        "traces.from_expr.calls": name_calls["traces.TimeTrace.from_expr"],
        "traces.derivative.calls": name_calls["traces.TimeTrace.derivative"],
        "traces.self_s": layer_self["traces"],
        "harness.roundtrip.self_s": name_self["harness.run_roundtrip"],
        "harness.emit.self_s": name_self["harness.emit_report"],
        "harness.emit.bytes": counts.get("harness.emit.bytes", 0),
        "config.self_s": layer_self["config"],
        "cli.main.calls": name_calls["cli.main"],
        "cli.main.self_s": name_self["cli.main"],
    }
    return m


def build_seconds(spans, lo, hi):
    """Wall time inside the basis builders among ``spans[lo:hi]``."""
    return sum(end - start for name, start, end, _ in spans[lo:hi]
               if name.startswith("basis.build_"))


# -- python -X importtime ----------------------------------------------------


def import_seconds(stderr_text, packages=("oscinv", "sympy", "scipy")):
    """Cumulative import seconds of each package from ``-X importtime`` output.

    The output lists modules children-first with nesting shown by indent; a
    package's time is the sum of the cumulative times of its outermost
    entries (``scipy.linalg`` and ``scipy.interpolate`` can both be outermost
    when no scipy module imports the other).
    """
    entries = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        level = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((level, name.strip(), int(cumulative) * 1e-6))
    totals = dict.fromkeys(packages, 0.0)
    stack = []              # ancestors, walking parents-first
    for level, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        for pkg in packages:
            if (name == pkg or name.startswith(pkg + ".")) and not any(
                    a == pkg or a.startswith(pkg + ".") for _, a in stack):
                totals[pkg] += cumulative
        stack.append((level, name))
    return totals
