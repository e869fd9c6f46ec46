"""Spans and counters around the package's public functions, from outside.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` swaps
each traced function or method for a wrapper, in every ``multiport``
module that holds a reference to it, and ``uninstall`` puts the originals
back.  A wrapper records one span per call (name, start, end, parent span,
op id) and adds the call to its layer's totals:

* ``busy`` is the summed duration of the layer's outermost calls: a call
  made while a span of the same name is open is not a new span;
* ``self`` is busy time minus the time covered by child spans.

A wrapper may run a hook on the result to update counters.  Hooks are the
benchmark's own bookkeeping: their time is taken out of the busy and self
time of every enclosing span.

ExactComplex arithmetic is one layer, ``exact``: only the outermost
arithmetic call of a nest is a span, which is what ``exact.ops`` counts.
Spans are kept in memory, up to ``MAX_SPANS`` of them, and written at the
end; totals and counters always cover every call.
"""

from __future__ import annotations

import sys
from time import perf_counter

from multiport import bell, cli, device, exact, matrices, network, states

EXACT_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "inverse",
    "conjugate", "abs_sq",
)
ENCODERS = ("encode_real", "encode_scalar", "encode_matrix")
MAX_SPANS = 100_000


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, parent id, op id, start, end)
        self.dropped = 0
        self.stack = []  # open frames: [name, span id, start, child time, hook time]
        self.totals = {}  # name -> [calls, busy, self]
        self.counts = {}
        self.distinct = {}  # name -> set of keys
        self.conservation_dev_max = 0.0
        self.op_id = 0
        self.next_id = 0
        self._patches = []

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap ``fn`` so each outermost call under ``name`` is one span."""
        stack = self.stack

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, self.next_id, perf_counter(), 0.0, 0.0]
            self.next_id += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._close(frame, end, stack[-1] if stack else None)
            if after is not None:
                hook_start = perf_counter()
                after(self, args, result)
                if stack:
                    hook = perf_counter() - hook_start
                    stack[-1][3] += hook
                    stack[-1][4] += hook
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame, end, parent):
        name, span_id, start, child, hooks = frame
        duration = end - start
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration - hooks
        total[2] += duration - child
        if parent is not None:
            parent[3] += duration
            parent[4] += hooks
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                (span_id, name, parent[1] if parent else -1, self.op_id, start, end)
            )
        else:
            self.dropped += 1

    def op(self, kind, call):
        """Run one benchmark op as the root span of its layer spans."""
        self.op_id += 1
        return self.span("op." + kind, call)()

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def see(self, name, key):
        self.distinct.setdefault(name, set()).add(key)

    # -- patching ----------------------------------------------------------

    def _replace_function(self, module, attr, name, after=None):
        original = getattr(module, attr)
        wrapper = self.span(name, original, after)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _replace_method(self, cls, attr, name, after=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.span(name, original, after))

    def install(self):
        self._replace_function(cli, "main", "cli.main")
        for attr in ENCODERS:
            self._replace_function(cli, attr, "cli.encode")
        self._replace_function(device, "steady_state", "device.steady_state", _after_steady)
        self._replace_function(device, "compile_spec", "device.compile_spec", _after_compile)
        self._replace_function(device, "exit_record", "device.exit_record")
        self._replace_function(device, "enumerate_paths", "device.enumerate_paths", _after_paths)
        for attr in EXACT_METHODS:
            self._replace_method(exact.ExactComplex, attr, "exact")
        self._replace_function(states, "apply_port_unitary", "states.apply_port_unitary", _after_apply)
        self._replace_function(states, "bosonic_product", "states.bosonic_product", _after_product)
        self._replace_function(bell, "process", "bell.process")
        self._replace_function(bell, "classify_bell", "bell.classify_bell")
        self._replace_method(matrices.Matrix, "apply", "matrices.Matrix.apply")
        self._replace_function(network, "build_network", "network.build")
        self._replace_method(network.WalkEngine, "run", "network.run", _after_run)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics as name -> (value, unit)."""
        def calls(name):
            return self.totals.get(name, [0, 0.0, 0.0])[0]

        def busy(name):
            return self.totals.get(name, [0, 0.0, 0.0])[1]

        def own(name):
            return self.totals.get(name, [0, 0.0, 0.0])[2]

        def ratio(name):
            n = calls(name)
            return len(self.distinct.get(name, ())) / n if n else 0.0

        c = self.counts.get
        return {
            "cli.main.calls": (calls("cli.main"), "count"),
            "cli.main.self_s": (own("cli.main"), "s"),
            "cli.encode.busy_s": (busy("cli.encode"), "s"),
            "device.steady_state.calls": (calls("device.steady_state"), "count"),
            "device.steady_state.busy_s": (busy("device.steady_state"), "s"),
            "device.steady_state.steps": (c("device.steady_state.steps", 0), "count"),
            "device.steady_state.unconverged": (c("device.steady_state.unconverged", 0), "count"),
            "device.compile_spec.calls": (calls("device.compile_spec"), "count"),
            "device.compile_spec.busy_s": (busy("device.compile_spec"), "s"),
            "device.compile_spec.distinct_ratio": (ratio("device.compile_spec"), "ratio"),
            "device.exit_record.busy_s": (busy("device.exit_record"), "s"),
            "device.enumerate_paths.busy_s": (busy("device.enumerate_paths"), "s"),
            "device.enumerate_paths.paths": (c("device.enumerate_paths.paths", 0), "count"),
            "exact.ops": (calls("exact"), "count"),
            "exact.busy_s": (busy("exact"), "s"),
            "states.apply_port_unitary.calls": (calls("states.apply_port_unitary"), "count"),
            "states.apply_port_unitary.busy_s": (busy("states.apply_port_unitary"), "s"),
            "states.apply_port_unitary.distinct_ratio": (ratio("states.apply_port_unitary"), "ratio"),
            "states.bosonic_product.busy_s": (busy("states.bosonic_product"), "s"),
            "states.terms_out": (c("states.terms_out", 0), "count"),
            "bell.process.calls": (calls("bell.process"), "count"),
            "bell.process.self_s": (own("bell.process"), "s"),
            "bell.classify_bell.busy_s": (busy("bell.classify_bell"), "s"),
            "matrices.Matrix.apply.calls": (calls("matrices.Matrix.apply"), "count"),
            "matrices.Matrix.apply.busy_s": (busy("matrices.Matrix.apply"), "s"),
            "network.build.busy_s": (busy("network.build"), "s"),
            "network.run.calls": (calls("network.run"), "count"),
            "network.run.self_s": (own("network.run"), "s"),
            "network.vertex_steps": (c("network.vertex_steps", 0), "count"),
            "network.conservation_dev_max": (self.conservation_dev_max, "prob"),
        }

    def self_times(self):
        """Summed self time per span name, op roots included."""
        return {name: total[2] for name, total in self.totals.items()}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,parent,op,start_s,end_s\n")
            for span_id, name, parent, op, start, end in self.spans:
                fh.write(f"{span_id},{name},{parent},{op},{start!r},{end!r}\n")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "multiport" or name.startswith("multiport."))]


def _after_steady(tracer, args, result):
    tracer.count("device.steady_state.steps", result.steps_used)
    tracer.count("device.steady_state.unconverged", int(not result.converged))


def _after_compile(tracer, args, result):
    spec = args[0]
    tracer.see("device.compile_spec", tuple(
        tuple(v) if isinstance(v, list) else v
        for v in (spec.n, spec.mode, spec.max_steps, spec.r, spec.t, spec.mirror_factor,
                  spec.edge_phases)
    ))


def _after_paths(tracer, args, result):
    tracer.count("device.enumerate_paths.paths", len(result))


def _after_apply(tracer, args, result):
    unitary, state = args
    tracer.see("states.apply_port_unitary", (unitary, frozenset(state.terms.items())))
    tracer.count("states.terms_out", len(result.terms))


def _after_product(tracer, args, result):
    tracer.count("states.terms_out", len(result.terms))


def _after_run(tracer, args, result):
    engine, _lead, steps = args[0], args[1], args[2]
    tracer.count("network.vertex_steps", len(engine.graph.vertices) * steps)
    worst = max(step.conservation_dev for step in result.steps)
    tracer.conservation_dev_max = max(tracer.conservation_dev_max, worst)

