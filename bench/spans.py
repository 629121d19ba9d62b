"""Spans recorded from the benchmark's side of each layer boundary.

A span is (name, start, end, parent index, op id), kept in memory and
written out when the run ends.  Library workloads open spans around the
calls they make; for the CLI workload the names ``limbsys.cli`` imports are
replaced by span-recording wrappers for the duration of each traced op, so
``cli.main`` self time and the ``io`` layer are measured without editing
any program file.
"""

from __future__ import annotations

import contextlib
import time

# Names imported by limbsys.cli -> the layer whose span wraps them.
CLI_LAYERS = {
    "load_coupling": "io.load",
    "load_problem": "io.load",
    "load_system": "io.load",
    "write_json": "io.write_json",
    "coupling_payload": "io.payload",
    "duals_payload": "io.payload",
    "system_payload": "io.payload",
    "witness_payload": "io.payload",
    "is_extremal": "extremality.is_extremal",
    "support_graph": "extremality.support_graph",
    "decompose": "limbs.decompose",
    "reconstruct": "limbs.reconstruct",
    "solve": "transport.solve",
    "run_demo": "circle.run_demo",
}


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr.stack[-1] if tr.stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), None, parent, tr.op_id])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr.stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = None

    def span(self, name):
        return _Span(self, name)


class NullTracer:
    """Stand-in for untraced runs: spans cost one method call."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null


@contextlib.contextmanager
def wrapped_cli(cli_module, tracer):
    """Replace the layer functions ``cli_module`` imported by traced ones."""
    originals = {}

    def wrap(fn, layer):
        def traced(*args, **kwargs):
            with tracer.span(layer):
                return fn(*args, **kwargs)

        return traced

    for name, layer in CLI_LAYERS.items():
        fn = getattr(cli_module, name, None)
        if callable(fn):
            originals[name] = fn
            setattr(cli_module, name, wrap(fn, layer))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(cli_module, name, fn)


def self_times(spans, name):
    """Duration minus the time covered by direct children, per span of ``name``."""
    child_time = {}
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return [
        (index, end - start - child_time.get(index, 0.0))
        for index, (span_name, start, end, _, _) in enumerate(spans)
        if span_name == name
    ]
