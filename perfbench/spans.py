"""In-memory spans around the benchmark's calls into each package module.

A span is (name, start, end, parent, op): `name` is "<module>.<call>", times
come from `time.perf_counter`, `parent` indexes the enclosing span (or is
None) and `op` is the benchmark op the span belongs to, so spans of one op
share that id. Nothing is written until `dump` is called at the end of a
run. With tracing off, `span` returns a shared do-nothing context manager,
so untraced ops pay one attribute lookup per call.
"""
from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict

SETUP_OP = -1
CLI_OP = -2

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._stack = []
        self.op = SETUP_OP

    def span(self, name: str):
        return self._record(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _record(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def add_inner(self, name: str, outer: str, call):
        """In a traced op, time `call`, an inner call of the last `outer` span re-run on the same inputs.

        The package cannot be traced from inside, so the part of an outer
        call spent in a call it wraps (build_model -> build_flow_matrices) is
        measured by running the inner call again. The span is recorded as a
        child of that outer span, which takes its duration out of the outer
        module's self time; its interval lies after the parent's.
        """
        parent = max(k for k, span in enumerate(self.spans) if span[0] == outer and span[4] == self.op)
        start = time.perf_counter()
        result = call()
        self.spans.append([name, start, time.perf_counter(), parent, self.op])
        return result

    def _child_time(self) -> dict:
        out = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] += end - start
        return out

    def median_per_op(self, *names: str, self_only: bool = False) -> float:
        """Median over ops of the per-op total time in spans called any of `names`.

        With `self_only`, child spans are taken out. Returns 0.0 when no span
        of that name was recorded: the layer did no work in this workload.
        """
        child_time = self._child_time() if self_only else {}
        per_op = defaultdict(float)
        for index, (name, start, end, _, op) in enumerate(self.spans):
            if name in names:
                per_op[op] += end - start - child_time.get(index, 0.0)
        return statistics.median(per_op.values()) if per_op else 0.0

    def self_times(self) -> dict:
        """Median over measured ops of each module's self time: span time minus child spans."""
        per_module = defaultdict(lambda: defaultdict(float))
        child_time = self._child_time()
        for index, (name, start, end, _, op) in enumerate(self.spans):
            if op < 0:
                continue
            module = name.split(".", 1)[0]
            per_module[module][op] += end - start - child_time[index]
        return {module: statistics.median(ops.values()) for module, ops in per_module.items()}

    def dump(self, path):
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                handle.write(json.dumps(record) + "\n")
