"""Per-layer tracing installed from outside the program.

``Tracer.install`` replaces the public functions of each b2weight layer with
timing wrappers for the duration of a ``with`` block.  ``quad`` and ``weight``
bind ``h_func``, ``gauss_2f1``, ``gamma_fn``, ``d_consts`` and ``eval_L`` by
name at import, and ``ParamPoly.__radd__``/``__rmul__`` are aliases of
``__add__``/``__mul__``, so every module attribute and class attribute that is
the original object gets the same wrapper.

Each call records a span (id, parent id, name, start, end, task) kept in
memory and written out by ``write``; past ``SPAN_CAP`` spans only the totals
grow.  Totals per name are calls, inclusive time (outermost call only, so
recursion is not counted twice), self time (duration minus the time of traced
calls made inside it) and, for a few functions, a work count read from the
result.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from contextlib import contextmanager

# (span name, module, attribute); "ParamPoly.__add__" names a method.
TRACED = (
    ("cli.main", "cli", "main"),
    ("hyper.alpha_beta_recurrence", "hyper", "alpha_beta_recurrence"),
    ("hyper.alpha_closed", "hyper", "alpha_closed"),
    ("hyper.beta_closed", "hyper", "beta_closed"),
    ("hyper.s_inner_closed", "hyper", "s_inner_closed"),
    ("hyper.h_func", "hyper", "h_func"),
    ("hyper.gauss_2f1", "hyper", "gauss_2f1"),
    ("hyper.gamma_fn", "hyper", "gamma_fn"),
    ("ring.add", "ring", "ParamPoly.__add__"),
    ("ring.sub", "ring", "ParamPoly.__sub__"),
    ("ring.neg", "ring", "ParamPoly.__neg__"),
    ("ring.mul", "ring", "ParamPoly.__mul__"),
    ("ring.div", "ring", "ParamPoly.__truediv__"),
    ("ring.pow", "ring", "ParamPoly.__pow__"),
    ("ring.poch", "ring", "poch"),
    ("ring.poly_eval", "ring", "poly_eval"),
    ("vpoly.alpha_beta_via_laplacian", "vpoly", "alpha_beta_via_laplacian"),
    ("vpoly.laplacian", "vpoly", "laplacian"),
    ("vpoly.dunkl_d", "vpoly", "dunkl_d"),
    ("vpoly.divide_by_linear", "vpoly", "divide_by_linear"),
    ("vpoly.product_rule_residual", "vpoly", "product_rule_residual"),
    ("weight.d_consts", "weight", "d_consts"),
    ("weight.eval_L", "weight", "eval_L"),
    ("weight.eval_K", "weight", "eval_K"),
    ("quad.sector_inner_numeric", "quad", "sector_inner_numeric"),
    ("quad.singular_integral", "quad", "singular_integral"),
    ("quad.tanh_sinh", "quad", "tanh_sinh"),
)

# work counts read from a traced function's result
WORK = {
    "hyper.gauss_2f1": lambda result: result.terms_used,
    "quad.sector_inner_numeric": lambda result: result.nodes,
}

TASK_SPAN = "bench.task"
# spans kept in memory and written out; later calls only add to the totals
SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.names = [TASK_SPAN] + [name for name, _, _ in TRACED]
        count = len(self.names)
        self.calls = [0] * count
        self.incl_ns = [0] * count
        self.self_ns = [0] * count
        self.work = [0] * count
        self._active = [0] * count
        self._stack: list[list[int]] = []  # [span id, child ns] per open span
        self._next_id = 0
        self.task_id = -1
        # columns of the recorded spans
        self._span_id = array("q")
        self._parent = array("q")
        self._name = array("H")
        self._start = array("q")
        self._end = array("q")
        self._task = array("q")

    # -- recording ------------------------------------------------------------

    def _enter(self) -> tuple[list[int], int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, 0]
        self._stack.append(frame)
        return frame, parent

    def _exit(self, index: int, frame: list[int], parent: int, start: int, end: int) -> None:
        self._stack.pop()
        duration = end - start
        self.calls[index] += 1
        self.self_ns[index] += duration - frame[1]
        if self._active[index] == 0:
            self.incl_ns[index] += duration
        if self._stack:
            self._stack[-1][1] += duration
        if frame[0] < SPAN_CAP:
            self._span_id.append(frame[0])
            self._parent.append(parent)
            self._name.append(index)
            self._start.append(start)
            self._end.append(end)
            self._task.append(self.task_id)

    def _wrap(self, index: int, fn):
        clock = time.perf_counter_ns
        active = self._active
        measure = WORK.get(self.names[index])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, parent = self._enter()
            active[index] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[index] -= 1
                self._exit(index, frame, parent, start, end)
            if measure is not None:
                self.work[index] += measure(result)
            return result

        return traced

    @contextmanager
    def task(self, task_id: int):
        """Root span of one benchmark task; spans inside it carry its id."""
        self.task_id = task_id
        frame, parent = self._enter()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._exit(0, frame, parent, start, time.perf_counter_ns())

    # -- installation ---------------------------------------------------------

    @contextmanager
    def install(self):
        """Wrap every traced function wherever b2weight binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "b2weight" or n.startswith("b2weight.")]
        undo = []
        for index, (_, module, attr) in enumerate(TRACED, start=1):
            owner = sys.modules[f"b2weight.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                targets = [cls]
            else:
                original = getattr(owner, attr)
                targets = modules
            wrapper = self._wrap(index, original)
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        undo.append((target, key, value))
                        setattr(target, key, wrapper)
        try:
            yield self
        finally:
            for target, key, value in reversed(undo):
                setattr(target, key, value)

    # -- results --------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        return {
            name: {
                "calls": self.calls[i],
                "s": self.incl_ns[i] / 1e9,
                "self_s": self.self_ns[i] / 1e9,
                "work": self.work[i],
            }
            for i, name in enumerate(self.names)
        }

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(self.self_ns[i] for i, n in enumerate(self.names) if n.startswith(prefix)) / 1e9

    def write(self, path, header: dict) -> None:
        """Write the recorded spans and the totals as one JSON document."""
        spans = [
            [self._span_id[i], self._parent[i], self.names[self._name[i]], self._start[i], self._end[i], self._task[i]]
            for i in range(len(self._span_id))
        ]
        payload = dict(
            header,
            span_fields=["id", "parent", "name", "start_ns", "end_ns", "task"],
            spans=spans,
            spans_dropped=max(0, self._next_id - SPAN_CAP),
            totals=self.totals(),
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
