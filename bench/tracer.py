"""Spans and counters recorded from outside the package.

The tracer replaces each public function with a wrapper in every qsl2
namespace that binds it: `from .exactla import rref` makes
`qsl2.basis.rref` a second binding, and patching `qsl2.exactla.rref`
alone would miss every call made through it.  Scalar arithmetic is too
hot for spans, so `Cyclotomic` methods get plain call counters, and
`_mono_mul` is read through its own `cache_info()`.

A span is (name, parent id, start, end); its id is its index in the
list.  Self time is a span's duration minus the durations of its direct
children, which nest inside it because everything runs on one thread.

The tracer's own cost, `wrapper_s`, is the number of spans and counted
calls times the measured cost of one wrapper around an empty function.
Unlike traced minus untraced wall time it is not buried in host noise.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (layer, module, name): functions whose calls become spans
SPAN_TARGETS = (
    ("exactla", "qsl2.exactla", "rref"),
    ("qalgebra", "qsl2.qalgebra", "qmul"),
    ("qalgebra", "qsl2.qalgebra", "tensor_mul"),
    ("qalgebra", "qsl2.qalgebra", "coproduct"),
    ("qalgebra", "qsl2.qalgebra", "antipode"),
    ("frobenius", "qsl2.frobenius", "lift"),
    ("frobenius", "qsl2.frobenius", "central_reduce"),
    ("basis", "qsl2.basis", "decompose"),
    ("basis", "qsl2.basis", "recompose"),
    ("basis", "qsl2.basis", "eliminate_a_family"),
    ("basis", "qsl2.basis", "eliminate_d_family"),
    ("basis", "qsl2.basis", "localize"),
    ("basis", "qsl2.basis", "clear_denominators"),
    ("basis", "qsl2.basis", "oracle_decompose"),
    ("basis", "qsl2.basis", "verify_freeness"),
    ("expr", "qsl2.expr", "parse_qelement"),
    ("expr", "qsl2.expr", "format_qelement"),
    ("expr", "qsl2.expr", "format_classical"),
    ("expr", "qsl2.expr", "format_tensor"),
    ("expr", "qsl2.expr", "format_cyclotomic"),
    ("cli", "qsl2.cli", "run"),
)

# batches of empty calls timed for the per-wrapper cost; the fastest batch counts
PROBE_BATCHES = 5
PROBE_CALLS = 2000

# (counter, method name on Cyclotomic)
SCALAR_COUNTERS = (
    ("cyclo.mul_calls", "__mul__"),
    ("cyclo.mul_calls", "__rmul__"),
    ("cyclo.inv_calls", "inv"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, parent, start, end]
        self.counts: Counter = Counter()
        self.rref_cells = 0
        self.rref_max_cols = 0
        self._stack: list[int] = []
        self._undo: list = []
        self._mono_mul = None
        self._mono_mul_start = None

    # -- installation -------------------------------------------------------

    def install(self):
        import qsl2.cli  # noqa: F401  (loads every module that may bind a target)
        import qsl2.expr  # noqa: F401
        from qsl2.cyclo import Cyclotomic
        from qsl2.qalgebra import _mono_mul

        namespaces = [m for name, m in sys.modules.items()
                      if name == "qsl2" or name.startswith("qsl2.")]
        for layer, module, name in SPAN_TARGETS:
            original = getattr(sys.modules[module], name, None)
            if original is None:
                raise LookupError("%s.%s is gone; update the tracer targets" % (module, name))
            wrapper = self._span_wrapper("%s.%s" % (layer, name), original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._undo.append((ns, attr, value))
                        setattr(ns, attr, wrapper)
        for counter, method in SCALAR_COUNTERS:
            original = Cyclotomic.__dict__[method]
            self._undo.append((Cyclotomic, method, original))
            setattr(Cyclotomic, method, self._count_wrapper(counter, original))
        self._mono_mul = _mono_mul
        self._mono_mul_start = _mono_mul.cache_info()

    def uninstall(self):
        for ns, attr, value in reversed(self._undo):
            setattr(ns, attr, value)
        self._undo.clear()

    def _count_wrapper(self, counter, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_rref = name == "exactla.rref"

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            if is_rref:
                m = args[0]
                self.rref_cells += m.nrows * m.ncols
                self.rref_max_cols = max(self.rref_max_cols, m.ncols)
            stack.append(sid)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- reporting ----------------------------------------------------------

    @staticmethod
    def _per_call_s(fn) -> float:
        clock = time.perf_counter
        best = float("inf")
        for _ in range(PROBE_BATCHES):
            start = clock()
            for _ in range(PROBE_CALLS):
                fn()
            best = min(best, clock() - start)
        return best / PROBE_CALLS

    def wrapper_s(self) -> float:
        """Estimated time the wrappers added to this run."""
        probe = Tracer()

        def empty():
            return None

        bare = self._per_call_s(empty)
        span = self._per_call_s(probe._span_wrapper("probe", empty)) - bare
        count = self._per_call_s(probe._count_wrapper("probe", empty)) - bare
        return len(self.spans) * max(span, 0.0) + sum(self.counts.values()) * max(count, 0.0)

    def report(self) -> dict:
        """Counters and times by span name, plus `_mono_mul` cache statistics."""
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for sid in range(len(self.spans) - 1, -1, -1):
            name, parent, start, end = self.spans[sid]
            if parent >= 0:
                child_time[parent] += end - start
        for sid, (name, parent, start, end) in enumerate(self.spans):
            calls[name] += 1
            own[name] += (end - start) - child_time[sid]
            # inclusive time counts only the outermost span of each name
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][1]
            if p < 0:
                total[name] += end - start
        info = self._mono_mul.cache_info()
        start = self._mono_mul_start
        return {
            "calls": dict(calls),
            "total_s": dict(total),
            "self_s": dict(own),
            "counts": dict(self.counts),
            "rref_cells": self.rref_cells,
            "rref_max_cols": self.rref_max_cols,
            "mono_mul_hits": info.hits - start.hits,
            "mono_mul_misses": info.misses - start.misses,
            "mono_mul_cache_size": info.currsize,
            "wrapper_s": self.wrapper_s(),
        }
