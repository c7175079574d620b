"""In-memory span tracer placed around the library's public functions.

``Tracer`` rebinds each traced name in every ``nemem`` module namespace
that holds it (the defining module, the modules that imported it, and
the package itself) and restores the originals on exit, so the library
source stays untouched and calls between modules are seen too.  A span
is recorded only while an op is open; it holds the function, start and
end time, the parent span and the op id.  A thread with no open span of
its own (a ``nemem scan`` worker) takes the innermost open span of the
thread that opened the op as its parent.
"""

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _pair_size(args, kwargs):
    if len(args) >= 2:
        return np.broadcast(args[0], args[1]).size
    return 1


def _batch_size(args, kwargs):
    return np.size(args[0]) // 6 if args else 1


# Traced public names and, for the bulk kernels, how many elements a call
# covers.  Names slated for removal stay listed: a missing one is reported
# as absent instead of failing the run.
TRACED = {
    "algebra.svd32": None,
    "algebra.singular_values": _batch_size,
    "membrane.classify": None,
    "membrane.psi": _pair_size,
    "membrane.plane_energy_values": _pair_size,
    "membrane.plane_energy": None,
    "membrane.relaxed_energy": None,
    "membrane.membrane_stress": None,
    "membrane.relaxed_energy_grad_fd": None,
    "constitutive.frank_energy": None,
    "microstructure.young_measure_for": None,
    "microstructure.measure_pairing": None,
    "relaxation.relax_lamination": None,
    "relaxation.relax_along_line": None,
    "cli.main": None,
    "verification.run_suites": None,
}


class Tracer:
    """Traces ``TRACED`` while entered as a context manager; it may be
    entered and left any number of times.

    Names are resolved when the tracer is built, after ``nemem`` is
    imported.  Open an op with :meth:`op`; spans outside an op are not
    recorded.
    """

    def __init__(self, traced=None):
        self.names = []
        self.absent = []
        self.spans = []  # (id, name index, start ns, end ns, parent id, op id, elements)
        self._ids = itertools.count()
        self._local = threading.local()
        self._op_id = None
        self._op_stack = None
        self._patches = []  # (module, attribute, original, wrapper)
        modules = [m for n, m in list(sys.modules.items()) if n == "nemem" or n.startswith("nemem.")]
        for name, sizer in (TRACED if traced is None else traced).items():
            mod_name, attr = name.rsplit(".", 1)
            try:
                module = importlib.import_module("nemem." + mod_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(len(self.names), original, sizer)
            self.names.append(name)
            for m in modules:
                for key, value in vars(m).items():
                    if value is original:
                        self._patches.append((m, key, original, wrapper))

    def __enter__(self):
        for module, key, _, wrapper in self._patches:
            setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc):
        for module, key, original, _ in self._patches:
            setattr(module, key, original)
        return False

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, index, fn, sizer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op_id = tracer._op_id
            if op_id is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                outer = tracer._op_stack
                parent = outer[-1] if outer else None
            span_id = next(tracer._ids)
            elements = sizer(args, kwargs) if sizer is not None else 0
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((span_id, index, start, end, parent, op_id, elements))

        return wrapper

    def op(self, op_id):
        """Context manager that attributes the spans inside it to ``op_id``."""
        return _OpScope(self, op_id)

    def stats(self):
        """Per-function calls, busy seconds and elements, plus per-module
        self seconds (span time not covered by child spans)."""
        children = defaultdict(list)
        for span in self.spans:
            children[span[4]].append(span)
        per_fn = {n: {"calls": 0, "busy_s": 0.0, "elements": 0} for n in self.names}
        self_s = defaultdict(float)
        for span_id, index, start, end, *_rest in self.spans:
            row = per_fn[self.names[index]]
            row["calls"] += 1
            row["busy_s"] += (end - start) * 1e-9
            row["elements"] += _rest[-1]
            covered = _union_ns(start, end, children.get(span_id, ()))
            self_s[self.names[index].split(".")[0]] += (end - start - covered) * 1e-9
        return per_fn, dict(self_s)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start_ns", "end_ns", "parent", "op", "elements"],
                    "names": self.names,
                    "absent": self.absent,
                    "spans": self.spans,
                },
                fh,
            )
            fh.write("\n")


class _OpScope:
    def __init__(self, tracer, op_id):
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        self.tracer._op_stack = self.tracer._stack()
        self.tracer._op_id = self.op_id

    def __exit__(self, *exc):
        self.tracer._op_id = None
        self.tracer._op_stack = None
        return False


def _union_ns(start, end, spans):
    # Length of the union of child intervals, clipped to [start, end];
    # children from several threads may overlap.
    total = 0
    cur_lo = cur_hi = None
    for _, _, lo, hi, *_ in sorted(spans, key=lambda s: s[2]):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
