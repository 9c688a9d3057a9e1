"""Spans at gdlab's module boundaries, recorded from outside the program.

`install()` replaces every public function of the traced modules with a
wrapper, in every gdlab module that binds it (a name imported with
`from .problem import range_projector` is a separate binding in the
importing module), so no call escapes the trace.  Each call appends one span
(function, parent span, start, end, work units) to flat in-memory arrays;
`save()` writes them out once the command has finished.

io.f17 is left unwrapped: it formats one number and is called only from
inside io, once per CSV cell, so a wrapper there would double the cost of
the csv_text and dumps spans it sits in.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

TRACED_MODULES = ("cli", "io", "problem", "solvers", "distributed")
UNWRAPPED = {"io.f17"}


def _work_units(key):
    """Work done by one call, where a call's size varies: characters written,
    or solver iterations."""
    if key == "io.atomic_write_text":
        return lambda args, kwargs, result: len(args[1] if len(args) > 1 else kwargs["text"])
    if key == "solvers.run_solver":
        return lambda args, kwargs, result: len(result.t) - 1
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._stack: list[int] = []

    def wrap(self, key, func):
        fid = len(self.names)
        self.names.append(key)
        units = _work_units(key)
        clock = time.perf_counter
        fn, parent, start, end, work, stack = (self.fn, self.parent, self.start,
                                               self.end, self.work, self._stack)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(fn)
            fn.append(fid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            work.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if units is not None:
                work[idx] = units(args, kwargs, result)
            return result

        return traced

    def aggregate(self) -> dict:
        """Per function: calls, inclusive seconds, self seconds (minus the
        traced calls it made), work units."""
        import numpy as np

        fn = np.frombuffer(self.fn, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        work = np.frombuffer(self.work, dtype=np.int64)
        k = len(self.names)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        calls = np.bincount(fn, minlength=k)
        incl = np.bincount(fn, weights=dur, minlength=k)
        self_s = np.bincount(fn, weights=dur - child, minlength=k)
        units = np.bincount(fn, weights=work, minlength=k)
        return {name: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                       "self_s": float(self_s[i]), "work": int(units[i])}
                for i, name in enumerate(self.names) if calls[i]}

    def save(self, path):
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 fn=np.frombuffer(self.fn, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 work=np.frombuffer(self.work, dtype=np.int64))


def install(package="gdlab") -> Tracer:
    """Wrap the public functions of TRACED_MODULES in every loaded module of
    `package` that binds them; returns the tracer that records the calls."""
    tracer = Tracer()
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    wrappers = {}
    for short in TRACED_MODULES:
        mod = sys.modules[f"{package}.{short}"]
        for name, obj in vars(mod).items():
            key = f"{short}.{name}"
            if (callable(obj) and not isinstance(obj, type) and not name.startswith("_")
                    and getattr(obj, "__module__", None) == mod.__name__ and key not in UNWRAPPED):
                wrappers[id(obj)] = (obj, tracer.wrap(key, obj))
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                setattr(mod, name, wrappers[id(obj)][1])
    return tracer
