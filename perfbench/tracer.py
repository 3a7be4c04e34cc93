"""Spans around every public function of the measured layers.

`Tracer.install()` runs inside a job process before the job's first
call.  It finds, by introspection, every public module-level function of
the eight layers and rebinds each module attribute that refers to it to
a timing wrapper, so intra-module calls and `from .x import f` aliases
are traced too.  Functions added to a layer later get spans without a
change here.  Methods are not wrapped: `StreamAccumulator.update` runs
twice per slot, so per-slot figures come from span time over slot
counts instead.

Spans stay in memory as [name, start, end, parent, ok, size, extra] and
are written once, by `dump()`, when the job ends.  `size` tags the first
argument's state: "n<modes>" for a Gaussian state and "c<cutoff>" for a
Fock state.  `extra` holds the few counts the per-layer metrics need.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("cli", "dsl", "gaussian", "fock", "telegates", "tdm", "loop", "gkp")


def _stream_extra(args, kwargs, _result):
    return {"slots": int(args[0]), "recorded": kwargs.get("sink") is not None}


# Per-function counts, taken after the span has ended.
_EXTRA = {
    "cli.main": lambda a, k, res: {"exit": res},
    "dsl.parse": lambda a, k, res: {
        "instructions": len(getattr(res, "instructions", ()))},
    "loop.simulate": lambda a, k, res: {
        "steps": len((a[1] if len(a) > 1 else k["program"]).steps)},
    "tdm.stream_1d": _stream_extra,
    "tdm.stream_2d": _stream_extra,
    # lattice_sites is called several times per state; key the count by
    # the (logical index, params) it describes so each state counts once
    "gkp.lattice_sites": lambda a, k, res: {
        "sites": len(res[0]), "state": repr(a[:2])},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {"tdm.sink_s": 0.0, "fock.max_leakage": 0.0}
        self._stack = []
        self._fock_state = None
        self._last_amps = None

    def install(self) -> None:
        """Wrap the public functions of every layer."""
        modules = {layer: importlib.import_module(f"cvqsim.{layer}")
                   for layer in LAYERS}
        self._fock_state = modules["fock"].FockState
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or inspect.isclass(obj)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = _EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False,
                    self._size(args), None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[4] = True
            if extra is not None:
                span[6] = extra(args, kwargs, result)
            self._note_leakage(result)
            return result

        return traced

    def _size(self, args):
        if not args:
            return None
        first = args[0]
        if isinstance(first, self._fock_state):
            return f"c{first.cutoff}"
        if hasattr(first, "cov") and hasattr(first, "n_modes"):
            return f"n{first.n_modes}"
        return None

    def _note_leakage(self, result):
        states = result if isinstance(result, tuple) else (result,)
        for st in states:
            if isinstance(st, self._fock_state) and st.amps is not self._last_amps:
                self._last_amps = st.amps
                leak = st.leakage()
                if leak > self.counters["fock.max_leakage"]:
                    self.counters["fock.max_leakage"] = leak

    def timed_sink(self, sink):
        """Wrap a tdm sink so its time adds up in the tdm.sink_s counter."""
        counters, clock = self.counters, time.perf_counter

        def timed(record):
            start = clock()
            sink(record)
            counters["tdm.sink_s"] += clock() - start
        return timed

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)
