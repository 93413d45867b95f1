"""Per-layer tracing by wrapping framefree's public functions.

Every public function of the traced modules is replaced, in every module
namespace that binds it, by a wrapper that records a span around the call;
public classes get the same wrapper around construction.  A span's self
time is its duration minus the time of the traced spans nested in it, and
its memory peak is the tracemalloc peak above the allocation level at entry.

Spans are folded into per-name totals in memory as they close (storing each
span would itself allocate inside the traced calls and distort the memory
peaks); the totals are read once when the run ends.
"""

import functools
import inspect
import time
import tracemalloc

MODULES = ("cli", "states", "tensor", "twirl", "fisher", "measure", "verify")


class Tracer:
    """Span totals per traced name.

    Timing and memory are taken in separate passes: tracemalloc slows
    allocation-heavy Python code by an order of magnitude, so self times
    come from rounds run with it off, and the peaks from one extra round
    run with `memory` on.
    """

    def __init__(self):
        self.totals = {}  # name -> [self seconds, calls]
        self.peaks = {}  # name -> peak bytes above the level at entry
        self.memory = False
        self._stack = []  # per open span: [child seconds, child peak bytes]

    def _wrap(self, name, fn):
        totals, peaks, stack = self.totals, self.peaks, self._stack
        clock = time.perf_counter
        traced_memory, reset_peak = tracemalloc.get_traced_memory, tracemalloc.reset_peak

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            memory = self.memory
            if memory:
                current, peak_before = traced_memory()
                if stack:
                    stack[-1][1] = max(stack[-1][1], peak_before)
                reset_peak()
            frame = [0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                entry = totals.get(name)
                if entry is None:
                    entry = totals[name] = [0.0, 0]
                entry[0] += elapsed - frame[0]
                entry[1] += 1
                if stack:
                    stack[-1][0] += elapsed
                if memory:
                    peak = max(traced_memory()[1], frame[1])
                    peaks[name] = max(peaks.get(name, 0), peak - current)
                    if stack:
                        stack[-1][1] = max(stack[-1][1], peak)

        return traced

    def install(self, package) -> None:
        """Wrap the public functions and classes of the traced modules and
        rebind every name that refers to a wrapped function."""
        modules = [getattr(package, m) for m in MODULES]
        prefix = package.__name__ + "."
        replaced = {}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                label = f"{mod.__name__[len(prefix):]}.{obj.__qualname__}"
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(label, obj)
                elif inspect.isclass(obj):
                    obj.__init__ = self._wrap(label, obj.__init__)
        for mod in modules + [package]:
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(mod, name, wrapper)

    def metrics(self, totals: dict, rounds: int) -> dict:
        """Self time and calls per round from `totals` (a snapshot of the
        timing pass), peaks in MB, and module self-time totals."""
        out = {}
        modules = dict.fromkeys(MODULES, 0.0)
        for name, (self_s, calls) in totals.items():
            out[f"{name}.self_ms"] = 1e3 * self_s / rounds
            out[f"{name}.calls"] = calls / rounds
            modules[name.split(".", 1)[0]] += 1e3 * self_s / rounds
        for name, peak in self.peaks.items():
            out[f"{name}.peak_mb"] = peak / 2**20
        for mod, ms in modules.items():
            out[f"{mod}.self_ms"] = ms
        return out
