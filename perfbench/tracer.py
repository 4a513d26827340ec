"""Outside-in tracer: self time and call counts per public function of sunphases.

The tracer wraps every public function defined in the layer modules and
rebinds every reference to it that the package holds: the defining module's
attribute, the ``from .x import y`` names in other modules and in the package
namespace, and function tables such as ``verify._SUITE_FUNCS``.  Wrapping only
the defining module would miss calls made through those references.

A span's self time is its duration minus the durations of the spans it
called.  Time of an operation covered by no span is the ``cli`` layer's.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "sunphases"
LAYERS = ("basis", "generators", "phases", "pauli", "coherent", "verify", "report")

#: Counters derived from a span's arguments or result, per call.
COUNTERS = {
    "basis.enumerate_basis": ("basis.states", lambda args, result: len(result)),
    "phases.group_commutator": (
        "phases.group_commutator.gflop",
        lambda args, result: 24.0 * args[0].shape[0] ** 3 / 1e9,
    ),
    "report.dumps": ("report.dumps.mb", lambda args, result: len(result) / 1e6),
}


class Tracer:
    """Aggregates spans of one operation at a time; not thread-safe."""

    def __init__(self):
        self._originals: dict[str, object] = {}
        self._wrappers: dict[str, object] = {}
        self._stack: list[float] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.covered_s = 0.0

    def _span(self, name: str, fn):
        counter = COUNTERS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                self.self_s[name] += elapsed - children
                self.calls[name] += 1
                if stack:
                    stack[-1] += elapsed
                else:
                    self.covered_s += elapsed
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, result)
            return result

        return span

    def _rebind(self, mapping: dict[int, object]) -> None:
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if id(value) in mapping:
                    setattr(mod, attr, mapping[id(value)])
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if id(entry) in mapping:
                            value[key] = mapping[id(entry)]

    def install(self) -> None:
        """Wrap the public functions of every layer and rebind all references."""
        if not self._originals:
            for layer in LAYERS:
                mod = sys.modules[f"{PACKAGE}.{layer}"]
                for attr, fn in vars(mod).items():
                    if (
                        inspect.isfunction(fn)
                        and not attr.startswith("_")
                        and fn.__module__ == mod.__name__
                    ):
                        name = f"{layer}.{attr}"
                        self._originals[name] = fn
                        self._wrappers[name] = self._span(name, fn)
        self._rebind({id(self._originals[k]): w for k, w in self._wrappers.items()})

    def uninstall(self) -> None:
        self._rebind({id(w): self._originals[k] for k, w in self._wrappers.items()})

    @property
    def span_names(self) -> list[str]:
        return sorted(self._originals)

    def snapshot(self, op_seconds: float) -> dict:
        """Per-span self time and calls, counters, and the uncovered cli time."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "cli_self_s": op_seconds - self.covered_s,
        }
