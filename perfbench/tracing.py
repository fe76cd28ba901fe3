"""Layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions of each fmasim layer
module, plus two hot methods, with wrappers that record one span per
call: name, start, end and the index of the enclosing span. A function
is replaced in every fmasim module namespace that holds it, so calls are
caught where the runners look them up (``simulation.contact_wrench``,
``dynamics.frame_transforms``, ...). ``uninstall`` puts the originals
back, so checks run between passes are never traced.

Spans live in flat arrays in memory; ``summarize`` turns them into call
counts and self times (span time minus the time of its child spans).
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "config", "simulation", "force_control", "fma", "dynamics", "kinematics", "spatial")

# Methods called per sample or per substep that carry a layer's work.
METHODS = (
    ("force_control", "SignalConditioner", "step"),
    ("spatial", "Wrench", "__post_init__"),
)

RUNNERS = ("simulation.run_fma_scenario", "simulation.run_force_control_scenario")


class Tracer:
    """Span recorder; one instance serves one traced pass at a time."""

    def __init__(self):
        self.names: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1])
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every public function of the layer modules and the hot methods."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.names = []
        modules = [m for n, m in sorted(sys.modules.items()) if n == "fmasim" or n.startswith("fmasim.")]
        for layer in LAYERS:
            mod = sys.modules[f"fmasim.{layer}"]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, key, value))
                            setattr(holder, key, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"fmasim.{layer}"], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", original))

    def uninstall(self):
        for holder, key, value in reversed(self._patches):
            setattr(holder, key, value)
        self._patches = []

    def arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def summarize(self) -> dict:
        """Per-name call counts and self times of the spans recorded so far."""
        name_id, parent, start, end = self.arrays()
        duration = end - start
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        self_time = duration - child
        calls = np.bincount(name_id, minlength=len(self.names))
        self_s = np.bincount(name_id, weights=self_time, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)
        }

    def save(self, path):
        name_id, parent, start, end = self.arrays()
        np.savez(
            path, names=np.array(self.names), name_id=name_id, parent=parent, start=start, end=end
        )

