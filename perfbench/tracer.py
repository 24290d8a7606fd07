"""Spans around vurkit's public layer functions, recorded from outside the package.

``Tracer.install`` replaces each traced function in every loaded ``vurkit``
module that bound its name (``lur`` imports ``optimize_alpha`` and
``variance`` directly, ``cli`` imports ``lur_test``), so calls between
modules are seen however they were imported.  Spans stay in memory; the
summary is computed once the traced phase ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import threading
from time import perf_counter

LAYERS = (
    "cli.main",
    "io.load_observable",
    "io.load_state",
    "core.eigendecompose",
    "core.variance",
    "entropic.best_entropic_constant",
    "engine.optimize_alpha",
    "engine.bound_at_alpha",
    "engine.inner_max",
    "oracle.minimize_variance_sum",
    "lur.lur_test",
)

# optimize_alpha's defaults: a (1e-3, 1e3) range scanned on a 200-point log grid
_ALPHA_RANGE = (1e-3, 1e3)
_ALPHA_GRID = 200

# span fields
_NAME, _JOB, _START, _END, _PARENT, _FAILED, _CHILD, _NOTE = range(8)


def _alpha_at_edge(alpha: float) -> bool:
    lo, hi = (math.log(v) for v in _ALPHA_RANGE)
    step = (hi - lo) / (_ALPHA_GRID - 1)
    t = math.log(alpha)
    return t - lo <= step or hi - t <= step


def _note(name: str, args, kwargs, result):
    """Per-call count the summary needs, read from the call's own arguments and result."""
    if name == "engine.optimize_alpha":
        return _alpha_at_edge(result.alpha)
    if name == "oracle.minimize_variance_sum":
        config = args[1] if len(args) > 1 else kwargs.get("config")
        restarts = config.restarts if config is not None else 64
        return (restarts, result.restarts_agreeing)
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = -1
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        is_load = name.startswith("io.load_")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            note = os.path.getsize(args[0]) if is_load else None
            span = [name, tracer.job, perf_counter(), 0.0, parent, False, 0.0, note]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if name == "cli.main":
                    span[_FAILED] = result != 0
                elif not is_load:
                    span[_NOTE] = _note(name, args, kwargs, result)
                return result
            except BaseException:
                span[_FAILED] = True
                raise
            finally:
                span[_END] = perf_counter()
                stack.pop()
                if parent >= 0:
                    tracer.spans[parent][_CHILD] += span[_END] - span[_START]

        return traced

    def install(self) -> None:
        if not self._wrappers:
            for layer in LAYERS:
                module, func = layer.split(".")
                fn = getattr(importlib.import_module(f"vurkit.{module}"), func)
                self._wrappers[id(fn)] = (fn, self._wrap(layer, fn))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "vurkit" or modname.startswith("vurkit.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and value is hit[0]:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def summary(self) -> dict:
        """Per-layer calls, busy and self time, failures, and the derived counts."""
        layers = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0} for name in LAYERS}
        extra = {"inner_max_under_optimize": 0, "optimize_at_edge": 0, "oracle_restarts": 0,
                 "oracle_agreeing": 0, "bytes_parsed": 0, "variance_under_lur": 0}
        by_job: dict[int, dict[str, float]] = {}
        spans = self.spans
        for span in spans:
            name = span[_NAME]
            duration = span[_END] - span[_START]
            job = by_job.setdefault(span[_JOB], {})
            job[name] = job.get(name, 0.0) + duration
            rec = layers[name]
            rec["calls"] += 1
            rec["busy_s"] += duration
            rec["self_s"] += duration - span[_CHILD]
            rec["failed"] += bool(span[_FAILED])
            note = span[_NOTE]
            if name == "engine.inner_max":
                parent = span[_PARENT]
                while parent >= 0 and spans[parent][_NAME] != "engine.optimize_alpha":
                    parent = spans[parent][_PARENT]
                extra["inner_max_under_optimize"] += parent >= 0
            elif name == "engine.optimize_alpha":
                extra["optimize_at_edge"] += bool(note)
            elif name == "oracle.minimize_variance_sum" and note is not None:
                extra["oracle_restarts"] += note[0]
                extra["oracle_agreeing"] += note[1]
            elif name.startswith("io.load_") and note is not None:
                extra["bytes_parsed"] += note
            elif name == "core.variance" and span[_PARENT] >= 0:
                extra["variance_under_lur"] += spans[span[_PARENT]][_NAME] == "lur.lur_test"
        return {"layers": layers, "extra": extra, "spans": len(spans), "by_job": by_job}
