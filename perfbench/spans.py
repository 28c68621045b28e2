"""In-memory span tracing around the layer boundaries of ``kspod``.

Spans are recorded by wrapping module attributes: the public functions the
benchmark calls on the ``kspod`` package, and the functions that
``kspod.emulator`` imports from the lower layers (so the calls ``train`` and
``predict_field`` make across modules are seen). Nothing inside ``src/`` is
changed; the wrappers are removed when the tracer closes. A wrapped name
that no longer exists is skipped and reports zero calls.
"""

import time
from contextlib import contextmanager

import numpy as np

import kspod
import kspod.emulator

# (module, attribute, span name)
WRAPPED = (
    (kspod, "generate_slhd", "design.slhd"),
    (kspod, "synth_flowfield", "snapshots.synth"),
    (kspod, "write_dataset", "snapshots.write"),
    (kspod, "read_dataset", "snapshots.read"),
    (kspod, "train", "emulator.train"),
    (kspod, "save_model", "emulator.save"),
    (kspod, "load_model", "emulator.load"),
    (kspod, "predict_field", "emulator.predict_field"),
    (kspod, "predict_modes", "emulator.predict_modes"),
    (kspod, "evaluation_report", "metrics.report"),
    (kspod.emulator, "decompose", "pod.decompose"),
    (kspod.emulator, "truncate", "pod.truncate"),
    (kspod.emulator, "align_modes", "pod.align"),
    (kspod.emulator, "fit", "kriging.fit"),
    (kspod.emulator, "fit_indicator_theta", "kriging.indicator_theta"),
    (kspod.emulator, "weight_vector", "emulator.weight_vector"),
    (kspod.emulator, "predict_coefficients", "emulator.predict_coefficients"),
)


class Tracer:
    """Spans as [name, start, end, parent index], in call order."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, func, name):
        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)
        return traced

    def install(self):
        for module, attr, name in WRAPPED:
            if hasattr(module, attr):
                func = getattr(module, attr)
                self._saved.append((module, attr, func))
                setattr(module, attr, self.wrap(func, name))

    def close(self):
        for module, attr, func in reversed(self._saved):
            setattr(module, attr, func)
        self._saved.clear()

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children.

        Calls are single-threaded and properly nested, so children never
        overlap one another."""
        own = np.array([end - start for _, start, end, _ in self.spans])
        out = own.copy()
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                out[parent] -= own[i]
        return out

    def select(self, name, within):
        """Indices of the spans called ``name`` that lie (at any depth) under
        a span whose index is in ``within``."""
        idx = []
        for i, (n, _, _, parent) in enumerate(self.spans):
            if n != name:
                continue
            p = parent
            while p >= 0 and p not in within:
                p = self.spans[p][3]
            if p >= 0:
                idx.append(i)
        return idx

    def durations(self, idx) -> np.ndarray:
        return np.array([self.spans[i][2] - self.spans[i][1] for i in idx])

    def dump(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans
        ]
