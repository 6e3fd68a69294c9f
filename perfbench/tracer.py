"""Span tracer for the benchmark's traced run.

It replaces public functions at the module attributes their callers resolve
them through (softcontact.dynamics.separation_field, softcontact.collision.ssdf,
...) with wrappers that record one span per call: name, start, end, parent
span and an optional work count. Nothing inside softcontact changes; the
wrappers live in this process only and are removed by `uninstall`.
"""
from __future__ import annotations

import functools
import json
import time

import numpy as np

from workloads import module


def _ssdf_entries(aopc, p, *args, **kwargs):
    p = np.asarray(p)
    return (p.shape[0] if p.ndim == 2 else 1) * aopc.num_points


def _pair_entries(a, b, *args, **kwargs):
    return 2 * a.num_points * b.num_points


def _columns(f, x, *args, **kwargs):
    return np.size(x)


# (module, attribute, span name, work count). One function can be reached
# through several modules; each binding is wrapped under the same span name.
TARGETS = (
    ("dynamics", "rollout", "dynamics.rollout", None),
    ("dynamics", "step", "dynamics.step", None),
    ("dynamics", "forward_dynamics", "dynamics.forward_dynamics", None),
    ("verify", "forward_dynamics", "dynamics.forward_dynamics", None),
    ("dynamics", "total_contact_force", "dynamics.total_contact_force", None),
    ("verify", "total_contact_force", "dynamics.total_contact_force", None),
    ("dynamics", "pose_all", "dynamics.pose_all", None),
    ("verify", "pose_all", "dynamics.pose_all", None),
    ("dynamics", "pose_aopc", "geometry.pose_aopc", None),
    ("dynamics", "separation_field", "collision.separation_field", None),
    ("verify", "separation_field", "collision.separation_field", None),
    ("collision", "ssdf", "ssdf.ssdf", _ssdf_entries),
    ("dynamics", "ssdf_ssdf_force", "contact.ssdf_ssdf_force", _pair_entries),
    ("collision", "softmax", "core.softmax", None),
    ("ssdf", "softmax", "core.softmax", None),
    ("contact", "softmax", "core.softmax", None),
    ("contact", "softplus", "core.softplus", None),
    ("verify", "check_pipeline_gradients", "verify.check_pipeline_gradients", None),
    ("verify", "cs_gradient", "verify.cs_gradient", _columns),
    ("verify", "fd_gradient", "verify.fd_gradient", None),
    ("config", "load_config", "config.load_config", None),
    ("config", "generate_primitive", "geometry.generate_primitive", None),
    ("geometry", "generate_primitive", "geometry.generate_primitive", None),
)


class Tracer:
    """Spans in memory, in call order; parent -1 marks a root span."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.work: list[int] = []
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, fn, span_name, work):
        sid = self._name_ids.setdefault(span_name, len(self._name_ids))
        if sid == len(self.names):
            self.names.append(span_name)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(sid)
            self.parent.append(stack[-1] if stack else -1)
            self.work.append(work(*args, **kwargs) if work else 0)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, span_name, work in TARGETS:
            mod = module(mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, span_name, work))

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def clear(self):
        for lst in (self.name_id, self.start, self.end, self.parent, self.work):
            lst.clear()

    def spans(self) -> "SpanTable":
        return SpanTable(self.names, self.name_id, self.start, self.end, self.parent, self.work)


class SpanTable:
    """Array view of recorded spans with durations and self times."""

    def __init__(self, names, name_id, start, end, parent, work):
        self.names = list(names)
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.start = np.asarray(start, dtype=float)
        self.end = np.asarray(end, dtype=float)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.work = np.asarray(work, dtype=np.int64)
        self.duration = self.end - self.start
        # Calls are nested and single-threaded, so the time a span's children
        # cover is the sum of their durations.
        covered = np.zeros(self.duration.shape)
        has_parent = self.parent >= 0
        np.add.at(covered, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - covered

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name_id.shape, dtype=bool)
        return self.name_id == self.names.index(name)

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def total(self, name: str) -> float:
        return float(self.duration[self.mask(name)].sum())

    def median_ms(self, name: str, self_time: bool = False) -> float:
        m = self.mask(name)
        if not m.any():
            return 0.0
        values = self.self_time[m] if self_time else self.duration[m]
        return float(np.median(values) * 1e3)

    def work_total(self, name: str) -> float:
        return float(self.work[self.mask(name)].sum())

    def work_rate(self, name: str) -> float:
        """Work count per second spent inside the named spans."""
        m = self.mask(name)
        busy = float(self.duration[m].sum())
        return float(self.work[m].sum()) / busy if busy > 0 else 0.0

    def uncovered_frac(self, name: str) -> float:
        m = self.mask(name)
        busy = float(self.duration[m].sum())
        return float(self.self_time[m].sum()) / busy if busy > 0 else 0.0

    def child_total(self, parent_name: str, child_name: str) -> float:
        """Time in child_name spans whose parent is a parent_name span."""
        parents = np.flatnonzero(self.mask(parent_name))
        m = self.mask(child_name) & np.isin(self.parent, parents)
        return float(self.duration[m].sum())

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["name", "start_s", "end_s", "parent", "work"],
                    "spans": [
                        [self.names[n], s, e, int(p), int(w)]
                        for n, s, e, p, w in zip(self.name_id, self.start, self.end, self.parent, self.work)
                    ],
                },
                fh,
            )
