"""Span recorder for the traced benchmark run, and the per-layer metrics
computed from its spans.

Spans are recorded from outside the program: each public function listed in
``TARGETS`` is wrapped in the module namespace where its caller looks it up,
so the program itself is not edited.  A function that no longer exists is
recorded as missing and the run continues.  Spans stay in memory and are
written out once, when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time


def _file_size(position):
    def size(args, result):
        return os.path.getsize(args[position])

    return size


def _returned_sizes(args, result):
    return sum(os.path.getsize(p) for p in result)


def _length(args, result):
    return len(args[0])


# (span name "<layer>.<function>", modules whose namespace holds the binding
# that callers use, how to count the work of one call).
TARGETS = (
    ("cli.main", ("nfem.cli",), None),
    ("config.load_config", ("nfem.cli",), None),
    ("specialfun.vswf_fields", ("nfem.specialfun",), _length),
    ("forward.solve_modes", ("nfem.cli", "nfem.measurement", "nfem.forward"), None),
    ("forward.interface_residual", ("nfem.cli",), None),
    ("measurement.assemble_nearfield", ("nfem.cli",), None),
    ("measurement.write_nearfield", ("nfem.cli",), _file_size(1)),
    ("measurement.read_nearfield", ("nfem.cli",), _file_size(0)),
    ("measurement.crc64", ("nfem.measurement",), _length),
    ("lsm.svd_factorize", ("nfem.cli", "nfem.lsm"), None),
    ("lsm.run_imaging", ("nfem.cli",), None),
    ("lsm.rhs_matrix", ("nfem.lsm",), _length),
    ("green.green_apply", ("nfem.lsm",), None),
    ("output.write_imaging_csv", ("nfem.cli",), _file_size(1)),
    ("output.write_imaging_vtk", ("nfem.cli",), _file_size(1)),
    ("output.write_cross_sections", ("nfem.cli",), _returned_sizes),
)


class Recorder:
    """In-memory spans: name, start, end, parent span, thread, work count.

    A span opened in a thread with no open span of its own (a sweep worker)
    takes the innermost open span of the installing thread as its parent.
    """

    def __init__(self):
        self.spans = []
        self.missing = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def add(self, name, start, end, parent=None, work=None, span_id=None):
        span_id = span_id or next(self._ids)
        self.spans.append({
            "id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "thread": threading.get_ident(), "work": work,
        })
        return span_id

    def wrap(self, name, fn, size):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            span_id = next(self._ids)
            stack.append(span_id)
            work = None
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    try:
                        work = size(args, result)
                    except (OSError, TypeError, IndexError):
                        work = None
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                self.add(name, start, end, parent, work, span_id)

        return traced

    def install(self):
        """Wrap every target binding that exists; record the ones that do not."""
        for name, namespaces, size in TARGETS:
            attr = name.split(".", 1)[1]
            for namespace in namespaces:
                try:
                    module = importlib.import_module(namespace)
                except ImportError:
                    module = None
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.missing.append(f"{namespace}.{attr}")
                    continue
                setattr(module, attr, self.wrap(name, fn, size))

    def dump(self, path, **extra):
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "missing": self.missing, **extra}, f)


def absent_layers(missing):
    """Span names whose every binding is missing, so they cannot be traced."""
    gone = set(missing)
    return sorted(
        name for name, namespaces, _ in TARGETS
        if all(f"{ns}.{name.split('.', 1)[1]}" in gone for ns in namespaces)
    )


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanTree:
    """Spans of one traced process, with per-name totals and self times."""

    def __init__(self, spans):
        self.by_id = {s["id"]: s for s in spans}
        self.children = {}
        for s in spans:
            self.children.setdefault(s["parent"], []).append(s)
        # Only the outermost span of a name counts, so a binding wrapped in
        # two namespaces on one call path is not counted twice.
        self.outer = {}
        for s in spans:
            if not self._has_ancestor_named(s, s["name"]):
                self.outer.setdefault(s["name"], []).append(s)

    def _has_ancestor_named(self, span, name):
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == name:
                return True
            parent = self.by_id.get(parent["parent"])
        return False

    def calls(self, name):
        return len(self.outer.get(name, ()))

    def total(self, name):
        return sum(s["end"] - s["start"] for s in self.outer.get(name, ()))

    def work(self, name):
        return sum(s["work"] or 0 for s in self.outer.get(name, ()))

    def self_time(self, name):
        """Duration minus the union of the intervals its child spans cover."""
        total = 0.0
        for s in self.outer.get(name, ()):
            clipped = [
                (max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in self.children.get(s["id"], ())
            ]
            total += (s["end"] - s["start"]) - _union_length(clipped)
        return total

    def top_level(self):
        return sum(s["end"] - s["start"] for s in self.children.get(None, ()))


# Per-layer metric -> (SpanTree method, span name).  "self_time" excludes
# the time covered by the span's traced children.
SIMPLE_METRICS = {
    "specialfun.vswf_fields_s": ("total", "specialfun.vswf_fields"),
    "specialfun.vswf_fields_calls": ("calls", "specialfun.vswf_fields"),
    "forward.solve_modes_s": ("total", "forward.solve_modes"),
    "forward.interface_residual_s": ("self_time", "forward.interface_residual"),
    "measurement.assemble_nearfield_s": (
        "self_time", "measurement.assemble_nearfield"),
    "measurement.write_nearfield_s": ("total", "measurement.write_nearfield"),
    "measurement.bytes_written": ("work", "measurement.write_nearfield"),
    "measurement.read_nearfield_s": ("total", "measurement.read_nearfield"),
    "measurement.bytes_read": ("work", "measurement.read_nearfield"),
    "measurement.crc64_s": ("total", "measurement.crc64"),
    "lsm.svd_factorize_s": ("total", "lsm.svd_factorize"),
    "lsm.run_imaging_s": ("total", "lsm.run_imaging"),
    "lsm.rhs_matrix_s": ("total", "lsm.rhs_matrix"),
    "green.green_apply_s": ("total", "green.green_apply"),
    "lsm.sweep_self_s": ("self_time", "lsm.run_imaging"),
    "lsm.points": ("work", "lsm.rhs_matrix"),
    "lsm.chunks": ("calls", "lsm.rhs_matrix"),
    "output.write_imaging_csv_s": ("total", "output.write_imaging_csv"),
    "output.write_imaging_vtk_s": ("total", "output.write_imaging_vtk"),
    "output.write_cross_sections_s": ("total", "output.write_cross_sections"),
    "config.load_config_s": ("total", "config.load_config"),
    "cli.import_s": ("total", "cli.import"),
    "cli.main_s": ("total", "cli.main"),
}

OUTPUT_WRITERS = ("output.write_imaging_csv", "output.write_imaging_vtk",
                  "output.write_cross_sections")

# Span names behind each metric; a metric is missing when any is absent.
METRIC_SOURCES = {
    **{metric: (name,) for metric, (_, name) in SIMPLE_METRICS.items()},
    "measurement.crc64_mb_per_s": ("measurement.crc64",),
    "lsm.points_per_s": ("lsm.rhs_matrix", "lsm.run_imaging"),
    "output.bytes_written": OUTPUT_WRITERS,
}


def layer_metrics(tree):
    """Per-layer metrics of one traced run of the CLI."""
    out = {m: getattr(tree, kind)(name) for m, (kind, name) in SIMPLE_METRICS.items()}
    crc_s = out["measurement.crc64_s"]
    sweep_s = out["lsm.run_imaging_s"]
    out["measurement.crc64_mb_per_s"] = (
        tree.work("measurement.crc64") / 1e6 / crc_s if crc_s > 0 else 0.0)
    out["lsm.points_per_s"] = out["lsm.points"] / sweep_s if sweep_s > 0 else 0.0
    out["output.bytes_written"] = sum(tree.work(n) for n in OUTPUT_WRITERS)
    return out


def missing_metrics(absent):
    return sorted(m for m, names in METRIC_SOURCES.items()
                  if any(n in absent for n in names))
