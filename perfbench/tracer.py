"""Span tracer that wraps public cflgap functions from outside the package.

``Tracer.patch()`` rebinds every listed function in each ``cflgap`` module
that holds a reference to it (a function imported into five modules is
rebound five times); methods are rebound once, on their class.
``Tracer.unpatch()`` restores every binding it changed.  While patched, each
call adds to per-name totals and keeps a span ``(name, start_ns, end_ns,
parent, command, count)`` in memory; nothing is written until
``write_jsonl`` is called.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# Public functions per module; "Class.method" names are rebound on the class.
TARGETS = {
    "cli": ("build_parser", "cmd_sample"),
    "io": ("read_document", "load_core_doc", "write_document", "sha256_of"),
    "instance": ("validate_params", "CostVector.vector_cost", "CostVector.solution_cost"),
    "corevec": (
        "make_core_vector", "midpoint", "FracVector.equals",
        "check_natural_lp", "collides",
    ),
    "rounding": (
        "sample_outcome", "solution_violations", "outcome_class_key",
        "enumerate_outcome_classes", "expected_vector", "verify_midpoint",
        "pivot_facilities", "round_slots", "split_slots",
    ),
    "randomness": (
        "ExactRng.integer_below", "ExactRng.bernoulli", "ExactRng.weighted_index",
        "ExactRng.permuted", "ExactRng.chosen_positions",
    ),
    "certify": (
        "noncolliding_count_brute", "noncolliding_count_exact",
        "noncolliding_prob_mc", "certify_gap",
    ),
    "polytope": (
        "enumerate_integer_solutions", "membership_lp",
        "verify_membership", "brute_force_opt",
    ),
    "simplex": ("feasible_combination",),
}

# Spans kept for the JSONL log (about 25 MB of it); totals count every call.
SPAN_LIMIT = 200_000


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


# Work counted at a boundary, from the call's arguments and result.
COUNTERS = {
    "io.read_document": _file_size,
    "io.sha256_of": _file_size,
    "io.write_document": _file_size,
    "randomness.ExactRng.permuted": lambda args, kwargs, result: len(args[1]),
    "polytope.enumerate_integer_solutions": lambda args, kwargs, result: len(result),
}


def cflgap_modules() -> list:
    """The ``cflgap`` package and every imported ``cflgap.*`` module."""
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "cflgap" or name.startswith("cflgap."))
    ]


def originals() -> dict:
    """Span name -> the function object the package currently binds."""
    found = {}
    for module, names in TARGETS.items():
        mod = importlib.import_module(f"cflgap.{module}")
        for qualname in names:
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                found[f"{module}.{qualname}"] = vars(getattr(mod, cls_name))[attr]
            else:
                found[f"{module}.{qualname}"] = getattr(mod, qualname)
    return found


class Tracer:
    """Spans and per-name totals from patched cflgap functions.

    Totals (calls, busy and self nanoseconds, counts) cover every call.  The
    span log keeps the first ``SPAN_LIMIT`` spans, so that the brute-force
    census, which calls ``collides`` 90,090 times per command, cannot fill
    memory; later spans are only counted in ``dropped``.  Self time is a
    call's duration minus the durations of the traced calls made directly
    inside it.  Every call's duration is kept for the names in
    ``durations_for``, whose percentiles are reported.
    """

    def __init__(self, durations_for):
        self.spans: list = []  # (name, start_ns, end_ns, parent, command, count)
        self.dropped = 0
        self.stats = defaultdict(lambda: {"calls": 0, "busy_ns": 0, "self_ns": 0, "count": 0})
        self.durations = {name: [] for name in durations_for}
        self._stack: list = []  # open frames: [span index or -1, child ns, parent]
        self._command = -1
        self._commands = 0
        self._patches: list = []  # (owner, attribute, original)

    # -- patching ---------------------------------------------------------

    def patch(self) -> None:
        if self._patches:
            raise RuntimeError("already patched")
        for name, original in originals().items():
            wrapper = self._wrap(name, original)
            module, qualname = name.split(".", 1)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(sys.modules[f"cflgap.{module}"], cls_name)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in cflgap_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open()
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(name, start, perf_counter_ns(), frame, None)
                raise
            end = perf_counter_ns()
            tracer._close(name, start, end, frame,
                          counter(args, kwargs, result) if counter else None)
            return result

        traced.__traced_original__ = fn
        return traced

    # -- spans --------------------------------------------------------------

    def _open(self) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        if len(self.spans) < SPAN_LIMIT:
            idx = len(self.spans)
            self.spans.append(None)
        else:
            idx = -1
            self.dropped += 1
        frame = [idx, 0, parent]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, start: int, end: int, frame: list, count) -> None:
        self._stack.pop()
        duration = end - start
        entry = self.stats[name]
        entry["calls"] += 1
        entry["busy_ns"] += duration
        entry["self_ns"] += duration - frame[1]
        entry["count"] += count or 0
        if self._stack:
            self._stack[-1][1] += duration
        if name in self.durations:
            self.durations[name].append(duration)
        if frame[0] >= 0:
            self.spans[frame[0]] = (name, start, end, frame[2], self._command, count)

    @contextmanager
    def command(self, name: str):
        """Root span of one CLI command; spans inside it share its number."""
        self._command = self._commands
        self._commands += 1
        frame = self._open()
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(name, start, perf_counter_ns(), frame, None)
            self._command = -1

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, command, count in self.spans:
                record = {
                    "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "command": command,
                }
                if count is not None:
                    record["count"] = count
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            if self.dropped:
                handle.write(json.dumps({"dropped": self.dropped}) + "\n")
