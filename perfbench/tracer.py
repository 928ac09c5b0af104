"""Span recorder for the traced benchmark run.

Each layer of patlab reaches the layer below through names it imported, so
wrapping those module attributes (where the importer looks them up) records a
span at every layer boundary without touching the program. Spans stay in
memory; ``self_times`` turns them into per-layer self time (span duration
minus the part covered by its child spans) and ``write`` saves them.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time

# (importer module, attribute it looks up, span name). Several importers of
# one function share its span name.
TARGETS = (
    ("patlab.patterns", "parse_class_expression", "patterns.parse"),
    ("patlab.cli", "parse_class_expression", "patterns.parse"),
    ("patlab.cli", "count_sequence", "enumeration.count"),
    ("patlab.cli", "certify_map", "verification.certify"),
    ("patlab.cli", "discover_basis", "verification.basis"),
    ("patlab.verification", "count_sequence", "enumeration.count"),
    ("patlab.verification", "levels_avoiders", "enumeration.levels"),
    ("patlab.verification", "avoids_basis", "enumeration.avoids_basis"),
    ("patlab.verification", "map_F", "maps.F"),
    ("patlab.verification", "invert_F", "maps.Finv"),
    ("patlab.verification", "map_G", "maps.G"),
    ("patlab.verification", "map_H", "maps.H"),
    ("patlab.verification", "deletions", "perms.deletions"),
    ("patlab.maps", "avoids_basis", "enumeration.avoids_basis"),
    ("patlab.maps", "lis_tables", "perms.lis_tables"),
    ("patlab.enumeration", "contains", "perms.contains"),
)

ROOT = ("patlab.cli", "main", "cli")

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in (ROOT,) + TARGETS))


class Tracer:
    """Wraps module attributes so that every call records
    ``(name, job, parent index, start, end)`` in ``spans``. ``job`` is the
    index of the outermost span of the call, shared by all spans under it."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> None:
        for module_name, attr, name in (ROOT,) + TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"trace: {module_name}.{attr} not found; span {name} skipped",
                      file=sys.stderr)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent, job = (stack[-1], stack[0]) if stack else (-1, idx)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, job, parent, start, end)

        return traced

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list) -> tuple[dict[str, float], dict[str, int]]:
    """Per span name: total self time in seconds, and the number of calls."""
    covered = [0.0] * len(spans)
    for name, _, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    own: dict[str, float] = dict.fromkeys(SPAN_NAMES, 0.0)
    calls: dict[str, int] = dict.fromkeys(SPAN_NAMES, 0)
    for i, (name, _, _, start, end) in enumerate(spans):
        own[name] += end - start - covered[i]
        calls[name] += 1
    return own, calls


def write(spans: list, path) -> None:
    """One JSON array per span: [index, name, job, parent, start_s, end_s],
    times relative to the first span's start."""
    t0 = spans[0][3] if spans else 0.0
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for i, (name, job, parent, start, end) in enumerate(spans):
            fh.write(json.dumps([i, name, job, parent, round(start - t0, 9),
                                 round(end - t0, 9)]) + "\n")
