"""Outside-in tracer: spans around calls into the library's public functions.

The library is not edited.  Each traced function is replaced, in every
``polydecomp`` module that looks it up by name, with a wrapper that records a
span (id, parent id, thread, start, end, annotation) in memory.  Because a
module-level call such as ``series_inverse(...)`` inside ``series_dth_root``
resolves through the module's globals, patching the attribute there is
enough to see internal calls too.  ``uninstall`` restores every original.

A layer whose function no longer exists is reported as absent instead of
failing, so the benchmark keeps running when later versions delete a name.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict


def _rows(args, kwargs, result):
    coords = args[0] if args else kwargs["nt_coords"]
    return len(coords)


def _hit(args, kwargs, result):
    return 0 if result is None else 1


PACKAGE = "polydecomp"

# (defining module, function name, annotation of the span or None)
TRACED = (
    ("polynomial", "compose", None),
    ("polynomial", "series_dth_root", None),
    ("polynomial", "series_inverse", None),
    ("polynomial", "taylor_coefficients", None),
    ("decompose", "right_component", None),
    ("decompose", "try_decompose", _hit),
    ("decompose", "is_decomposable", None),
    ("collisions", "alpha_exp", None),
    ("collisions", "alpha_trig", None),
    ("batched", "section_batch", _rows),
    ("batched", "series_root_batch", None),
    ("density", "estimate_density", None),
    ("density", "disk_overlap_area", None),
)

# Counted, not timed: one call per Monte Carlo block.
COUNTED = (("density", "_block_rng"),)


class Tracer:
    """Installs span-recording wrappers; spans stay in memory until written."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, thread, layer, t0, t1, note)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._patches: list[tuple] = []  # (module, attribute, original)
        self._local = threading.local()
        self._next_id = 0
        self._lock = threading.Lock()

    # -- installation -----------------------------------------------------------

    def _modules(self):
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _patch_everywhere(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        wanted = [(m, f, self._span_wrapper, note) for m, f, note in TRACED]
        wanted += [(m, f, self._count_wrapper, None) for m, f in COUNTED]
        modules = self._modules()
        for mod_name, fn_name, make_wrapper, note in wanted:
            layer = f"{mod_name}.{fn_name}"
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(module, fn_name, None)
            if not callable(original):
                self.absent.append(layer)
                continue
            self._patch_everywhere(modules, original, make_wrapper(layer, original, note))
        return self

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, layer, original, note):
        def traced(*args, **kwargs):
            with self._lock:
                self._next_id += 1
                span_id = self._next_id
            stack = self._stack()
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                value = note(args, kwargs, result) if note is not None else None
                self.spans.append(
                    (span_id, parent, threading.get_ident(), layer, t0, t1, value)
                )

        traced.__wrapped__ = original
        return traced

    def _count_wrapper(self, layer, original, note=None):
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[layer] += 1
            return original(*args, **kwargs)

        counted.__wrapped__ = original
        return counted

    # -- summaries --------------------------------------------------------------

    def layer_summary(self) -> dict[str, dict]:
        """Per layer: calls, inclusive seconds, self seconds, summed annotation,
        and for annotated layers the seconds of spans annotated 0."""
        child_time: dict[int, float] = defaultdict(float)
        for span_id, parent, _, _, t0, t1, _ in self.spans:
            if parent:
                child_time[parent] += t1 - t0
        out: dict[str, dict] = {}
        for span_id, _, _, layer, t0, t1, value in self.spans:
            row = out.setdefault(
                layer, {"calls": 0, "s": 0.0, "self_s": 0.0, "note": 0, "note0_s": 0.0}
            )
            dur = t1 - t0
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child_time[span_id]
            if value is not None:
                row["note"] += value
                if value == 0:
                    row["note0_s"] += dur
        return out

    def write(self, path) -> None:
        """One JSON array per line: id, parent, thread, layer, start, end, note."""
        base = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for span_id, parent, thread, layer, t0, t1, value in self.spans:
                fh.write(
                    json.dumps([span_id, parent, thread, layer, t0 - base, t1 - base, value])
                    + "\n"
                )
