"""In-memory span recorder and attribute patching for the traced benchmark run.

A span is (name, tag, start, end, parent). Spans nest on one thread through
a stack, so a span's parent is the span open when it started. Nothing is
written while the program runs; `arrays()` hands the spans over at the end.
"""

from __future__ import annotations

import functools
import time

import numpy as np

NO_PARENT = -1


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self._names = {}        # name -> id
        self._name_list = []
        self.name_id = []
        self.tag = []           # free-form label per span (a conv layer name), or None
        self.start = []
        self.end = []
        self.parent = []
        self._stack = []
        self._patches = []      # (owner, attribute, original) in patch order
        self.enabled_s = 0.0    # wall time with recording on
        self.paused_in_spans_s = 0.0  # recording off while a span was open
        self._enabled_at = None
        self._disabled_at = None

    # ---- recording ----

    def enable(self):
        if not self.enabled:
            self.enabled = True
            self._enabled_at = self.clock()
            if self._disabled_at is not None and self._stack:
                self.paused_in_spans_s += self._enabled_at - self._disabled_at

    def disable(self):
        if self.enabled:
            self.enabled = False
            self._disabled_at = self.clock()
            self.enabled_s += self._disabled_at - self._enabled_at

    def open(self, name, tag=None):
        nid = self._names.get(name)
        if nid is None:
            nid = self._names[name] = len(self._name_list)
            self._name_list.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.tag.append(tag)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx):
        self.end[idx] = self.clock()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self._name_list[self.name_id[idx]]} closed out of order")

    def traced(self, fn, name, tag=None):
        """fn wrapped so each call while enabled records one span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.open(name, tag)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    # ---- patching ----

    def patch(self, owner, attribute, replacement):
        """Set owner.attribute, remembering the original for restore()."""
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def restore(self):
        """Undo every patch, last first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ---- results ----

    def names(self):
        return list(self._name_list)

    def arrays(self):
        """Spans as parallel numpy arrays (name ids index names())."""
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
            "parent": np.asarray(self.parent, dtype=np.int64),
        }

    def uncovered_share(self):
        """Share of the recorded time that no top-level span covers."""
        if self.enabled_s <= 0:
            return 0.0
        arr = self.arrays()
        top = arr["parent"] == NO_PARENT
        covered = float((arr["end"][top] - arr["start"][top]).sum()) - self.paused_in_spans_s
        return 1.0 - covered / self.enabled_s

    def save(self, path):
        """Write every span to an .npz: names, tags and the parallel arrays."""
        tags = sorted({t for t in self.tag if t is not None})
        tag_index = {t: i for i, t in enumerate(tags)}
        tag_id = np.asarray([tag_index.get(t, -1) for t in self.tag], dtype=np.int32)
        np.savez(path, names=np.asarray(self.names()), tags=np.asarray(tags),
                 tag_id=tag_id, **self.arrays())


def self_times(start, end, parent):
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (they nest on a single stack), so
    the covered time is the sum of the children's durations.
    """
    duration = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros_like(duration)
    has_parent = parent != NO_PARENT
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered
