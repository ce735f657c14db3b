"""Span recording for the traced benchmark run.

The recorder wraps public functions of odecontrol from outside the package:
every call becomes a span (name, start, end, parent span, job id) kept in
compact in-memory arrays until the run ends. Per-layer self time is a span's
duration minus the part of its interval that child spans cover.

Patching replaces every odecontrol module's binding of a wrapped object,
because the package imports names directly (training.bptt_grad,
gradients.integrate_euler, oracles.mat_exp, ...); a patch of the defining
module alone would miss those call sites.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.job = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.job_id = -1
        self._stack = [-1]
        self._next_sid = 0

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, count=None):
        """fn traced as span `name`; count(counts, args, kwargs, out, err) runs
        after the span closes, so its cost lands in the caller's self time."""
        nid = self.name_id(name)
        clock = time.perf_counter
        stack = self._stack
        rec = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = rec._next_sid
            rec._next_sid = sid + 1
            stack.append(sid)
            out = err = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                err = exc
                raise
            finally:
                t1 = clock()
                stack.pop()
                rec.sid.append(sid)
                rec.parent.append(parent)
                rec.name.append(nid)
                rec.job.append(rec.job_id)
                rec.start.append(t0)
                rec.end.append(t1)
                if count is not None:
                    count(rec.counts, args, kwargs, out, err)

        return traced

    def spans(self):
        """(sid, parent, name, start, end) tuples in completion order."""
        names = self.names
        return [
            (self.sid[i], self.parent[i], names[self.name[i]], self.start[i], self.end[i])
            for i in range(len(self.sid))
        ]

    def write_csv_gz(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("job,span,parent,name,start_s,end_s\n")
            names = self.names
            for i in range(len(self.sid)):
                fh.write(
                    f"{self.job[i]},{self.sid[i]},{self.parent[i]},{names[self.name[i]]},"
                    f"{self.start[i]!r},{self.end[i]!r}\n"
                )


def self_times(spans) -> dict[str, float]:
    """Total self time per span name.

    spans is an iterable of (sid, parent, name, start, end); parent is -1 for
    a root. A span's self time is its duration minus the length of the union
    of its children's intervals, each clipped to the span's own interval.
    """
    spans = list(spans)
    by_sid = {s[0]: s for s in spans}
    children = defaultdict(list)
    for sid, parent, _name, start, end in spans:
        if parent in by_sid:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for sid, _parent, name, start, end in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[name] += (end - start) - covered
    return dict(out)


class Patches:
    """Installs wrappers over every odecontrol binding of an object and
    restores the originals on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def _modules(self):
        return [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "odecontrol" or k.startswith("odecontrol."))
        ]

    def function(self, module, attr: str, wrapper_for) -> None:
        """Replace module.attr, and every other odecontrol binding of the same
        object, with wrapper_for(original)."""
        orig = getattr(module, attr)
        wrapped = wrapper_for(orig)
        for mod in self._modules():
            for name, val in list(vars(mod).items()):
                if val is orig:
                    self._saved.append((mod, name, orig))
                    setattr(mod, name, wrapped)

    def method(self, cls, attr: str, wrapper_for) -> None:
        orig = cls.__dict__[attr]
        self._saved.append((cls, attr, orig))
        setattr(cls, attr, wrapper_for(orig))

    def restore(self) -> None:
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
