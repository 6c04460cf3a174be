"""Span tracer that wraps critgraphs functions from outside the package.

A traced function is rebound, in every loaded ``critgraphs`` module that
holds it, to a wrapper that records one span per call: name, start, end and
the index of the enclosing span.  Because modules look their collaborators
up as globals at call time, rebinding ``critgraphs.coloring.ee_eo`` is enough
to see the calls ``is_f_AT`` makes.  Spans stay in memory; ``write`` dumps
them at the end of a run.  ``restore`` puts every original attribute back.

Generator functions get one span per resumption, so the time a generator
spends producing each item is charged to it and not to its consumer.
"""

import contextlib
import functools
import inspect
import json
import sys
import time


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children (overlapping children count once)."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for j in sorted(children[i], key=lambda c: spans[c][1]):
            lo = max(spans[j][1], reach, start)
            hi = min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Collects spans and per-name counters for the functions it wraps."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # (name, start, end, parent index or None)
        self.calls = {}
        self.outcomes = {}  # name -> {label: count}
        self.raised = {}  # name -> {exception type name: count}
        self._seen_exc = []
        self._stack = []
        self._saved = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = self.clock()

    def _note_exception(self, name, exc):
        # charged to the innermost wrapper it leaves, counted once
        if any(e is exc for e in self._seen_exc):
            return
        self._seen_exc.append(exc)
        bucket = self.raised.setdefault(name, {})
        kind = type(exc).__name__
        bucket[kind] = bucket.get(kind, 0) + 1

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the caller, such as one benchmark operation."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def reset(self):
        """Forget recorded spans and counts; installed wrappers stay."""
        self.spans.clear()
        self.calls.clear()
        self.outcomes.clear()
        self.raised.clear()
        self._seen_exc.clear()
        self._stack.clear()

    def wrap(self, name, fn, outcome=None):
        """Return a wrapper of fn that records spans under name.  outcome, if
        given, maps the return value to a label counted per name."""
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                it = fn(*args, **kwargs)
                while True:
                    tracer._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    except BaseException as exc:
                        tracer._note_exception(name, exc)
                        raise
                    finally:
                        tracer._close()
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] = tracer.calls.get(name, 0) + 1
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._note_exception(name, exc)
                raise
            finally:
                tracer._close()
            if outcome is not None:
                bucket = tracer.outcomes.setdefault(name, {})
                label = outcome(result)
                bucket[label] = bucket.get(label, 0) + 1
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self, targets):
        """Wrap each (span name, owner, attribute, outcome) target.

        owner is a module or a class.  A module-level function is rebound in
        every loaded critgraphs module that holds the same object, since
        ``from .x import f`` copies the reference into the importer.
        """
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "critgraphs" or key.startswith("critgraphs."))
        ]
        for name, owner, attr, outcome in targets:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, outcome)
            if inspect.isclass(owner):
                holders = [owner]
            else:
                holders = [m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                self._saved.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def restore(self):
        """Put back every attribute install replaced, newest first."""
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    # -- reporting ---------------------------------------------------------

    def summary(self):
        """name -> {"calls", "self_s"} over the recorded spans."""
        out = {}
        for (name, _, _, _), own in zip(self.spans, self_times(self.spans)):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            row["self_s"] += own
        for name, n in self.calls.items():
            out.setdefault(name, {"calls": 0, "self_s": 0.0})["calls"] = n
        return out

    def write(self, path, meta):
        """Dump spans as [name index, start, end, parent] rows plus meta."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], a, b, p] for n, a, b, p in self.spans]
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"meta": meta, "names": names, "spans": rows}, fh)
