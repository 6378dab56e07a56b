"""Spans around calls into normprod's modules, recorded from outside.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper, both on the module that defines it and wherever it is
re-imported (``mc.apply``, ``density.log_bessel_k_sequence``, the package
namespace), so calls between modules are seen too.  A span is named
``<defining module>.<function>``; generator functions get one span per
item produced, so their spans cover only the time spent inside the
generator.  Spans stay in memory until ``write``.

Stages without a public entry point (series blocks, the signed combine,
the high-precision fallback, the internal log-K recurrence) are not
visible from here.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("density", "bessel", "mc", "stein", "charfn", "moments",
                  "opsearch")


class Tracer:
    def __init__(self, requested_samples: int = 0):
        # one row per span: [name, start, end, parent index, op id, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1
        # spans are recorded only while active (inside an op's timed call)
        self.active = False
        self.requested_samples = requested_samples
        self._originals: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans --
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.op_id, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, attrs=None):
        self.spans[index][2] = time.perf_counter()
        self.spans[index][5] = attrs
        self._stack.pop()

    def _wrap(self, name: str, fn):
        attrs_of = _ATTRS.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if not self.active:
                    yield from inner
                    return
                while True:
                    index = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        self._close(index, {"items": 0})
                        return
                    except BaseException:
                        self._close(index)
                        raise
                    self._close(index, {"items": int(np.size(item))})
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(index)
                raise
            self._close(index, attrs_of(args, result) if attrs_of else None)
            return result
        return wrapper

    # ---------------------------------------------------------- install --
    def install(self):
        import normprod
        modules = {m: getattr(normprod, m) for m in TRACED_MODULES}
        wrapped = {}
        for module in modules.values():
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                home = fn.__module__.rpartition(".")[2]
                if home not in modules:
                    continue
                if fn not in wrapped:
                    wrapped[fn] = self._wrap(f"{home}.{attr}", fn)
        for namespace in (*modules.values(), normprod):
            for attr, fn in list(vars(namespace).items()):
                if inspect.isfunction(fn) and fn in wrapped:
                    self._originals.append((namespace, attr, fn))
                    setattr(namespace, attr, wrapped[fn])

    def uninstall(self):
        for namespace, attr, fn in reversed(self._originals):
            setattr(namespace, attr, fn)
        self._originals.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "attrs": attrs}) + "\n")

    # -------------------------------------------------------- aggregate --
    def by_name(self) -> dict[str, dict]:
        """Per span name: durations, summed self time, attrs, and how many
        spans each parent name had as direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {
            "durations": [], "self_s": 0.0, "attrs": [],
            "children": defaultdict(int)})
        for i, (name, start, end, parent, _, attrs) in enumerate(self.spans):
            entry = out[name]
            entry["durations"].append(end - start)
            entry["self_s"] += end - start - child_time[i]
            if attrs:
                entry["attrs"].append(attrs)
            if parent >= 0:
                out[self.spans[parent][0]]["children"][name] += 1
        return out


def _pdf_attrs(args, result):
    return {"terms": result.terms_used}


def _apply_attrs(args, result):
    return {"points": int(np.size(args[2]))}


_ATTRS = {"density.pdf_product": _pdf_attrs, "stein.apply": _apply_attrs}
