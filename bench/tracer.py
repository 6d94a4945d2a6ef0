"""In-memory span recorder that wraps hardylog's public layer functions.

Modules import layer functions by name (``from .spaces import bmo_norm`` in
``cli``, ``factor`` and ``hankel``), so a wrapper installed on the defining
module alone would miss most calls.  ``Tracer.install`` therefore replaces the
function object wherever a ``hardylog`` module, or a benchmark module passed
to ``Tracer``, holds it: as a module global or as a value of a module-level
dict (the ``library.FUNCTIONS``/``FIELDS`` registries).  ``uninstall`` puts
every original back.

Each span records its label, parent span id, start and end, and counts read
from the call's arguments and return value.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict


def _poisson_label(args, kwargs):
    f0 = args[0] if args else kwargs["f0"]
    path = "direct" if f0.decay.tag == "log_growth" else "fft"
    return f"transforms.poisson_{path}"


def _poisson_extend_counts(args, kwargs, result):
    return {"slices": result.ladder.count}


def _poisson_slice_counts(args, kwargs, result):
    return {"slices": 1}


def _bmo_label(args, kwargs):
    f0 = args[0] if args else kwargs["f0"]
    return "spaces.bmo_real" if f0.is_real else "spaces.bmo_complex"


def _windows(args, kwargs, result):
    return {"windows": result.iterations}


def _iterations(args, kwargs, result):
    return {"iterations": result.iterations}


def _calls(args, kwargs, result):
    return {"calls": 1}


def _path_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["path"]


def _saved_bytes(args, kwargs, result):
    return {"calls": 1, "io_bytes": os.path.getsize(_path_arg(args, kwargs))}


def _loaded_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"calls": 1, "io_bytes": os.path.getsize(path)}


def _report_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"report_bytes": os.path.getsize(path)}


# (module, function) -> (label or label function, count function or None)
_TARGETS = {
    ("transforms", "poisson_extend"): (_poisson_label, _poisson_extend_counts),
    ("transforms", "poisson_slice"): (_poisson_label, _poisson_slice_counts),
    ("transforms", "hilbert_transform"): ("transforms.hilbert_transform", _calls),
    ("transforms", "szego_project"): ("transforms.szego_project", None),
    ("spaces", "bmo_norm"): (_bmo_label, _windows),
    ("spaces", "luxemburg_norm"): ("spaces.luxemburg_norm", _iterations),
    ("spaces", "hlog_norm"): ("spaces.hlog_norm", None),
    ("spaces", "hp_norm"): ("spaces.hp_norm", None),
    ("spaces", "carleson_ratio"): ("spaces.tent", _windows),
    ("spaces", "bmoa_log_seminorm"): ("spaces.tent", _windows),
    ("maximal", "max_interval_average"): ("maximal.max_interval_average", None),
    ("maximal", "nontangential_max"): ("maximal.nontangential_max", None),
    ("factor", "factorize"): ("factor.factorize", None),
    ("factor", "coifman_rochberg_symbol"): ("factor.coifman_rochberg_symbol", None),
    ("factor", "build_g"): ("factor.build_g", None),
    ("hankel", "boundedness_study"): ("hankel.boundedness_study", None),
    ("hankel", "hankel_form"): ("hankel.hankel_form", None),
    ("grid", "load_function"): ("grid.load_function", _loaded_bytes),
    ("grid", "save_function"): ("grid.save_function", _saved_bytes),
    ("cli", "write_json"): ("cli.report_write", _report_bytes),
    ("cli", "write_csv"): ("cli.report_write", _report_bytes),
}


# span label -> count fields reported besides self_s
LABELS = {
    "transforms.poisson_direct": ("slices",),
    "transforms.poisson_fft": ("slices",),
    "transforms.hilbert_transform": ("calls",),
    "transforms.szego_project": (),
    "spaces.bmo_real": ("windows",),
    "spaces.bmo_complex": ("windows",),
    "spaces.luxemburg_norm": ("iterations",),
    "spaces.hlog_norm": (),
    "spaces.hp_norm": (),
    "spaces.tent": ("windows",),
    "maximal.max_interval_average": (),
    "maximal.nontangential_max": (),
    "factor.factorize": (),
    "factor.coifman_rochberg_symbol": (),
    "factor.build_g": (),
    "hankel.boundedness_study": (),
    "hankel.hankel_form": (),
    "grid.load_function": ("calls",),
    "grid.save_function": ("calls",),
    "library": (),
    "cli.report_write": (),
}
# metric -> (count field, labels it is summed over)
TOTALS = {
    "grid.io_bytes": ("io_bytes", ("grid.load_function", "grid.save_function")),
    "cli.report_bytes": ("report_bytes", ("cli.report_write",)),
}


def _library_targets(library):
    """Every public function defined in hardylog.library builds an input."""
    out = {}
    for name, obj in vars(library).items():
        if callable(obj) and not name.startswith("_") and \
                getattr(obj, "__module__", None) == library.__name__:
            out[("library", name)] = ("library", None)
    return out


class Tracer:
    """Spans of the calls made while installed, kept in memory."""

    def __init__(self, callers=()):
        self.spans = []      # [id, parent, label, t0, t1, counts]
        self._stack = []
        self._patches = []   # (container, key, original)
        self._callers = tuple(callers)

    def _wrap(self, fn, label, counts):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            name = label if isinstance(label, str) else label(args, kwargs)
            span = [len(spans), stack[-1] if stack else None, name,
                    clock(), 0.0, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if counts is not None:
                span[5] = counts(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        mods = {k.split(".", 1)[1]: m for k, m in list(sys.modules.items())
                if k.startswith("hardylog.") and m is not None}
        targets = dict(_TARGETS)
        targets.update(_library_targets(mods["library"]))
        originals = {}
        for (mod, name), (label, counts) in targets.items():
            fn = getattr(mods[mod], name)
            originals[id(fn)] = (fn, self._wrap(fn, label, counts))
        for mod in (*mods.values(), *self._callers):
            for key, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._patches.append((vars(mod), key, obj))
                    setattr(mod, key, originals[id(obj)][1])
                elif isinstance(obj, dict) and not key.startswith("__"):
                    for k, v in list(obj.items()):
                        if id(v) in originals and originals[id(v)][0] is v:
                            self._patches.append((obj, k, v))
                            obj[k] = originals[id(v)][1]

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()

    def summary(self, first: int = 0) -> dict:
        """Per-label self time and summed counts for spans[first:]."""
        spans = self.spans[first:]
        child_time = defaultdict(float)
        for s in spans:
            if s[1] is not None:
                child_time[s[1]] += s[4] - s[3]
        out = defaultdict(lambda: defaultdict(float))
        for s in spans:
            out[s[2]]["self_s"] += (s[4] - s[3]) - child_time[s[0]]
            for k, v in (s[5] or {}).items():
                out[s[2]][k] += v
        unknown = set(out) - set(LABELS)
        if unknown:
            raise ValueError(f"span labels missing from LABELS: {unknown}")
        return {k: dict(v) for k, v in out.items()}

    def dump(self, path, meta: dict) -> None:
        """Write every span with its parent id as a JSON sidecar."""
        rows = [{"id": s[0], "parent": s[1], "name": s[2], "start": s[3],
                 "end": s[4], **({"counts": s[5]} if s[5] else {})}
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": rows}, fh)
