"""One `vpqmc run` in a fresh interpreter, optionally traced.

Usage: python3 child.py RESULT_JSON TRACE -- <vpqmc run arguments>

The parent (run.py) starts this script with PYTHONPATH pointing at the
checkout's src/ and the BLAS thread variables already set.  It times the
call into ``vpqmc.driver.cli_main`` and writes a JSON result with the
start timestamp and the duration.  With
TRACE=1 it first replaces the public functions of each layer listed in
``run.TRACED``, on every vpqmc module object that holds them (and
``bilinear_at`` on its class), with wrappers that record spans; the
program itself is not changed.
"""

import functools
import importlib
import importlib.util
import json
import resource
import sys
import time
import warnings

import numpy
import scipy

from run import TRACED
from vpqmc import driver, spectral


class Tracer:
    """In-memory spans: [name, start, end, parent index, extra dict]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, extra=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, result)
            return result

        return traced

    def summary(self):
        """Per-name calls, inclusive and self seconds, calls made inside
        ``pic.push``, and the sum and max of each extra value.

        No span nests inside another of the same name, so inclusive sums
        count each interval once.
        """
        child_time = [0.0] * len(self.spans)
        under_push = [False] * len(self.spans)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                under_push[i] = under_push[parent] or self.spans[parent][0] == "pic.push"
        out = {}
        for i, (name, start, end, parent, extra) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "under_push": 0, "sum": {}, "max": {}})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_time[i]
            agg["under_push"] += under_push[i]
            for key, value in (extra or {}).items():
                agg["sum"][key] = agg["sum"].get(key, 0) + value
                agg["max"][key] = max(agg["max"].get(key, value), value)
        return out


def _n_markers(args, result):
    return {"markers": int(args[0].n_p)}


def _n_points(args, result):
    return {"markers": int(numpy.size(args[1]))}


def _n_pairs(args, result):
    return {"markers": int(len(args[1]))}


def _n_cells(args, result):
    return {"cells": int(args[0].values.size)}


def _window(args, result):
    return {"n_used": int(result.n_used), "n_in_window": int(result.n_in_window)}


def _entropy(args, result):
    return {"skipped_fraction": float(result.skipped_fraction)}


EXTRAS = {"n_markers": _n_markers, "n_points": _n_points, "n_pairs": _n_pairs,
          "n_cells": _n_cells, "window": _window, "entropy": _entropy}


def install(tracer):
    """Replace each traced function wherever a vpqmc module binds it.

    ``from .core import f`` copies the binding into the importing module,
    so every module attribute that is the original object is replaced.
    """
    layers = {m: importlib.import_module(f"vpqmc.{m}") for m, _, _, _ in TRACED}
    modules = [m for name, m in sys.modules.items()
               if name == "vpqmc" or name.startswith("vpqmc.")]
    for module_name, path, name, extra in TRACED:
        owner = layers[module_name]
        *classes, attr = path.split(".")
        for part in classes:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, EXTRAS[extra] if extra else None)
        setattr(owner, attr, wrapper)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def main(argv):
    result_path, trace, sep, *run_args = argv
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: child.py RESULT_JSON TRACE -- ARGS...")
    tracer = Tracer() if trace == "1" else None
    if tracer is not None:
        install(tracer)
    with warnings.catch_warnings(record=True) as caught:
        if tracer is not None:
            warnings.simplefilter("always")  # count every warning, not one per call site
        start = time.perf_counter()
        rc = driver.cli_main(["run", *run_args])
        wall = time.perf_counter() - start
    result = {
        "rc": rc,
        "start": start,  # time.perf_counter, comparable with host_probe.py's timestamps
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "numba_importable": importlib.util.find_spec("numba") is not None},
    }
    if tracer is not None:
        result["spans"] = tracer.summary()
        result["nonneutral_warnings"] = sum(
            issubclass(w.category, spectral.NonNeutralPlasmaWarning) for w in caught)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
