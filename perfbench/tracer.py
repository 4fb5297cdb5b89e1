"""Outside-in tracing of the tqsreg package.

The tracer rebinds every public module-level function of the tqsreg
modules to a wrapper that records a span, and puts the originals back on
``uninstall``.  Several modules import functions by name (``estimators``
and ``evalharness`` bind ``fit``/``predict`` at import), so every binding
of a wrapped function in every tqsreg module is replaced, not only the
defining one.

A span is ``[id, parent_id, name, phase, start, end, attrs]``; spans live
in memory until ``write_jsonl`` is called.  ``phase`` plays the role of
the iteration id shared by every span of one workload iteration.
Worker processes forked by ``synth --jobs N`` inherit the wrappers, but
their spans stay in the worker and are lost.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import resource
import sys
import time

LAYERS = ("data_model", "regress", "estimators", "evalharness", "oracle",
          "synthgen", "cli")

SPAN_ID, SPAN_PARENT, SPAN_NAME, SPAN_PHASE, SPAN_T0, SPAN_T1, SPAN_ATTRS = range(7)


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _fit_attrs(args, kwargs, result):
    import numpy as np

    config, features, targets = args
    x = np.ascontiguousarray(np.asarray(features, dtype=float))
    y = np.ascontiguousarray(np.asarray(targets, dtype=float))
    key = hashlib.sha1()
    key.update(repr((config.kind, sorted(config.hyperparameters.items()),
                     config.seed, x.shape, y.shape)).encode())
    key.update(x.tobytes())
    key.update(y.tobytes())
    return {"kind": config.kind, "rows": int(x.shape[0]),
            "features": int(x.shape[1]) if x.ndim == 2 else 1,
            "key": key.hexdigest()}


def _predict_attrs(args, kwargs, result):
    return {"kind": args[0].kind, "rows": int(len(result))}


def _stage_attrs(args, kwargs, result):
    # (table, cfg_x, cfg_res, ...) for tqs_multi_species and denoise_3qs
    return {"kind_x": args[1].kind, "kind_res": args[2].kind}


def _file_bytes_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _loyo_attrs(args, kwargs, result):
    return {"cells": len(result.cells)}


def _sweep_attrs(args, kwargs, result):
    grid, trials = args[0], args[1]
    return {"trials": len(grid) * int(trials)}


def _joint_attrs(args, kwargs, result):
    return {"support": int(result.size)}


# attribute extractors run after the span's end time is taken, so their
# cost (the fit-input hash in particular) is not charged to the layer
ATTRS = {
    "regress.fit": _fit_attrs,
    "regress.predict": _predict_attrs,
    "estimators.tqs_multi_species": _stage_attrs,
    "evalharness.denoise_3qs": _stage_attrs,
    "evalharness.loyo_evaluate": _loyo_attrs,
    "data_model.load_table": _file_bytes_attrs,
    "cli.atomic": _file_bytes_attrs,
    "synthgen.run_species_sweep": _sweep_attrs,
    "synthgen.run_noise_sweep": _sweep_attrs,
    "oracle.random_joint": _joint_attrs,
}
# spans that also record process-plus-children CPU seconds
CPU_SPANS = {"cli.cmd_synth", "cli.cmd_verify", "cli.cmd_denoise", "cli.cmd_eval"}


def tqsreg_modules():
    """Every imported module of the tqsreg package, by full name."""
    return {name: mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "tqsreg" or name.startswith("tqsreg."))}


def public_functions():
    """(span name, function) for each public function of each layer."""
    import importlib

    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"tqsreg.{layer}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                out.append((f"{layer}.{name}", obj))
    return out


def leftover_wrappers():
    """Names still bound to a wrapper in any tqsreg module."""
    return [f"{name}.{attr}" for name, mod in tqsreg_modules().items()
            for attr, value in vars(mod).items()
            if hasattr(value, "__perfbench_wrapped__")]


class Tracer:
    """Span recorder; install() wraps the package, uninstall() restores it."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        extract = ATTRS.get(name)
        with_cpu = name in CPU_SPANS
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, self.phase,
                    clock(), 0.0, None]
            spans.append(span)
            stack.append(span[SPAN_ID])
            cpu0 = _cpu_s() if with_cpu else 0.0
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[SPAN_T1] = clock()
                span[SPAN_ATTRS] = {"error": type(e).__name__}
                raise
            finally:
                stack.pop()
            span[SPAN_T1] = clock()
            attrs = extract(args, kwargs, result) if extract else {}
            if with_cpu:
                attrs["cpu_s"] = _cpu_s() - cpu0
            span[SPAN_ATTRS] = attrs
            return result

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        # keyed by id(original); the dict keeps the originals alive
        pairs = {id(fn): (fn, self._wrap(name, fn)) for name, fn in public_functions()}
        for mod in tqsreg_modules().values():
            for attr, value in list(vars(mod).items()):
                pair = pairs.get(id(value))
                if pair is not None and pair[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, pair[1])

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def write_jsonl(self, path):
        keys = ("id", "parent", "name", "phase", "start", "end", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
