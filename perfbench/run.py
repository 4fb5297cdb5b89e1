"""tqsreg benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload cli-trees --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; tqsreg is imported from ./src.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the environment record and the raw samples.  Results (and, for
``--trace 1``, the spans as JSON lines) are also written to
``.perfbench/results/``.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (median wall
seconds of one workload iteration, iterating for ``--seconds`` and at
least MIN_SAMPLES times), ``setup_s`` (median over SETUP_REPS fresh
interpreters of the time from process start until the inputs are written
and the first iteration could begin) and ``peak_rss_mb`` (largest
resident set of this process and its reaped children).  ``--trace 1``
runs one untraced and one traced iteration and reports the per-layer
metrics of layers.py, the tracing overhead and the wrapper self-test.

``--pin-reference`` rewrites perfbench/reference.json from the current
code; do that only on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SETUP_REPS = 3
# cli-trees iterations outlast --seconds; a median needs at least two
MIN_SAMPLES = 2
# pinned outputs must match to this tolerance: loose enough for a change
# of summation order (1e-13 relative), tight enough to catch a changed tree
RTOL, ATOL = 1e-7, 1e-10
DIFFERS = "output differs from an earlier run of the same operation"
SELFTEST_FITS = {"spline_gam": 700, "kernel_ridge": 300, "boosted_trees": 0}


def _import_program():
    """Put ./src first on sys.path and import the benchmark modules."""
    sys.path.insert(0, str(SRC))
    import tqsreg

    if Path(tqsreg.__file__).resolve().parent != SRC / "tqsreg":
        raise ImportError(f"tqsreg imported from {tqsreg.__file__}, not {SRC}")
    import workloads

    return workloads


def close(a, b):
    """Recursive equality with a float tolerance."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            close(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(
            close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)
    return a == b


class Runner:
    """Runs operations and accounts for the ones that fail.

    An operation fails if it raises, if its check raises CheckFailed, if
    its summary differs from the summary the same operation gave earlier
    in this run (all runs are deterministic, traced or not), or, for the
    ``ref.*`` operations, if its summary is not within tolerance of the
    pinned reference.
    """

    def __init__(self, check_failed, reference):
        self.check_failed = check_failed
        self.reference = reference  # None while pinning
        self.attempted = 0
        self.failures = []
        self.summaries = {}

    def op(self, name, fn):
        self.attempted += 1
        try:
            summary = fn()
        except self.check_failed as e:
            return self._fail(name, str(e))
        except Exception as e:  # the operation's failure is the measurement
            traceback.print_exc(file=sys.stderr)
            return self._fail(name, f"raised {type(e).__name__}: {e}")
        if name in self.summaries and self.summaries[name] != summary:
            return self._fail(name, DIFFERS)
        self.summaries.setdefault(name, summary)
        if self.reference is not None and name.startswith(("ref.", "selftest.")):
            if name not in self.reference:
                return self._fail(name, "no pinned reference")
            if not close(summary, self.reference[name]):
                return self._fail(name, "output outside the pinned reference")
        return summary

    def _fail(self, name, reason):
        print(f"perfbench: operation {name} failed: {reason}", file=sys.stderr)
        self.failures.append({"op": name, "reason": reason})


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: the record is informational only
        blas = "unknown"
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        src_lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas": blas,
        # as found; the benchmark sets none of them
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "src_lines": src_lines,
        "machine": platform.machine(),
    }


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def setup_child(workload, seed, directory):
    """Body of a set-up measurement process: import, generate, write."""
    wl = _import_program()
    wl.WORKLOADS[workload].prepare(seed, directory)
    print(repr(time.monotonic()))
    return 0


def measure_setup(workload, seed, base):
    """setup_s samples: CLOCK_MONOTONIC is system-wide, so the child's
    ready time and the parent's spawn time share one clock."""
    samples = []
    for k in range(SETUP_REPS):
        directory = base / f"setup-{k}"
        directory.mkdir(parents=True)
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-only", str(directory),
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def timed_iteration(workload, ctx, runner):
    t0 = time.perf_counter()
    workload.iteration(ctx, runner)
    return time.perf_counter() - t0


def run_untraced(wl, workload, args, work, runner):
    setup_samples = measure_setup(workload.name, args.seed, work)
    ctx = workload.prepare(args.seed, work / "input")
    samples = []
    t_start = time.perf_counter()
    while len(samples) < MIN_SAMPLES or time.perf_counter() - t_start < args.seconds:
        samples.append(timed_iteration(workload, ctx, runner))
    metrics = {
        "run_s": (statistics.median(samples), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    return metrics, {"run_s": samples, "setup_s": setup_samples}, True


def run_traced(wl, workload, args, work, runner, spans_path):
    import layers
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        ctx = workload.prepare(args.seed, work / "input")
    finally:
        tracer.uninstall()
    untraced_s = timed_iteration(workload, ctx, runner)

    tracer.phase = "iteration"
    tracer.install()
    try:
        traced_s = timed_iteration(workload, ctx, runner)
        if hasattr(workload, "serial_pass"):
            tracer.phase = "serial"
            workload.serial_pass(ctx, runner)
        tracer.phase = "selftest"
        wl.criterion_9_selftest(runner)
    finally:
        tracer.uninstall()
    leftovers = tracing.leftover_wrappers()
    tracer.write_jsonl(spans_path)

    fits = {kind: 0 for kind in SELFTEST_FITS}
    for s in tracer.spans:
        if s[tracing.SPAN_PHASE] == "selftest" and s[tracing.SPAN_NAME] == "regress.fit":
            kind = s[tracing.SPAN_ATTRS].get("kind", "error")
            fits[kind] = fits.get(kind, 0) + 1
    selftest = {
        "selftest_fits": fits,
        "fit_counts_ok": fits == SELFTEST_FITS,
        "traced_equals_untraced": all(f["reason"] != DIFFERS for f in runner.failures),
        "wrappers_removed": not leftovers,
        "leftover_wrappers": leftovers,
    }
    ok = all(selftest[k] for k in ("fit_counts_ok", "traced_equals_untraced",
                                   "wrappers_removed"))

    values = layers.layer_metrics(tracer.spans)
    values["trace.run_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    metrics = {name: (values[name], units[name]) for name in units if name in values}
    raw = {"untraced_run_s": untraced_s, "traced_run_s": traced_s,
           "spans": len(tracer.spans), "spans_file": str(spans_path), **selftest}
    return metrics, raw, ok


def pin_reference(wl):
    """Write reference.json from the outputs of the current code."""
    pinned = {}
    with_tmp = ROOT / ".perfbench" / f"pin-{os.getpid()}"
    try:
        for name, workload in wl.WORKLOADS.items():
            runner = Runner(wl.CheckFailed, None)
            workload.reference(runner, with_tmp / name)
            if runner.failures:
                raise SystemExit(f"reference run failed: {runner.failures}")
            pinned[name] = runner.summaries
        runner = Runner(wl.CheckFailed, None)
        wl.criterion_9_selftest(runner)
        pinned["selftest"] = runner.summaries
    finally:
        shutil.rmtree(with_tmp, ignore_errors=True)
    REFERENCE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-reference", action="store_true")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "tqsreg" / "__init__.py").is_file():
        print(f"perfbench: no tqsreg sources under {SRC}", file=sys.stderr)
        return 2
    wl = _import_program()
    if args.pin_reference:
        return pin_reference(wl)
    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(wl.WORKLOADS)}")
    if args.setup_only:
        return setup_child(args.workload, args.seed, Path(args.setup_only))

    workload = wl.WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = ROOT / ".perfbench" / "work" / tag
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    runner = Runner(wl.CheckFailed,
                    {**reference[workload.name], **reference["selftest"]})
    try:
        if args.trace:
            metrics, raw, ok = run_traced(wl, workload, args, work, runner,
                                          results / f"{tag}.spans.jsonl")
        else:
            metrics, raw, ok = run_untraced(wl, workload, args, work, runner)
        t_check = time.perf_counter()
        workload.reference(runner, work / "reference")
        negative_control = wl.negative_control(work)
        raw["check_s"] = time.perf_counter() - t_check
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    if args.trace:
        metrics["fail_ratio"] = (failed / runner.attempted, "ratio")
    expected = declared_metrics(args.trace)
    if sorted(metrics) != sorted(expected):
        print(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json "
              f"{sorted(expected)}", file=sys.stderr)
        return 3
    correct = ok and failed == 0 and negative_control
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(), "samples": raw,
        "negative_control_failed": negative_control, "failures": runner.failures,
    }
    result = {
        "correct": correct, "attempted": runner.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (results / f"{tag}.json").write_text(
        json.dumps({**record, "result": result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
