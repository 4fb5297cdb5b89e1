import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env
from tqsreg import blas, cli

pytestmark = pytest.mark.skipif(
    not blas.get_num_threads(), reason="no bundled OpenBLAS thread setter found")


def _spy_verify(monkeypatch, seen, rc=cli.EXIT_OK):
    """Replace the verify command by one that records the thread counts."""
    def cmd(args):
        seen.append(blas.get_num_threads())
        if rc == cli.EXIT_USAGE:
            raise cli.UsageError("spy usage error")
        return rc

    monkeypatch.setattr(cli, "cmd_verify", cmd)


class TestScopedPin:
    """cli.main computes at 1 BLAS thread and restores the caller's count."""

    @pytest.mark.parametrize("rc", [cli.EXIT_OK, cli.EXIT_USAGE])
    def test_count_restored_and_one_inside(self, monkeypatch, tmp_path, rc):
        seen = []
        _spy_verify(monkeypatch, seen, rc)
        with blas.num_threads(2):
            before = blas.get_num_threads()
            assert cli.main(["verify", "--out", str(tmp_path)]) == rc
            assert blas.get_num_threads() == before
        assert seen == [tuple(1 for _ in before)]

    def test_real_success_and_usage_error(self, tmp_path):
        with blas.num_threads(2):
            before = blas.get_num_threads()
            assert cli.main(["verify", "--joints", "2",
                             "--out", str(tmp_path)]) == cli.EXIT_OK
            assert blas.get_num_threads() == before
            assert cli.main(["verify", "--joints", "0",
                             "--out", str(tmp_path)]) == cli.EXIT_USAGE
            assert blas.get_num_threads() == before

    def test_nested_pin(self, monkeypatch, tmp_path):
        seen = []
        _spy_verify(monkeypatch, seen)
        outer = blas.get_num_threads()
        with blas.num_threads(1):
            assert cli.main(["verify", "--out", str(tmp_path)]) == cli.EXIT_OK
            assert blas.get_num_threads() == tuple(1 for _ in outer)
        assert blas.get_num_threads() == outer
        assert seen == [tuple(1 for _ in outer)]

    def test_exception_restores(self):
        before = blas.get_num_threads()
        with pytest.raises(KeyError):
            with blas.num_threads(1):
                raise KeyError("boom")
        assert blas.get_num_threads() == before


# A first-ever kernel ridge fit inside the pin; argv[1] == "early" imports
# scipy.linalg, and so loads scipy's OpenBLAS through scipy, before pinning.
_LATE_FIT = """
import json, sys
import numpy as np
from tqsreg import blas, regress

if sys.argv[1] == "early":
    import scipy.linalg
loaded = "scipy.linalg" in sys.modules
rng = np.random.default_rng(0)
x, y = rng.normal(size=(500, 3)), rng.normal(size=500)
with blas.num_threads(1):
    model = regress.fit(regress.RegressorConfig("kernel_ridge"), x, y)
    threads = blas.get_num_threads()
print(json.dumps({"loaded": [loaded, "scipy.linalg" in sys.modules], "threads": threads,
                  "fitted": model.fitted.tobytes().hex()}))
"""


class TestLateLoad:
    """The pin holds for the library that kernel ridge calls, scipy's
    OpenBLAS, whether scipy loaded it before the pin or not; the fit
    itself imports no ``scipy.linalg``."""

    def test_pin_covers_first_kernel_ridge_fit(self):
        env = child_env(OPENBLAS_NUM_THREADS="2")
        runs = {}
        for mode in ("late", "early"):
            proc = subprocess.run([sys.executable, "-c", _LATE_FIT, mode], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            runs[mode] = json.loads(proc.stdout)
        assert runs["late"]["loaded"] == [False, False]  # before and after the fit
        assert runs["early"]["loaded"] == [True, True]
        for run in runs.values():
            assert run["threads"] and set(run["threads"]) == {1}
        assert runs["late"]["fitted"] == runs["early"]["fitted"]


@pytest.mark.skipif(blas.lapack() is None, reason="no LAPACK symbols in scipy's OpenBLAS")
class TestLapackBindings:
    """The bindings refuse an array that LAPACK would misread, before the call."""

    def test_refuse_wrong_dtype_order_or_shape(self):
        dpotrf, dpotrs, dgemv = blas.lapack()
        eye = np.eye(3)
        for call in (lambda: dpotrf(eye.astype(np.float32)),
                     lambda: dpotrf(np.asfortranarray(eye[:, :2])),
                     lambda: dpotrf(eye[:2]),
                     lambda: dpotrs(eye, np.ones(2)),
                     lambda: dgemv(eye, np.ones(4)),
                     lambda: dgemv(eye[:, ::2], np.ones(2))):
            with pytest.raises(ValueError, match="C-contiguous float64"):
                call()
        assert dgemv(eye[:2], np.arange(3.0)).tolist() == [0.0, 1.0]


class TestSetOnlyWhereDifferent:
    """A library's setter runs only when its count changes, and every
    count is still restored."""

    def test_spied_setters(self, monkeypatch):
        counts, calls = [1, 4], []

        def control(k):
            def set_(n):
                calls.append((k, n))
                counts[k] = n
            return (lambda: counts[k]), set_

        monkeypatch.setattr(blas, "_controls", lambda: (control(0), control(1)))
        with blas.num_threads(1):
            assert calls == [(1, 1)]
            blas.set_num_threads(1)
            with blas.num_threads(1):
                pass
            assert calls == [(1, 1)]
            with blas.num_threads(3):
                assert counts == [3, 3]
            assert counts == [1, 1]
        assert counts == [1, 4]
        assert calls == [(1, 1), (0, 3), (1, 3), (0, 1), (1, 1), (1, 4)]


# After a pool of two forked workers, this process sleeps;
# prints the CPU seconds it used meanwhile.
_POOL_THEN_SLEEP = """
import resource, time
from tqsreg import blas, synthgen

def cpu():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime

with blas.num_threads(1):
    with synthgen.worker_pool(2) as run:
        assert run(abs, [-1, -2, -3, -4]) == [1, 2, 3, 4]
    before = cpu()
    time.sleep(0.3)
    print(cpu() - before)
"""


class TestPoolLeavesBlasAsleep:
    """A worker pool sets no thread count after its fork, so the OpenBLAS
    thread pool that the fork stopped is not restarted (a restarted
    thread spins about 0.13 s before it sleeps)."""

    def test_parent_idle_after_pool(self):
        proc = subprocess.run([sys.executable, "-c", _POOL_THEN_SLEEP], env=child_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 0.05
