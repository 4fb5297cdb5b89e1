"""Conditional-mean regression backends.

Three interchangeable backends implement the fit/predict contract used
by the denoising estimators:

* ``spline_gam``     - 1-D penalized cubic B-spline smoother with a
                       second-difference penalty, smoothness chosen by
                       GCV over a fixed logarithmic grid; every penalty
                       on the grid comes from one eigendecomposition
                       per design (Demmler-Reinsch), which also holds
                       GCV's target-free terms, and the last few designs
                       stay cached, so a fit on a seen x only projects
                       its target.  The basis comes from de
                       Boor's recursion in numpy, in the operation order
                       of scipy's ``BSpline``, so with its bits.
* ``boosted_trees``  - gradient boosted regression trees, squared-error
                       loss, exact greedy splits on features sorted once
                       per fit; tied values keep row order, so the trees
                       do not depend on numpy's sort implementation.
* ``kernel_ridge``   - RBF kernel ridge regression with an unpenalized
                       intercept and median-distance bandwidth heuristic
                       (the median from one partition of the pairwise
                       distances, the bits of ``np.median``); a design,
                       K and the Cholesky factor of K + lam I (LAPACK
                       ``dpotrf``, in place), serves each target's solve
                       (``dpotrs``), and inside ``shared_designs()`` the
                       next fit on the same design too.  It calls scipy's
                       compiled code without importing scipy
                       (``load_kernel_ridge``): ``dpotrf``, ``dpotrs`` and
                       ``dgemv`` through ``blas.lapack``, and ``cdist``'s
                       and ``pdist``'s routines from scipy's
                       ``_distance_pybind`` extension, loaded by file
                       path; so it has the bits of scipy's wrappers, which
                       it falls back on where those are missing.  A design
                       that replaces one of its size in a block is built
                       in that one's two arrays.

Every fitted model carries ``fitted``, its predictions on the training
rows, taken from what the fit already holds: ``K alpha + b`` for kernel
ridge (its products, like its solve, on scipy's OpenBLAS) and the boosting
loop's running prediction for trees, both equal to ``predict(x_train)``
bit for bit; for the spline, the GCV step's ``(B V) z``, which differs
from ``predict(x_train)``'s ``B (V z)`` only by rounding (about 1e-15
relative).  A non-finite ``fitted`` is refused when the model is built.

``check_fit`` is the one gate for a fit's shape, and ``fit`` applies it
before any backend runs.  It refuses, in this order, fewer than 2 rows,
fewer than 1 feature, a spline without exactly 1 feature, and a fit whose
largest arrays (``fit_bytes``) exceed ``FIT_BYTES``, one budget for every
backend.  Kernel ridge counts its two m x m arrays, the spline its nb x nb
factors and m x nb designs (nb = n_knots + 4, or GCV's 13 columns where
fewer) plus every design its cache can keep, and trees nothing: their
arrays scale with the input, which is already loaded.

``shared_designs()`` is also a fit scope, one rule for every backend:
inside it, ``fit`` returns the model it has already fit for the same
kind, resolved hyperparameters, seed, x (shape and bytes) and y bytes; a
failed fit is not kept, nested blocks share the outermost one's models,
and its end drops them.  Every fitted model's arrays are read-only.

All backends are deterministic given (config, data).  Kernel ridge and
the spline are translation equivariant in the target up to rounding (a
spline's GCV choice may flip only where two scores tie); boosted trees
are too, except where two candidate splits tie exactly: a shifted target
rounds the residuals differently, and the first-minimum tie rule may
then pick the other cut.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cache, cached_property, lru_cache

import numpy as np

from . import blas


class RegressionError(ValueError):
    pass


class SingularModelError(RegressionError):
    """A linear system remained singular after regularization."""


_DEFAULTS = {
    "kernel_ridge": {"penalty": 1.0, "bandwidth": None},
    "boosted_trees": {
        "n_stages": 100,
        "learning_rate": 0.1,
        "max_depth": 3,
        "min_leaf": 1,
        "subsample": 1.0,
    },
    "spline_gam": {
        "n_knots": 20,
        "penalty": None,  # None -> GCV over _PENALTY_GRID
    },
}
_PENALTY_GRID = tuple(np.logspace(-3.0, 3.0, 13))

# byte budget for the largest arrays of one fit, of any backend (see
# ``fit_bytes``).  A kernel ridge design kept by ``shared_designs()`` is
# its two m x m arrays, dropped before the next design allocates and when
# the block ends; the spline's count holds the designs ``_spline_basis``
# keeps.  ``_span_basis``'s entries are left out: they grow with the rows
# predicted, as trees' arrays grow with their input.  The CLI keeps the
# fits of all its processes within it together.
FIT_BYTES = 1 << 30


@dataclass(frozen=True)
class RegressorConfig:
    kind: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def resolved(self):
        if self.kind not in _DEFAULTS:
            raise RegressionError(f"unknown regressor kind {self.kind!r}")
        params = dict(_DEFAULTS[self.kind])
        unknown = set(self.hyperparameters) - set(params)
        if unknown:
            raise RegressionError(
                f"unknown hyperparameters for {self.kind}: {sorted(unknown)}"
            )
        params.update(self.hyperparameters)
        _validate_params(self.kind, params)
        return params

    def with_seed(self, seed):
        return replace(self, seed=int(seed))


def _validate_params(kind, p):
    for name in ("n_stages", "max_depth", "min_leaf", "n_knots"):
        v = p.get(name, 1)
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
            raise RegressionError(f"{name} must be an integer >= 1 (got {v!r})")
    for name in ("learning_rate", "subsample", "penalty", "bandwidth"):
        if name not in p or (p[name] is None and _DEFAULTS[kind][name] is None):
            continue  # None, where it is the default, selects the value from data
        v = p[name]
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
            raise RegressionError(f"{name} must be a finite real number (got {v!r})")
    if kind == "kernel_ridge":
        if p["penalty"] <= 0:
            raise RegressionError("kernel_ridge penalty must be > 0")
        if p["bandwidth"] is not None and p["bandwidth"] <= 0:
            raise RegressionError("bandwidth must be > 0")
    elif kind == "boosted_trees":
        if p["learning_rate"] <= 0:
            raise RegressionError("learning_rate must be > 0")
        if not 0 < p["subsample"] <= 1:
            raise RegressionError("subsample must be in (0, 1]")
    elif kind == "spline_gam":
        if p["penalty"] is not None and p["penalty"] <= 0:
            raise RegressionError("spline penalty must be > 0")


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)


class FittedRegressor:
    """Immutable trained model, its arrays read-only; safe for concurrent
    predict calls and for sharing within a fit scope."""

    kind = None

    def __init__(self, n_features, fitted):
        if not np.all(np.isfinite(fitted)):  # predict's check, on the training rows
            raise RegressionError("model produced non-finite prediction")
        self.n_features = n_features
        _read_only(fitted)
        self.fitted = fitted

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise RegressionError(
                f"expected {self.n_features} features, got shape {x.shape}"
            )
        if not np.all(np.isfinite(x)):
            raise RegressionError("non-finite prediction input")
        out = self._predict(x)
        if not np.all(np.isfinite(out)):
            raise RegressionError("model produced non-finite prediction")
        return out


def fit(config, features, targets):
    """Train the backend named by ``config`` on (features, targets)."""
    x = np.asarray(features, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(targets, dtype=float).ravel()
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise RegressionError("features/targets shape mismatch")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise RegressionError("non-finite training data")
    with np.errstate(over="ignore"):  # every backend sums squared targets
        if not np.isfinite(y @ y):
            raise RegressionError("targets too large: their sum of squares overflows")
    params = config.resolved()
    check_fit(config, *x.shape)
    key = (config.kind, tuple(sorted(params.items())), config.seed, x.shape,
           x.tobytes(), y.tobytes())
    models = _scope.models if _scope is not None else {}
    if key not in models:  # a failed fit raises before it is kept
        models[key] = (_fit_boosted_trees(params, x, y, config.seed)
                       if config.kind == "boosted_trees" else
                       _fit_kernel_ridge(params, x, y) if config.kind == "kernel_ridge"
                       else _fit_spline_gam(params, x, y))
    return models[key]


def predict(model, features):
    return model.predict(features)


def fit_bytes(config, rows, features):
    """The bytes of the largest arrays one fit of ``config`` on ``rows`` x
    ``features`` holds at once (none of them grows with ``features``), and
    for the spline the designs its cache keeps after fits of that size."""
    if config.kind == "kernel_ridge":
        return 2 * 8 * rows * rows  # the kernel, and the system factored in place
    if config.kind == "spline_gam":  # nb columns, or GCV's 13 where more
        nb = config.resolved()["n_knots"] + 4
        # a kept design: B V, V, GCV's scales and vectors, and x's bytes, its key
        kept = _KEPT_DESIGNS * 8 * (nb + 1) * (rows + nb + 16)
        return 8 * max(nb, len(_PENALTY_GRID)) * (3 * rows + 7 * nb) + kept
    return 0


def check_fit(config, rows, features):
    """Refuse a fit of ``config`` on ``rows`` x ``features`` that cannot
    run, before it allocates anything."""
    if rows < 2:
        raise RegressionError(
            f"{config.kind} needs at least 2 training rows, but would get {rows}")
    if features < 1:
        raise RegressionError(
            f"{config.kind} needs at least 1 feature, but would get {features}")
    if config.kind == "spline_gam" and features != 1:
        raise RegressionError(
            f"spline_gam needs exactly 1 feature, but would get {features}")
    need = fit_bytes(config, rows, features)
    if need > FIT_BYTES:
        raise RegressionError(
            f"kernel_ridge fits at most {kernel_ridge_max_rows()} training rows (its "
            f"m x m arrays get {FIT_BYTES} bytes), but would get {rows}"
            if config.kind == "kernel_ridge" else
            f"spline_gam with n_knots = {config.resolved()['n_knots']} needs {need} "
            f"bytes (its budget is {FIT_BYTES}) on {rows} training rows")


# ---------------------------------------------------------------------------
# kernel ridge


class FittedKernelRidge(FittedRegressor):
    kind = "kernel_ridge"

    def __init__(self, x_train, alpha, intercept, gamma, fitted):
        super().__init__(x_train.shape[1], fitted)
        _read_only(x_train, alpha)
        self.x_train = x_train
        self.alpha = alpha
        self.intercept = intercept
        self.gamma = gamma

    def _predict(self, x):
        k = np.exp(-self.gamma * load_kernel_ridge().sqdist(x, self.x_train))
        return _kernel_dot(k, self.alpha) + self.intercept


def _kernel_dot(k, alpha):
    """``k @ alpha`` on scipy's OpenBLAS, the library that factors the system.

    Unpinned, numpy's and scipy's OpenBLAS each keep their own spinning
    threads, and a fit that alternates between the two ran about twice
    as slow on 2 cores.  Fewer than 2 rows go through numpy on either
    path: the fallback's dgemv wrapper refuses an empty result, and numpy
    takes one row as a dot product.
    """
    return k @ alpha if k.shape[0] < 2 else load_kernel_ridge().gemv(k, alpha)


def kernel_ridge_max_rows():
    """The most training rows a kernel ridge fit accepts, from the byte budget."""
    return math.isqrt(FIT_BYTES // (2 * 8))


# what kernel ridge calls: squared Euclidean cdist, pdist, blas.lapack()
_Routines = namedtuple("_Routines", "sqdist pdist potrf potrs gemv")
_DISTANCE = "scipy.spatial._distance_pybind"


def _distance_module():
    """scipy's compiled distance extension: scipy's own module once scipy
    imported it, else loaded by file path without scipy's package init and
    left out of ``sys.modules`` (a later scipy import gets the same module)."""
    if _DISTANCE in sys.modules:
        return sys.modules[_DISTANCE]
    root = blas.package_root("scipy")
    spec = root and importlib.machinery.PathFinder.find_spec(
        _DISTANCE, [os.path.join(root, "spatial")])
    if not spec:
        raise ImportError(f"no {_DISTANCE} found")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _works(r):
    """One call of each routine gives the values worked out by hand."""
    a, x = np.array([[4.0, 2.0], [2.0, 5.0]]), np.array([[0.0, 0.0], [3.0, 4.0]])
    d, p = np.full((2, 2), np.nan), np.full(1, np.nan)  # the outputs' room
    r.sqdist(x, x, out=d)
    r.pdist(x, out=p)
    return (r.potrf(a) == 0 and a.tolist() == [[2.0, 2.0], [1.0, 2.0]]
            and r.potrs(a, np.array([8.0, 9.0])).tolist() == [1.375, 1.25]
            and r.gemv(np.eye(2) + 1, np.array([1.0, 2.0])).tolist() == [4.0, 5.0]
            and d.tolist() == [[0.0, 25.0], [25.0, 0.0]] and p.tolist() == [5.0])


@cache
def load_kernel_ridge():
    """The routines kernel ridge calls (``_Routines``), loaded once; a
    command that runs kernel ridge on several processes loads them before
    its workers fork.  Where ``blas.lapack()`` or the distance extension is
    missing or fails its check, they are scipy's wrappers of the same code.
    """
    try:
        dist = _distance_module()
        fast = _Routines(dist.cdist_sqeuclidean, dist.pdist_euclidean, *blas.lapack())
        if _works(fast):
            return fast
    except (ImportError, AttributeError, TypeError, ValueError):
        pass  # a module, function or symbol is missing, or refuses the check's call
    from scipy.linalg.blas import dgemv
    from scipy.linalg.lapack import dpotrf, dpotrs
    from scipy.spatial.distance import cdist, pdist

    return _Routines(lambda x, y, out=None: cdist(x, y, "sqeuclidean", out=out), pdist,
                     lambda a: dpotrf(a.T, overwrite_a=True, clean=False)[1],
                     lambda c, b: dpotrs(c.T, b, overwrite_b=True)[0],
                     lambda k, v: dgemv(1.0, k.T, v, trans=1))


def _median_bandwidth(x, out=None):
    """``np.median(pdist(x))`` from one partition: the middle distance, or
    the mean of the two middle ones when the pair count is even.  The
    distances go to ``out`` (m (m - 1) / 2 floats) where given."""
    d = load_kernel_ridge().pdist(x, out=out)  # fit() guarantees 2 rows, so 1 pair
    k = d.size // 2
    d.partition(k)
    med = float(d[k] if d.size % 2 else (d[:k].max() + d[k]) / 2.0)
    return med if med > 0 else 1.0


@dataclass
class _Scope:
    design: tuple | None = None  # the last design: (key, gamma, K, factor)
    models: dict = field(default_factory=dict)  # fit's key -> the fitted model


_scope = None  # the outermost open shared_designs() block's scope


@contextmanager
def shared_designs():
    """A fit scope (see above): every backend's repeat fit returns the model
    already fit.  Kernel ridge also keeps its last design (K and its
    Cholesky factor) through a block: a fit on its x bytes, bandwidth and
    penalty only solves, any other fit replaces it, and every block's end
    drops it."""
    global _scope
    outer = _scope is None
    if outer:
        _scope = _Scope()
    try:
        yield
    finally:
        _scope.design = None
        if outer:
            _scope = None


def _kernel_design(x, bandwidth, penalty, arrays=None):
    """gamma, K and the factor of K + penalty I (``blas.lapack``'s dpotrf),
    built in ``arrays``, a dropped design's (K, factor), where given."""
    r = load_kernel_ridge()
    m = x.shape[0]
    k, a = arrays or (np.empty((m, m)), np.empty((m, m)))
    # the median's distances take the room of the system, which comes after them
    bw = (_median_bandwidth(x, a.reshape(-1)[:m * (m - 1) // 2]) if bandwidth is None
          else bandwidth)
    gamma = 1.0 / (2.0 * bw * bw)
    r.sqdist(x, x, out=k)
    k *= -gamma  # in place, the bits of np.exp(-gamma * D)
    np.exp(k, out=k)
    np.copyto(a, k)
    a.flat[::m + 1] += penalty
    info = r.potrf(a)
    if info != 0:
        raise SingularModelError(f"kernel system not positive definite (info={info})")
    return gamma, k, a


def _fit_kernel_ridge(params, x, y):
    m = x.shape[0]
    key = (x.shape, x.tobytes(), params["bandwidth"], params["penalty"])
    held = _scope or _Scope()  # outside shared_designs(), this fit's own
    if held.design is None or held.design[0] != key:
        # drop the last design before building this one, in its arrays if they fit
        reuse = held.design and held.design[2].shape == (m, m) and held.design[2:]
        held.design = None
        held.design = (key, *_kernel_design(x, params["bandwidth"], params["penalty"],
                                            reuse))
    _, gamma, k, c = held.design
    intercept = float(np.mean(y))
    alpha = load_kernel_ridge().potrs(c, y - intercept)
    if not np.all(np.isfinite(alpha)):
        raise SingularModelError("kernel system produced non-finite solution")
    return FittedKernelRidge(x.copy(), alpha, intercept, gamma,
                             _kernel_dot(k, alpha) + intercept)


# ---------------------------------------------------------------------------
# boosted trees


class FittedBoostedTrees(FittedRegressor):
    kind = "boosted_trees"

    def __init__(self, n_features, init, learning_rate, trees, fitted):
        super().__init__(n_features, fitted)
        for tree in trees:
            _read_only(*tree)
        self.init = init
        self.learning_rate = learning_rate
        self.trees = tuple(trees)

    def _predict(self, x):
        out = np.full(x.shape[0], self.init)
        for feat, thr, left, right, value in self.trees:
            out += self.learning_rate * _tree_predict(
                feat, thr, left, right, value, x
            )
        return out


def _best_split(xs, ys, min_leaf):
    """Best squared-error split of one node, over all its features at once.

    ``xs`` (d, n) holds each feature's values of the node's rows sorted
    ascending, ``ys`` the targets in the same orders.  Cut ``i`` of
    feature ``f`` sends the rows of ``xs[f, :i + 1]`` left.  Returns
    (sse, f, i); sse is inf when no valid cut exists.  Ties go to the
    lowest feature, then the lowest cut (the first flat argmin).
    """
    n = xs.shape[1]  # >= 2 * min_leaf, so at least one cut leaves min_leaf a side
    lo, hi = min_leaf - 1, n - min_leaf
    c1 = ys.cumsum(axis=1)
    c2 = (ys * ys).cumsum(axis=1)
    tot1 = c1[:, -1:]
    tot2 = c2[:, -1:]
    sl = c1[:, lo:hi]
    s2l = c2[:, lo:hi]
    nl = np.arange(lo + 1.0, hi + 1.0)
    nr = n - nl
    sse = (s2l - sl * sl / nl) + ((tot2 - s2l) - (tot1 - sl) ** 2 / nr)
    sse[xs[:, lo:hi] == xs[:, lo + 1:hi + 1]] = np.inf  # no cut inside a tie
    f, j = divmod(int(sse.argmin()), hi - lo)
    return float(sse[f, j]), f, lo + j


def _tree_predict(feature, threshold, left, right, value, x):
    node = np.zeros(x.shape[0], dtype=np.int64)  # each row's node, one level per step
    rows = np.arange(x.shape[0])
    while True:
        f = feature[node]
        inner = f >= 0
        if not inner.any():
            return value[node]
        go_left = x[rows, f] <= threshold[node]  # a leaf's f = -1 reads an unused column
        node = np.where(inner, np.where(go_left, left[node], right[node]), node)


def _grow_tree(rows, order, xs, r, max_depth, min_leaf, fitted):
    """Depth-first CART growth on presorted features; returns flat node arrays.

    ``rows`` (ascending) are the rows to fit, ``order`` (d, n) the same
    rows sorted by each feature (ties in row order) and ``xs`` their
    values.  Children inherit both by a stable partition: no node sorts.
    Each row of ``rows`` gets its leaf's value in ``fitted``, the value
    ``_tree_predict`` would give it.
    """
    nodes = []  # [feature, threshold, left, right, value], depth-first
    d = order.shape[0]

    def leaf(rows):
        v = r[rows]
        value = float(v.sum() / v.size)  # np.mean's bits
        fitted[rows] = value
        nodes.append([-1, 0.0, -1, -1, value])
        return len(nodes) - 1

    def build(rows, order, xs, depth):
        sub = r[rows]
        n = rows.size
        if depth == 0 or n < 2 * min_leaf or n < 2:
            return leaf(rows)
        parent_sse = float(((sub - sub.sum() / n) ** 2).sum())
        sse, f, i = _best_split(xs, r[order], min_leaf)
        if not sse < parent_sse:
            return leaf(rows)
        thr = 0.5 * (xs[f, i] + xs[f, i + 1])
        if thr >= xs[f, i + 1]:
            # midpoint rounded up to the right value; split on the left one
            thr = xs[f, i]
        go_left = np.zeros(r.size, dtype=bool)
        go_left[order[f, :i + 1]] = True
        node = len(nodes)
        nodes.append([f, float(thr), -1, -1, 0.0])
        in_left = go_left[rows]
        if depth == 1:  # both children are leaves; skip the partition
            nodes[node][2:4] = leaf(rows[in_left]), leaf(rows[~in_left])
            return node
        ml = go_left[order]
        for k, keep, sel in ((2, ml, in_left), (3, ~ml, ~in_left)):
            nodes[node][k] = build(rows[sel], order[keep].reshape(d, -1),
                                   xs[keep].reshape(d, -1), depth - 1)
        return node

    build(rows, order, xs, max_depth)
    cols = zip(*nodes)
    return tuple(np.asarray(c, dtype=t) for c, t in
                 zip(cols, (np.int64, np.float64, np.int64, np.int64, np.float64)))


def _fit_boosted_trees(params, x, y, seed):
    m, d = x.shape
    init = float(np.mean(y))
    pred = np.full(m, init)
    xt = x.T
    order = np.argsort(xt, axis=1, kind="stable")  # the only sort of the fit
    xs = np.take_along_axis(xt, order, axis=1)
    rows, o, v = np.arange(m), order, xs
    step = np.empty(m)
    trees = []
    rng = None
    if params["subsample"] < 1.0:
        rng = np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF]))
        n_sub = max(2, int(round(params["subsample"] * m)))
    for _ in range(params["n_stages"]):
        resid = y - pred
        if rng is not None:
            rows = np.sort(rng.choice(m, size=n_sub, replace=False))
            in_sample = np.zeros(m, dtype=bool)
            in_sample[rows] = True
            keep = in_sample[order]  # filtering a sorted order keeps it sorted
            o, v = order[keep].reshape(d, n_sub), xs[keep].reshape(d, n_sub)
        tree = _grow_tree(rows, o, v, resid, params["max_depth"], params["min_leaf"],
                          step)
        trees.append(tree)
        if rng is not None:  # growth set the sampled rows; walk the rest
            out = np.flatnonzero(~in_sample)
            step[out] = _tree_predict(*tree, x[out])
        pred = pred + params["learning_rate"] * step
    return FittedBoostedTrees(x.shape[1], init, params["learning_rate"], trees, pred)


# ---------------------------------------------------------------------------
# penalized B-spline smoother


class FittedSplineGAM(FittedRegressor):
    kind = "spline_gam"

    def __init__(self, knots, coef, lo, hi, penalty, edf, fitted):
        super().__init__(1, fitted)
        _read_only(coef)
        self.knots = knots
        self.coef = coef
        self.lo = lo
        self.hi = hi
        self.penalty = penalty
        self.edf = edf  # effective degrees of freedom at the selected penalty
        # representable span of the basis (can differ from lo/hi by
        # floating-point rounding of the knot grid)
        self._span_lo = float(knots[3])
        self._span_hi = float(knots[-4])

    @cached_property
    def _extension(self):
        """Boundary values and slopes (v_lo, d_lo, v_hi, d_hi) of the fit."""
        t, c = self.knots, self.coef
        ends = np.array([self._span_lo, self._span_hi])
        v = _bspline_sum(c, *_bspline_basis(t, ends, 3))
        # the slope is the degree-2 spline with scipy's ``splder`` coefficients
        dc = np.diff(c) * 3 / (t[4:-1] - t[1:-4])
        d = _bspline_sum(dc, *_bspline_basis(t[1:-1], ends, 2))
        return float(v[0]), float(d[0]), float(v[1]), float(d[1])

    def _predict(self, x):
        t = x[:, 0]
        out = np.empty_like(t)
        inside = (t >= self.lo) & (t <= self.hi)
        xs = np.clip(t[inside], self._span_lo, self._span_hi)
        out[inside] = _bspline_sum(self.coef, *_span_basis(self.knots.tobytes(),
                                                           xs.tobytes()))
        lo_side = t < self.lo
        hi_side = t > self.hi
        if lo_side.any() or hi_side.any():
            # linear extension of the boundary polynomial outside the span
            v_lo, d_lo, v_hi, d_hi = self._extension
            out[lo_side] = v_lo + d_lo * (t[lo_side] - self.lo)
            out[hi_side] = v_hi + d_hi * (t[hi_side] - self.hi)
        return out


def _bspline_basis(t, x, k):
    """de Boor's recursion for the degree-k B-splines on knots ``t`` that
    are nonzero at each x in [t[k], t[n_basis]], in the operation order of
    scipy's ``_deBoor_D`` (so with its bits).  Returns (k + 1, n) ``cols``
    and ``vals``: basis ``cols[a]`` is ``vals[a]`` at x, and ``cols[k]`` is
    the interval ell, t[ell] <= x < t[ell + 1], clipped to [k, n_basis - 1]
    as scipy's ``find_interval`` clips it."""
    ell = np.clip(np.searchsorted(t, x, "right") - 1, k, t.size - k - 2)
    h = np.zeros((k + 1, x.size))
    h[0] = 1.0
    for j in range(1, k + 1):
        hh = h[:j].copy()
        h[0] = 0.0
        for n in range(1, j + 1):
            xb, xa = t[ell + n], t[ell + n - j]
            # a zero-length support adds nothing: w = 0 where xb == xa
            w = np.divide(hh[n - 1], xb - xa, out=np.zeros(x.size), where=xb != xa)
            h[n - 1] += w * (xb - x)
            h[n] = w * (x - xa)
    return ell + np.arange(-k, 1)[:, None], h


def _bspline_sum(c, cols, vals):
    """sum_a c[cols[a]] vals[a], summed from 0.0 in order, as scipy sums it
    (so a sum of negative zeros is +0.0)."""
    return np.add.reduce(c[cols] * vals, axis=0, initial=0.0)


@lru_cache(maxsize=8)  # LOYO predicts every smoother of a fold on the same rows
def _span_basis(knots_bytes, x_bytes):
    """``_bspline_basis`` of in-span x (float64 bytes) on the cubic knots."""
    basis = _bspline_basis(np.frombuffer(knots_bytes), np.frombuffer(x_bytes), 3)
    _read_only(*basis)
    return basis


def _spline_design(x, n_knots):
    lo = float(np.min(x))
    hi = float(np.max(x))
    if hi <= lo:
        raise SingularModelError("spline_gam needs at least 2 distinct x values")
    h = (hi - lo) / (n_knots + 1)
    knots = lo + h * np.arange(-3, n_knots + 5)
    if not np.all(knots[4:-1] > knots[1:-4]):
        # four equal knots in a row leave the fit without a slope at the
        # boundary, which the linear extension needs
        raise SingularModelError(
            f"spline_gam: x spans too little of its magnitude for {n_knots} knots")
    # rounding can leave the last base-interval knot a hair below hi;
    # clip to the actual representable span of the basis
    cols, vals = _bspline_basis(knots, np.clip(x, knots[3], knots[n_knots + 4]), 3)
    b = np.zeros((x.size, n_knots + 4))
    b[np.arange(x.size), cols] = vals
    return knots, b, lo, hi


@dataclass(frozen=True)
class _SplineBasis:
    """The target-free part of a spline fit on one design (read-only arrays)."""

    knots: np.ndarray
    lo: float
    hi: float
    mu: np.ndarray  # Demmler-Reinsch eigenvalues
    v: np.ndarray  # coefficients of the Demmler-Reinsch basis, (nb, nb)
    bv: np.ndarray  # the design in that basis, B V
    bv_norms: np.ndarray  # |B v_j|^2
    scale: np.ndarray  # GCV's target-free terms on _PENALTY_GRID, from _gcv_terms
    edf: np.ndarray


@lru_cache(maxsize=8)  # LOYO fits cycle through a few designs per training set
def _spline_basis(n_knots, x_bytes):
    """Factor the design of x (float64 bytes) once; every target reuses it.

    A failure raises on every call: ``lru_cache`` stores no exceptions.
    """
    knots, b, lo, hi = _spline_design(np.frombuffer(x_bytes), n_knots)
    nb = b.shape[1]
    d2 = np.diff(np.eye(nb), n=2, axis=0)
    pen = d2.T @ d2
    btb = b.T @ b
    # Demmler-Reinsch: with btb + pen = L L' and L^-1 pen L^-T = W diag(mu) W',
    # V = L^-T W gives btb + lam pen = V^-T diag(1 + (lam - 1) mu) V^-1.
    # btb + pen is positive definite once x has 2 distinct values, even
    # when b has fewer independent columns than nb.
    try:
        li = np.linalg.inv(np.linalg.cholesky(btb + pen))
    except np.linalg.LinAlgError as e:
        raise SingularModelError(f"spline system singular: {e}") from e
    mu, w = np.linalg.eigh(li @ pen @ li.T)
    v = li.T @ w
    bv = b @ v
    # |B v_j|^2 is 1 - mu_j without the cancellation where mu_j is near 1
    bv_norms = (bv * bv).sum(axis=0)
    basis = _SplineBasis(knots, lo, hi, mu, v, bv, bv_norms,
                         *_gcv_terms(mu, bv_norms, np.array(_PENALTY_GRID)))
    _read_only(knots, mu, v, bv, bv_norms, basis.scale, basis.edf)
    return basis


_KEPT_DESIGNS = _spline_basis.cache_info().maxsize  # counted by fit_bytes


def _gcv_terms(mu, bv_norms, lams):
    """The (nb, n_lam) eigenvalue scales of penalties ``lams`` and their edf."""
    scale = 1.0 + np.outer(mu, lams - 1.0)
    return scale, (bv_norms[:, None] / scale).sum(axis=0)


def _fit_spline_gam(params, x, y):
    m = x.shape[0]
    basis = _spline_basis(params["n_knots"], x[:, 0].tobytes())
    fixed = params["penalty"] is not None
    lams = np.array([float(params["penalty"])] if fixed else _PENALTY_GRID)
    scale, edf = (_gcv_terms(basis.mu, basis.bv_norms, lams) if fixed
                  else (basis.scale, basis.edf))
    z = (basis.bv.T @ y)[:, None] / scale  # V-basis coefficients, one column per lam
    coefs = basis.v @ z
    if not np.all(np.isfinite(coefs)):
        raise SingularModelError("spline system produced non-finite solution")
    fits = basis.bv @ z  # in-sample predictions, one column per lam
    rss = ((y[:, None] - fits) ** 2).sum(axis=0)
    denom = m - edf
    ok = (denom > 1e-9) & (rss < np.inf)  # an overflowed (inf or nan) rss never wins
    gcv = np.full(lams.size, np.inf)
    gcv[ok] = m * rss[ok] / (denom[ok] * denom[ok])
    k = int(np.argmin(gcv))  # a tie goes to the first, smallest penalty
    if not fixed and not gcv[k] < np.inf:
        raise SingularModelError("GCV failed for every penalty on the grid")
    return FittedSplineGAM(basis.knots, np.ascontiguousarray(coefs[:, k]), basis.lo,
                           basis.hi, float(lams[k]), float(edf[k]),
                           np.ascontiguousarray(fits[:, k]))
