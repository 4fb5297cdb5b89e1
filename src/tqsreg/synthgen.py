"""Synthetic benchmark generator and the two MSE sweep experiments.

Each instance draws a scalar process covariate X and noise driver N,
then builds species measurements Y_i = w_x[i] X + g_i(w_n[i] N) + eps
with randomized sigmoids g_i.  The sweeps compare 3QS (alternate form,
joint features (X, Y_-1)) against plain half-sibling regression on the
reconstruction of species 1, with paired instances across methods.
Each sweep first runs ``check_sweep``, which refuses an empty grid, a
species count that is not an integer and whatever ``SynthConfig``
refuses, so a bad setting fails before any trial or worker starts.
The sweeps compute at one BLAS thread, in the serial loop and in every
worker process, so a serial run and one on a ``worker_pool`` give
identical rows; both sweeps of one command share one ``worker_pool``,
which also runs the folds of ``evalharness.loyo_evaluate``.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace

import numpy as np

from . import blas
from .estimators import center, hs_estimate, tqs_eq2
from .regress import shared_designs

DEFAULT_N_OBS = 500
SPECIES_GRID = (2, 3, 5, 7, 10)
SIGMA_GRID = (0.0, 0.05, 0.1, 0.2, 0.4)
# the ranges of each species' noise loading and sigmoid parameters
W_N_RANGE = (-1.0, 1.0)
AMPLITUDE_RANGE = (0.5, 2.0)
SLOPE_RANGE = (1.0, 5.0)
CENTER_RANGE = (-0.5, 0.5)


@dataclass(frozen=True)
class SynthConfig:
    n_species: int = 2
    n_obs: int = DEFAULT_N_OBS
    sigma_eps: float = 0.0
    tie_noise_functions: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.n_species < 2:
            raise ValueError("need at least 2 species")
        if self.n_obs < 50:
            raise ValueError("need at least 50 observations")
        if not np.isfinite(self.sigma_eps):
            raise ValueError(f"sigma_eps must be finite (got {self.sigma_eps!r})")
        if self.sigma_eps < 0:
            raise ValueError("sigma_eps must be >= 0")


@dataclass(frozen=True)
class SynthInstance:
    x: np.ndarray
    noise: np.ndarray
    z: np.ndarray
    y: np.ndarray
    w_x: np.ndarray
    w_n: np.ndarray
    sigmoid_params: np.ndarray  # (n, 3) rows of (amplitude, slope, center)
    eps: np.ndarray

    def noise_term(self):
        a = self.sigmoid_params[:, 0]
        b = self.sigmoid_params[:, 1]
        c = self.sigmoid_params[:, 2]
        t = self.noise[:, None] * self.w_n[None, :]
        return a[None, :] / (1.0 + np.exp(-b[None, :] * (t - c[None, :])))


def generate(config):
    """Draw one instance; fully determined by ``config.seed``."""
    rng = np.random.default_rng(np.random.SeedSequence(int(config.seed) & 0xFFFFFFFF))
    m = config.n_obs
    n = config.n_species
    x = rng.uniform(-1.0, 1.0, size=m)
    noise = rng.uniform(-1.0, 1.0, size=m)
    w_x = rng.uniform(-1.0, 1.0, size=n)
    w_n = rng.uniform(*W_N_RANGE, size=n)
    a = rng.uniform(*AMPLITUDE_RANGE, size=n)
    b = rng.uniform(*SLOPE_RANGE, size=n)
    c = rng.uniform(*CENTER_RANGE, size=n)
    if config.tie_noise_functions:
        w_n = np.full(n, w_n[0])
        a = np.full(n, a[0])
        b = np.full(n, b[0])
        c = np.full(n, c[0])
    eps = rng.normal(0.0, config.sigma_eps, size=(m, n)) if config.sigma_eps > 0 \
        else np.zeros((m, n))
    z = x[:, None] * w_x[None, :]
    inst = SynthInstance(
        x=x, noise=noise, z=z, y=np.empty(0), w_x=w_x, w_n=w_n,
        sigmoid_params=np.column_stack([a, b, c]), eps=eps,
    )
    return replace(inst, y=z + inst.noise_term() + eps)


def reconstruction_mse(z_hat, z_true):
    """MSE after centering the estimate to the mean of the truth.

    The estimators recover the latent value only up to a constant
    offset, so the offset is removed before scoring.
    """
    z_hat = np.asarray(z_hat, dtype=float).ravel()
    z_true = np.asarray(z_true, dtype=float).ravel()
    if z_hat.shape != z_true.shape:
        raise ValueError("length mismatch")
    return float(np.mean((center(z_hat, z_true.mean()) - z_true) ** 2))


def trial_seed(master_seed, grid_index, trial_index):
    ss = np.random.SeedSequence(
        [int(master_seed) & 0xFFFFFFFF, int(grid_index), int(trial_index)]
    )
    return int(ss.generate_state(1)[0])


@dataclass(frozen=True)
class SweepRow:
    sweep_value: float
    method: str
    mean_mse: float
    stderr_mse: float  # nan when trials == 1
    trials: int


def _trial_mses(inst, cfg):
    """(3QS, HS) reconstruction MSE for species 1 on one instance, in one fit scope."""
    y1 = inst.y[:, 0]
    y_rest = inst.y[:, 1:]
    x = inst.x[:, None]
    z1 = inst.z[:, 0]
    with shared_designs():
        z_tqs = tqs_eq2(y1, x, y_rest, cfg, cfg)
        z_hs = hs_estimate(y1, y_rest, cfg)
    return reconstruction_mse(z_tqs, z1), reconstruction_mse(z_hs, z1)


def _summarize(values):
    arr = np.asarray(values, dtype=float)
    stderr = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else float("nan")
    return float(arr.mean()), stderr


def _cell_config(kind, sweep_value, n_obs, seed=0):
    """The SynthConfig of a trial of the ``kind`` ("species" or "noise") sweep."""
    if kind == "species":
        if not float(sweep_value).is_integer():
            raise ValueError(f"species counts must be integers (got {sweep_value!r})")
        return SynthConfig(n_species=int(sweep_value), n_obs=n_obs, sigma_eps=0.0,
                           seed=seed)
    return SynthConfig(n_species=2, n_obs=n_obs, sigma_eps=float(sweep_value),
                       tie_noise_functions=True, seed=seed)


def check_sweep(kind, grid, trials, n_obs=DEFAULT_N_OBS):
    """Raise ValueError unless every trial of the ``kind`` sweep can start.

    The sweeps run this first; calling it before a ``worker_pool`` opens
    refuses bad settings before any worker starts.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if len(grid) == 0:
        raise ValueError(f"the {kind} sweep has no grid value")
    for value in grid:
        _cell_config(kind, value, n_obs)


def _run_cell(args):
    kind, grid_index, sweep_value, trial, cfg, master_seed, n_obs = args
    seed = trial_seed(master_seed, grid_index, trial)
    return _trial_mses(generate(_cell_config(kind, sweep_value, n_obs, seed)), cfg)


@contextmanager
def worker_pool(jobs):
    """``jobs`` processes for independent tasks.

    Yields ``run(fn, tasks)``, which returns ``[fn(t) for t in tasks]``
    computed at one BLAS thread.  ``jobs <= 1`` starts no worker and runs
    the tasks here, one after another; otherwise ``jobs`` worker processes
    take the tasks in order, each the next as soon as it is free, so put
    the longest tasks first.  Results come back in task order, and so does
    an error: ``run`` raises what the first failing task raised, as a
    serial loop would, and cancels the tasks not yet started.  Only those
    already handed to the executor's call queue (up to ``jobs + 1``) still
    run, so when task 0 fails, fewer than ``2 * jobs + 3`` tasks ever start.
    ``fn`` and the tasks must pickle.  Several ``run`` calls can share one pool.

    The pool holds this process at one BLAS thread from before its
    workers fork until they are gone, so forked workers inherit that count
    and no count is set after a fork: with the OpenBLAS of these wheels,
    each such call restarts the thread pool that the fork stopped (see
    ``blas``).
    """
    with blas.num_threads(1):
        if not jobs or jobs <= 1:
            yield lambda fn, tasks: [fn(t) for t in tasks]
            return
        from concurrent.futures import ProcessPoolExecutor

        # spawn and forkserver workers start at a fresh count: the
        # initializer pins them (forked ones are at 1 already)
        with ProcessPoolExecutor(max_workers=jobs, initializer=blas.set_num_threads,
                                 initargs=(1,)) as executor:
            yield lambda fn, tasks: list(executor.map(fn, tasks))


def _run_sweep(kind, grid, trials, cfg, master_seed, n_obs, pool):
    check_sweep(kind, grid, trials, n_obs)
    tasks = [
        (kind, gi, gv, t, cfg, master_seed, n_obs)
        for gi, gv in enumerate(grid)
        for t in range(trials)
    ]
    with nullcontext(pool) if pool is not None else worker_pool(1) as run:
        results = run(_run_cell, tasks)
    rows = []
    for gi, gv in enumerate(grid):
        cell = results[gi * trials:(gi + 1) * trials]
        for mi, method in enumerate(("3qs", "hs")):
            mean, stderr = _summarize([r[mi] for r in cell])
            rows.append(SweepRow(float(gv), method, mean, stderr, trials))
    return rows


def run_species_sweep(ns, trials, cfg, master_seed=0, n_obs=DEFAULT_N_OBS, pool=None):
    """Reconstruction MSE vs number of species, sigma_eps fixed at 0.

    ``pool``, the ``run`` of an open ``worker_pool``, runs the trials; None
    runs them here, one after another, at one BLAS thread.
    """
    return _run_sweep("species", list(ns), trials, cfg, master_seed, n_obs, pool)


def run_noise_sweep(sigmas, trials, cfg, master_seed=0, n_obs=DEFAULT_N_OBS, pool=None):
    """Reconstruction MSE vs sigma_eps, n = 2 with tied noise functions.

    ``pool``, the ``run`` of an open ``worker_pool``, runs the trials; None
    runs them here, one after another, at one BLAS thread.
    """
    return _run_sweep("noise", list(sigmas), trials, cfg, master_seed, n_obs, pool)
