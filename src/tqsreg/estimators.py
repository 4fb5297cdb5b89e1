"""Denoising estimators: half-sibling and three-quarter-sibling forms.

``hs_estimate`` removes the component of a measurement predictable from
measurements that share only a noise cause.  The 3QS variants first
condition on observed process covariates so that intrinsic dependence
between the latent quantities is preserved.  Every estimator subtracts
a model's predictions on its own training rows, which it reads from the
fitted model (``FittedRegressor.fitted``), not from a second ``predict``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import regress
from .regress import fit


class EstimationError(RuntimeError):
    """A model fit failed; bad arguments raise ValueError instead."""


def species_seed(master_seed, species_index):
    """Per-species seed independent of processing order."""
    ss = np.random.SeedSequence([int(master_seed) & 0xFFFFFFFF, int(species_index)])
    return int(ss.generate_state(1)[0])


def center(values, target_mean=0.0):
    """Shift ``values`` to have mean ``target_mean``."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("cannot center an empty vector")
    return v - v.mean() + target_mean


def _as_2d(a):
    a = np.asarray(a, dtype=float)
    return a[:, None] if a.ndim == 1 else a


def hs_estimate(y1, y2, config):
    """Half-sibling estimate: y1 minus its prediction from y2."""
    y1 = np.asarray(y1, dtype=float).ravel()
    y2 = _as_2d(y2)
    return y1 - fit(config, y2, y1).fitted


def tqs_eq1(y1, x, y2, cfg_x, cfg_joint):
    """3QS residual form: y1 - E[y1 - E[y1|x] | x, y2]."""
    y1 = np.asarray(y1, dtype=float).ravel()
    x = _as_2d(x)
    y2 = _as_2d(y2)
    r = y1 - fit(cfg_x, x, y1).fitted
    return y1 - fit(cfg_joint, np.hstack([x, y2]), r).fitted


def tqs_eq2(y1, x, y2, cfg_x, cfg_joint):
    """3QS alternate form: y1 - E[y1|x, y2] + E[y1|x]."""
    y1 = np.asarray(y1, dtype=float).ravel()
    x = _as_2d(x)
    y2 = _as_2d(y2)
    model_joint = fit(cfg_joint, np.hstack([x, y2]), y1)
    model_x = fit(cfg_x, x, y1)
    return y1 - model_joint.fitted + model_x.fitted


@dataclass(frozen=True)
class DenoiseResult:
    """Denoised estimates plus the intermediate fits that produced them."""

    z_hat: np.ndarray
    residuals: np.ndarray
    covariate_models: tuple
    residual_models: tuple
    aux_columns: tuple  # per species, the residual columns its model was fit on
    method: str

    def training_diagnostics(self, table):
        """Training MSE of each internal regression, per species.

        ``table`` is the table the result was fit on; only its species
        names are read.  The covariate residuals are the covariate models'
        training errors.
        """
        out = []
        for i, name in enumerate(table.species_names):
            r = self.residuals[:, i]
            out.append({
                "species": name,
                "covariate_model_mse": float(np.mean(r ** 2)),
                "residual_model_mse": float(
                    np.mean((r - self.residual_models[i].fitted) ** 2)),
            })
        return out


def _aux_species(counts, i, n_aux):
    """Auxiliary columns for species i: all others in index order when
    ``n_aux`` is None, else the n_aux most abundant others, descending."""
    others = [j for j in range(counts.shape[1]) if j != i]
    if n_aux is None:
        return others
    if n_aux < 1:
        raise ValueError(f"n_aux must be >= 1 (got {n_aux})")
    totals = counts.sum(axis=0)
    others.sort(key=lambda j: (-totals[j], j))
    return others[:n_aux]


def tqs_multi_species(table, cfg_x, cfg_res, n_aux=None):
    """Residual-form 3QS denoising of every species in a table.

    Per species i: fit E[Y_i|X], form the residual R_i, fit E[R_i|R_-i]
    and subtract its prediction from Y_i.  ``n_aux`` limits R_-i to the
    residuals of the n_aux most abundant other species; None uses all
    of them.  Each species uses seeds derived from (master seed, species
    index), so results do not depend on processing order.
    """
    s = table.n_species
    if s < 2:
        raise ValueError("need >= 2 species for multi-species denoising")
    if table.covariates.shape[1] < 1:
        raise ValueError("need >= 1 process covariate")
    y = table.counts
    x = table.covariates
    m = table.n_rows
    aux_columns = [_aux_species(y, i, n_aux) for i in range(s)]

    cov_models = []
    residuals = np.empty((m, s))
    for i in range(s):
        cfg = cfg_x.with_seed(species_seed(cfg_x.seed, i))
        try:
            model = fit(cfg, x, y[:, i])
        except regress.RegressionError as e:
            raise EstimationError(f"covariate model failed for species {i}: {e}") from e
        cov_models.append(model)
        residuals[:, i] = y[:, i] - model.fitted

    res_models = []
    z_hat = np.empty((m, s))
    for i, aux in enumerate(aux_columns):
        cfg = cfg_res.with_seed(species_seed(cfg_res.seed, i))
        try:
            model = fit(cfg, residuals[:, aux], residuals[:, i])
        except regress.RegressionError as e:
            raise EstimationError(f"residual model failed for species {i}: {e}") from e
        res_models.append(model)
        z_hat[:, i] = y[:, i] - model.fitted

    return DenoiseResult(
        z_hat=z_hat,
        residuals=residuals,
        covariate_models=tuple(cov_models),
        residual_models=tuple(res_models),
        aux_columns=tuple(tuple(aux) for aux in aux_columns),
        method="3QS_residual",
    )
