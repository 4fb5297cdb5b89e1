"""Denoising estimators: half-sibling and three-quarter-sibling forms.

``hs_estimate`` removes the component of a measurement predictable from
measurements that share only a noise cause.  The 3QS variants first
condition on observed process covariates so that intrinsic dependence
between the latent quantities is preserved.  Every estimator subtracts
a model's predictions on its own training rows, which it reads from the
fitted model (``FittedRegressor.fitted``), not from a second ``predict``.

Every per-species model, here and in ``evalharness``, is fit by one stage
step: one model per species in one ``regress.shared_designs()`` block, so
kernel ridge factors one design per run of species with equal features,
and a failed fit names its stage and species.  ``tqs_multi_species`` and
``hs_multi_species`` share one residual stage, one seeded model per
species: 3QS fits it to the covariate residuals, HS to the counts.
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


def _species_configs(cfg, s):
    """``cfg`` seeded with (cfg.seed, i) for each species i < s."""
    return [cfg.with_seed(species_seed(cfg.seed, i)) for i in range(s)]


def _fit_species(stage, cfgs, features, targets, columns):
    """Fit species i's model, config ``cfgs[i]``, to ``targets[:, i]`` on
    ``features[:, columns[i]]`` and return the models.  A failed fit, or a
    non-finite fit on its own rows, names its stage and species."""
    models = []
    with regress.shared_designs():
        for i, (cfg, cols) in enumerate(zip(cfgs, columns)):
            try:
                model = fit(cfg, features[:, cols], targets[:, i])
                model.fitted  # noqa: B018 -- raises on a non-finite fit
            except regress.RegressionError as e:
                raise EstimationError(
                    f"{stage} model failed for species {i}: {e}") from e
            models.append(model)
    return tuple(models)


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
    aux_columns = [_aux_species(y, i, n_aux) for i in range(s)]
    cov_models = _fit_species("covariate", _species_configs(cfg_x, s), table.covariates,
                              y, [slice(None)] * s)
    residuals = y - np.column_stack([m.fitted for m in cov_models])
    res_models = _fit_species("residual", _species_configs(cfg_res, s), residuals,
                              residuals, aux_columns)
    return DenoiseResult(
        z_hat=y - np.column_stack([m.fitted for m in res_models]),
        residuals=residuals,
        covariate_models=cov_models,
        residual_models=res_models,
        aux_columns=tuple(tuple(aux) for aux in aux_columns),
    )


def hs_multi_species(table, cfg_res, n_aux=None):
    """Half-sibling z-hat matrix: 3QS's residual stage run on the counts.

    Per species i, Y_i minus its fit on Y_-i (``n_aux`` as in
    ``tqs_multi_species``), plus the mean of Y_i so that the downstream
    smoother works on the measurement scale.
    """
    s = table.n_species
    if s < 2:
        raise ValueError("need >= 2 species for multi-species denoising")
    y = table.counts
    models = _fit_species("residual", _species_configs(cfg_res, s), y, y,
                          [_aux_species(y, i, n_aux) for i in range(s)])
    return (y - np.column_stack([m.fitted for m in models])
            + [y[:, i].mean() for i in range(s)])
