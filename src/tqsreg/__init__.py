"""Removal of shared systematic measurement error from simultaneous
observations of dependent quantities (three-quarter-sibling regression)."""

__version__ = "0.1.0"

from .data_model import (  # noqa: F401
    ObservationTable,
    load_table,
    save_table,
    split_by_group,
)
from .estimators import (  # noqa: F401
    DenoiseResult,
    center,
    hs_estimate,
    hs_multi_species,
    tqs_eq1,
    tqs_eq2,
    tqs_multi_species,
)
from .regress import FittedRegressor, RegressorConfig, fit, predict  # noqa: F401
