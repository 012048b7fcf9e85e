"""Extreme-value mathematics: GEV evaluators, MLE fitting, model selection."""

from .fit import MIN_FIT_POINTS, GevFit, fit_gev_batch, fit_gev_mle, ks_distance
from .gev import (
    XI_EPS,
    FitRegime,
    GevParams,
    TailClass,
    TailKind,
    classify,
    gev_cdf,
    gev_logpdf,
    gev_loglik,
    gev_pdf,
    gev_quantile,
    gev_sample,
)
from .select import (
    FamilyFit,
    Ranking,
    check_families,
    default_candidates,
    select_model,
)

__all__ = [
    "MIN_FIT_POINTS",
    "XI_EPS",
    "FamilyFit",
    "FitRegime",
    "GevFit",
    "GevParams",
    "Ranking",
    "TailClass",
    "TailKind",
    "check_families",
    "classify",
    "default_candidates",
    "fit_gev_batch",
    "fit_gev_mle",
    "gev_cdf",
    "gev_logpdf",
    "gev_loglik",
    "gev_pdf",
    "gev_quantile",
    "gev_sample",
    "ks_distance",
    "select_model",
]
