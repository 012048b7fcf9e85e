"""Schwarz-criterion model selection among ten candidate families.

Each family is fitted by its own maximum-likelihood estimator and the
candidates are ranked ascending by BIC = k ln(n) - 2 loglik.  Families
whose fit fails on the given data (wrong support, no convergence,
non-finite likelihood) are excluded from the ranking rather than
aborting it.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as _st

from ..errors import NotConverged, TooFewPoints
from .fit import MIN_FIT_POINTS, GevFit, fit_gev_mle

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CandidateFamily:
    """A distribution family entered into the BIC ranking."""

    family: str

    def __post_init__(self) -> None:
        if self.family not in _FITTERS:
            raise ValueError(f"unknown family {self.family!r}")


@dataclass(frozen=True)
class FamilyFit:
    """One ranked entry: family name, parameters, likelihood, BIC."""

    family: str
    k: int  # free parameters counted by the Schwarz criterion
    params: dict
    loglik: float
    bic: float
    n: int
    gev: GevFit | None = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        out = {
            "family": self.family,
            "k": self.k,
            "params": dict(self.params),
            "loglik": self.loglik,
            "bic": self.bic,
            "n": self.n,
        }
        if self.gev is not None:
            out["gev"] = self.gev.to_json_dict()
        return out


def _sum_logpdf(dist, z: np.ndarray, *params) -> float:
    val = float(np.sum(dist.logpdf(z, *params)))
    if not math.isfinite(val):
        raise ValueError("non-finite log-likelihood")
    return val


def _require_positive(z: np.ndarray) -> None:
    if float(z.min()) <= 0.0:
        raise ValueError("family needs strictly positive data")


def _fit_gev(z):
    try:
        fit = fit_gev_mle(z)
    except NotConverged as exc:
        raise ValueError(str(exc)) from exc
    p = fit.params
    return {"xi": p.xi, "sigma": p.sigma, "mu": p.mu}, fit.loglik, fit


def _fit_gumbel(z):
    loc, scale = _st.gumbel_r.fit(z)
    return {"loc": loc, "scale": scale}, _sum_logpdf(_st.gumbel_r, z, loc, scale), None


def _fit_weibull(z):
    _require_positive(z)
    c, loc, scale = _st.weibull_min.fit(z, floc=0.0)
    return (
        {"shape": c, "scale": scale},
        _sum_logpdf(_st.weibull_min, z, c, loc, scale),
        None,
    )


def _fit_normal(z):
    loc, scale = float(np.mean(z)), float(np.std(z))
    if scale == 0.0:
        raise ValueError("zero variance")
    return {"loc": loc, "scale": scale}, _sum_logpdf(_st.norm, z, loc, scale), None


def _fit_lognormal(z):
    _require_positive(z)
    lz = np.log(z)
    s, scale = float(np.std(lz)), float(np.exp(np.mean(lz)))
    if s == 0.0:
        raise ValueError("zero variance in log space")
    return {"s": s, "scale": scale}, _sum_logpdf(_st.lognorm, z, s, 0.0, scale), None


def _fit_exponential(z):
    if float(z.min()) < 0.0:
        raise ValueError("family needs non-negative data")
    scale = float(np.mean(z))
    if scale == 0.0:
        raise ValueError("all-zero data")
    return {"scale": scale}, _sum_logpdf(_st.expon, z, 0.0, scale), None


def _fit_gamma(z):
    _require_positive(z)
    a, loc, scale = _st.gamma.fit(z, floc=0.0)
    return {"a": a, "scale": scale}, _sum_logpdf(_st.gamma, z, a, loc, scale), None


def _fit_logistic(z):
    loc, scale = _st.logistic.fit(z)
    return {"loc": loc, "scale": scale}, _sum_logpdf(_st.logistic, z, loc, scale), None


def _fit_genpareto(z):
    c, loc, scale = _st.genpareto.fit(z)
    return (
        {"c": c, "loc": loc, "scale": scale},
        _sum_logpdf(_st.genpareto, z, c, loc, scale),
        None,
    )


def _fit_rayleigh(z):
    if float(z.min()) < 0.0:
        raise ValueError("family needs non-negative data")
    scale = math.sqrt(float(np.mean(z ** 2)) / 2.0)
    if scale == 0.0:
        raise ValueError("all-zero data")
    return {"scale": scale}, _sum_logpdf(_st.rayleigh, z, 0.0, scale), None


#: family -> (free parameter count, fitter)
_FITTERS = {
    "GEV": (3, _fit_gev),
    "Gumbel": (2, _fit_gumbel),
    "Weibull": (2, _fit_weibull),
    "Normal": (2, _fit_normal),
    "LogNormal": (2, _fit_lognormal),
    "Exponential": (1, _fit_exponential),
    "Gamma": (2, _fit_gamma),
    "Logistic": (2, _fit_logistic),
    "GeneralizedPareto": (3, _fit_genpareto),
    "Rayleigh": (1, _fit_rayleigh),
}


def default_candidates() -> list[CandidateFamily]:
    """The full ten-family candidate set."""
    return [CandidateFamily(name) for name in _FITTERS]


def select_model(data, candidates: list[CandidateFamily] | None = None) -> list[FamilyFit]:
    """Rank candidate families on ``data`` by ascending BIC.

    Ties break toward fewer parameters, then lexicographic family name.
    An empty candidate list yields an empty ranking.
    """
    z = np.asarray(data, dtype=float).ravel()
    if z.size < MIN_FIT_POINTS:
        raise TooFewPoints(
            f"model selection needs at least {MIN_FIT_POINTS} points, got {z.size}"
        )
    if candidates is None:
        candidates = default_candidates()
    n = int(z.size)
    fits: list[FamilyFit] = []
    for cand in candidates:
        k, fitter = _FITTERS[cand.family]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                params, loglik, gev = fitter(z)
        except Exception as exc:  # noqa: BLE001 - exclusion, not failure
            log.debug("excluding %s: %s", cand.family, exc)
            continue
        fits.append(
            FamilyFit(
                family=cand.family,
                k=k,
                params=params,
                loglik=loglik,
                bic=k * math.log(n) - 2.0 * loglik,
                n=n,
                gev=gev,
            )
        )
    fits.sort(key=lambda f: (f.bic, f.k, f.family))
    return fits
