"""Schwarz-criterion model selection among ten candidate families.

Each family is fitted by its own exact maximum-likelihood estimator and
the candidates are ranked ascending by BIC = k ln(n) - 2 loglik, where
loglik is the maximum that family's fit reached on the data. Normal,
LogNormal, Exponential and Rayleigh have closed-form estimators and
likelihoods at their maximum; the others run the Newton engine of
:mod:`.fit`, whose objective at the maximum is mapped back to the data:

- GEV: :func:`fit_gev_mle`;
- Gumbel and Logistic: Newton on (loc, scale) of the standardized data;
- Weibull and Gamma (location fixed at 0): Newton on the shape of the
  profile likelihood, whose scale is then closed-form;
- GeneralizedPareto: location at the sample minimum, then Newton on the
  profile likelihood in ``theta = c / scale`` (Grimshaw 1993), kept to
  ``c > -1``, where raising the location to the minimum never lowers the
  likelihood. Without an interior maximum there the family is excluded.

Families whose fit fails on the given data (wrong support, no interior
maximum, non-finite likelihood) are excluded from the ranking rather
than aborting it; the ranking keeps the reason. Data with a non-finite
value are refused whole. Every fitter returns its family's parameters
and log-likelihood, and a ranking entry holds only those and the BIC.
A GEV fit made elsewhere (one outcome of :func:`fit_gev_batch`) can be
ranked in place of a new one; its detailed fit stays with the caller.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from ..errors import DomainError, TooFewPoints, VoipQosError
from .fit import (
    _EULER_GAMMA,
    MIN_FIT_POINTS,
    GevFit,
    dot,
    fit_gev_mle,
    loc_scale_derivs,
    maximize,
    omega_derivs,
)

log = logging.getLogger(__name__)

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class FamilyFit:
    """One ranked entry: family name, parameters, likelihood, BIC."""

    family: str
    k: int  # free parameters counted by the Schwarz criterion
    params: dict
    loglik: float
    bic: float
    n: int

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "k": self.k,
            "params": dict(self.params),
            "loglik": self.loglik,
            "bic": self.bic,
            "n": self.n,
        }


# --- special functions -----------------------------------------------------

# digamma's positive root as a double-double, and the Taylor coefficients
# of digamma about it, (-1)^(k+1) zeta(k+1, root), highest power first
_PSI_ROOT_HI = 1.4616321449683622
_PSI_ROOT_LO = 9.549995429965697e-17
_PSI_ROOT_COEF = (
    -0.00016170622091974803, 0.00023635601564027053, -0.0003454680251063077,
    0.000504953265834602, -0.0007380709389960052, 0.0010788252019162967,
    -0.0015769367714301972, 0.002305126326734928, -0.003369801655439328,
    0.004926781395729853, -0.007204534386356869, 0.010538791616612175,
    -0.01542476590494896, 0.022597648232218104, -0.03316112647484736,
    0.04880428816414311, -0.07219956125645471, 0.10782405069126237,
    -0.16394270544240652, 0.258499760955651, -0.4427631689835921,
    0.9676722454476212,
)
# Bernoulli-number tails of the asymptotic series at 1/x^2, highest first
_PSI_ASYM = (-1 / 12, 691 / 32760, -1 / 132, 1 / 240, -1 / 252, 1 / 120, -1 / 12)
_TRIGAMMA_ASYM = (7 / 6, -691 / 2730, 5 / 66, -1 / 30, 1 / 42, -1 / 30, 1 / 6)
_ASYM_FROM = 10.0


def digamma(x: float) -> float:
    """psi(x) for x > 0: recurrence up to 10, then the asymptotic series.

    Within 0.2 of the positive root a Taylor series about the root keeps
    full relative precision where the recurrence would cancel.
    """
    h = (x - _PSI_ROOT_HI) - _PSI_ROOT_LO
    if abs(h) < 0.2:
        return h * np.polyval(_PSI_ROOT_COEF, h)
    shift = 0.0
    while x < _ASYM_FROM:
        shift += 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    return math.log(x) - 0.5 / x + inv2 * np.polyval(_PSI_ASYM, inv2) - shift


def trigamma(x: float) -> float:
    """psi'(x) for x > 0: recurrence up to 10, then the asymptotic series."""
    shift = 0.0
    while x < _ASYM_FROM:
        shift += 1.0 / (x * x)
        x += 1.0
    inv2 = 1.0 / (x * x)
    return 1.0 / x + 0.5 * inv2 + inv2 / x * np.polyval(_TRIGAMMA_ASYM, inv2) + shift


# --- Newton objectives of the standardized data, -inf where not finite ---

def _finite_sum(terms) -> float:
    val = float(np.sum(terms))
    return val if math.isfinite(val) else -math.inf


def _ll_gumbel(z, loc, scale):
    y = (z - loc) / scale
    return _finite_sum(-y - np.exp(-y)) - z.size * math.log(scale)


def _ll_logistic(z, loc, scale):
    y = -np.abs((z - loc) / scale)
    return _finite_sum(y - 2.0 * np.log1p(np.exp(y))) - z.size * math.log(scale)


# --- fitters: data -> (params in report order, log-likelihood) ------------

def _require_positive(z: np.ndarray) -> None:
    if float(z.min()) <= 0.0:
        raise ValueError("family needs strictly positive data")


def _require_converged(name: str, converged: bool) -> None:
    if not converged:
        raise ValueError(f"{name} fit did not converge")


def _gev_params(outcome):
    """The parameters of a GEV fit outcome; an error that fitting raised
    is raised again (NotConverged excludes GEV)."""
    if not isinstance(outcome, GevFit):
        raise outcome
    p = outcome.params
    return {"xi": p.xi, "sigma": p.sigma, "mu": p.mu}


def _standardize(z: np.ndarray) -> tuple[float, float, np.ndarray]:
    """``(m, s, (z - m) / s)`` with the mean ``m`` and deviation ``s``.

    Deviations are divided by their largest magnitude before squaring,
    so the deviation neither underflows nor overflows at extreme scales.
    """
    m = float(np.mean(z))
    dev = z - m
    top = float(np.max(np.abs(dev)))
    if not (top > 0.0 and math.isfinite(top)):
        raise ValueError("zero or non-finite spread")
    dev /= top
    s = float(np.std(dev))
    return m, top * s, dev / s


def _fit_loc_scale(z, name, loglik, h_derivs, start):
    """Newton on (loc, scale) of the standardized data, then map back;
    the log-likelihood loses ``n log s`` with the scale ``s``.

    ``h_derivs(y)`` gives the first two derivatives of the standard log
    density at ``y``.
    """
    m, s, x = _standardize(z)

    def f(theta):
        loc, scale = theta
        if not scale > 0.0:
            return -math.inf
        return loglik(x, loc, scale)

    def derivs(theta):
        loc, scale = theta
        y = (x - loc) / scale
        return loc_scale_derivs(x.size, scale, y, *h_derivs(y))

    theta, ll, _, converged = maximize(f, derivs, start)
    _require_converged(name, converged)
    return ({"loc": m + s * float(theta[0]), "scale": s * float(theta[1])},
            ll - x.size * math.log(s))


def _gumbel_h(y):
    e = np.exp(-y)
    return e - 1.0, -e


def _logistic_h(y):
    t = np.tanh(0.5 * y)
    return -t, -0.5 * (1.0 - t * t)


def _fit_gumbel(z):
    scale0 = math.sqrt(6.0) / math.pi
    return _fit_loc_scale(z, "Gumbel", _ll_gumbel, _gumbel_h,
                          [-_EULER_GAMMA * scale0, scale0])


def _fit_logistic(z):
    return _fit_loc_scale(z, "Logistic", _ll_logistic, _logistic_h,
                          [0.0, math.sqrt(3.0) / math.pi])


def _fit_weibull(z):
    """Profile in the shape c: scale^c = mean(z^c), and
    l(c) = n log c - n log mean(z^c) + (c - 1) sum(log z) - n.

    Newton runs on l(c) + n (top + 1) with top = max(log z)."""
    _require_positive(z)
    lz = np.log(z)
    top = float(lz.max())
    lm = lz - top  # <= 0, so exp(c lm) cannot overflow
    n, sum_lm = z.size, float(np.sum(lm))
    spread = float(np.std(lz))
    if not spread > 0.0:
        raise ValueError("zero variance in log space")

    def f(theta):
        c = theta[0]
        if not c > 0.0:
            return -math.inf
        mean_e = float(np.mean(np.exp(c * lm)))
        if not mean_e > 0.0:
            return -math.inf
        return n * (math.log(c) - math.log(mean_e)) + (c - 1.0) * sum_lm

    def derivs(theta):
        c = theta[0]
        e = np.exp(c * lm)
        w = e / np.sum(e)
        m1 = dot(w, lm)
        var = dot(w, (lm - m1) ** 2)
        return (np.array([n / c - n * m1 + sum_lm]),
                np.array([[-n / (c * c) - n * var]]))

    # the log of a Weibull variate has standard deviation pi / (c sqrt 6)
    theta, ll, _, converged = maximize(
        f, derivs, [math.pi / (math.sqrt(6.0) * spread)])
    _require_converged("Weibull", converged)
    c = float(theta[0])
    scale = math.exp(top + math.log(float(np.mean(np.exp(c * lm)))) / c)
    return {"shape": c, "scale": scale}, ll - n * (top + 1.0)


def _fit_gamma(z):
    """Profile in the shape a: scale = mean / a, and the score is
    n (log a - psi(a) - s) with s = log mean(z) - mean(log z).

    Newton runs on l(a) / n + mean(log z)."""
    _require_positive(z)
    mean, mean_log = float(np.mean(z)), float(np.mean(np.log(z)))
    s = math.log(mean) - mean_log
    if not s > 0.0:
        raise ValueError("zero variance")

    def f(theta):
        a = theta[0]
        if not a > 0.0:
            return -math.inf
        return a * (math.log(a) - 1.0 - s) - math.lgamma(a)

    def derivs(theta):
        a = theta[0]
        return (np.array([math.log(a) - digamma(a) - s]),
                np.array([[1.0 / a - trigamma(a)]]))

    # Minka's closed-form approximation of the root
    a0 = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    theta, ll, _, converged = maximize(f, derivs, [a0])
    _require_converged("Gamma", converged)
    a = float(theta[0])
    return {"a": a, "scale": mean / a}, z.size * (ll - mean_log)


def _fit_genpareto(z):
    """Location at min(z); on u = (z - loc) / mean, the profile in
    theta = c / scale is l(theta) = -n (1 + c + log M) with
    M = mean(log1p(theta u) / theta) = scale and c = theta M. On z, the
    log-likelihood loses n log(mean)."""
    loc = float(z.min())
    y = z - loc
    unit = float(np.mean(y))
    if not (unit > 0.0 and math.isfinite(unit)):
        raise ValueError("zero or non-finite spread")
    u = y / unit
    n, umax, umean = u.size, float(u.max()), float(np.mean(u))

    def profile_scale(t):
        return float(np.mean(np.log1p(t * u))) / t if t != 0.0 else umean

    def f(theta):
        t = theta[0]
        if not t * umax > -1.0:
            return -math.inf
        big_m = profile_scale(t)
        if not (big_m > 0.0 and t * big_m > -1.0):
            return -math.inf
        return -n * (1.0 + t * big_m + math.log(big_m))

    last = None  # derivs' latest result, unchanged by maximize

    def derivs(theta):
        nonlocal last
        t = theta[0]
        _, om, om1, om2 = omega_derivs(t, u)
        big_m, m1, m2 = float(np.mean(om)), float(np.mean(om1)), float(np.mean(om2))
        last = (np.array([-n * (big_m + t * m1 + m1 / big_m)]),
                np.array([[-n * (2.0 * m1 + t * m2 + m2 / big_m - (m1 / big_m) ** 2)]]))
        return last

    # start from the best point of a grid over x = theta * max(u) in
    # (-1, inf), dense toward the bounded-tail end x -> -1
    grid = np.concatenate([-(1.0 - np.logspace(-0.05, -6.0, 13)), [0.0],
                           np.logspace(-2.0, 6.0, 17)]) / umax
    start = grid[int(np.argmax([f([t]) for t in grid]))]
    theta, ll, _, converged = maximize(f, derivs, [start])
    g, hess = last  # maximize last called derivs at theta
    t = float(theta[0])
    if not (converged and hess[0, 0] < 0.0
            and abs(g[0] / hess[0, 0]) <= 1e-6 * max(1.0, abs(t))):
        raise ValueError("no interior likelihood maximum with c > -1")
    big_m = profile_scale(t)
    return ({"c": t * big_m, "loc": loc, "scale": big_m * unit},
            ll - n * math.log(unit))


def _fit_normal(z):
    loc, scale = float(np.mean(z)), float(np.std(z))
    if scale == 0.0:
        raise ValueError("zero variance")
    return ({"loc": loc, "scale": scale},
            -z.size * (0.5 + _HALF_LOG_2PI + math.log(scale)))


def _fit_lognormal(z):
    _require_positive(z)
    lz = np.log(z)
    mean_log = float(np.mean(lz))
    s, scale = float(np.std(lz)), float(np.exp(mean_log))
    if s == 0.0:
        raise ValueError("zero variance in log space")
    return ({"s": s, "scale": scale},
            -z.size * (0.5 + _HALF_LOG_2PI + math.log(s) + mean_log))


def _fit_exponential(z):
    if float(z.min()) < 0.0:
        raise ValueError("family needs non-negative data")
    scale = float(np.mean(z))
    if scale == 0.0:
        raise ValueError("all-zero data")
    return {"scale": scale}, -z.size * (1.0 + math.log(scale))


def _fit_rayleigh(z):
    if float(z.min()) < 0.0:
        raise ValueError("family needs non-negative data")
    scale = math.sqrt(float(np.mean(z ** 2)) / 2.0)
    if scale == 0.0:
        raise ValueError("all-zero data")
    return ({"scale": scale},
            float(np.sum(np.log(z))) - z.size * (2.0 * math.log(scale) + 1.0))


class _Family(NamedTuple):
    k: int  # free parameters counted by the Schwarz criterion
    fit: Callable | None  # data -> (params in report order, log-likelihood)


_FITTERS = {
    "GEV": _Family(3, None),  # ranked from a GevFit in select_model
    "Gumbel": _Family(2, _fit_gumbel),
    "Weibull": _Family(2, _fit_weibull),
    "Normal": _Family(2, _fit_normal),
    "LogNormal": _Family(2, _fit_lognormal),
    "Exponential": _Family(1, _fit_exponential),
    "Gamma": _Family(2, _fit_gamma),
    "Logistic": _Family(2, _fit_logistic),
    "GeneralizedPareto": _Family(3, _fit_genpareto),
    "Rayleigh": _Family(1, _fit_rayleigh),
}

#: what a fitter raises when its family does not fit the data
_EXCLUDING = (ValueError, ArithmeticError, np.linalg.LinAlgError, VoipQosError)


def default_candidates() -> tuple[str, ...]:
    """The names of the ten candidate families."""
    return tuple(_FITTERS)


def check_families(names: Iterable[str]) -> tuple[str, ...]:
    """``names`` as a tuple; DomainError if a family is unknown or named
    twice."""
    names = tuple(names)
    unknown = set(names) - _FITTERS.keys()
    if unknown:
        raise DomainError(
            f"unknown families {sorted(unknown)}; choose from {sorted(_FITTERS)}"
        )
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise DomainError(f"families named more than once: {repeated}")
    return names


class Ranking(list):
    """:class:`FamilyFit` entries in ranking order.

    ``excluded`` maps each family left out to the error that excluded it.
    """

    def __init__(self, fits=(), excluded: dict | None = None):
        super().__init__(fits)
        self.excluded = dict(excluded or {})


def select_model(data, families: Iterable[str] | None = None,
                 gev=None) -> Ranking:
    """Rank the named families (default: all ten) on ``data`` by BIC.

    ``gev`` is the outcome of fitting GEV to ``data``, as
    :func:`fit_gev_batch` returns it: a :class:`GevFit`, or the error,
    which excludes GEV (a NotConverged carries its fit). Without it,
    :func:`fit_gev_mle` fits GEV here. The GEV entry takes the fit's own
    ``loglik``, so its ``loglik`` and ``bic`` equal the fit's; every other
    entry takes the maximum its own fit reached. Ties break toward fewer
    parameters, then lexicographic family name. An empty family list
    yields an empty ranking. Data with a non-finite value raise
    DomainError.
    """
    families = check_families(_FITTERS if families is None else families)
    z = np.asarray(data, dtype=float).ravel()
    if z.size < MIN_FIT_POINTS:
        raise TooFewPoints(
            f"model selection needs at least {MIN_FIT_POINTS} points, got {z.size}"
        )
    if not np.all(np.isfinite(z)):
        raise DomainError("data contain non-finite values")
    n = int(z.size)
    fits: list[FamilyFit] = []
    excluded: dict = {}
    for name in families:
        family = _FITTERS[name]
        try:
            with np.errstate(all="ignore"):
                if name == "GEV":  # a GevFit carries its own loglik
                    outcome = fit_gev_mle(z) if gev is None else gev
                    params = _gev_params(outcome)
                    loglik = outcome.loglik
                else:
                    params, loglik = family.fit(z)
            if not math.isfinite(loglik):
                raise ValueError("non-finite log-likelihood")
        except _EXCLUDING as exc:
            log.debug("excluding %s: %s", name, exc)
            excluded[name] = exc
            continue
        fits.append(
            FamilyFit(
                family=name,
                k=family.k,
                params=params,
                loglik=loglik,
                bic=family.k * math.log(n) - 2.0 * loglik,
                n=n,
            )
        )
    fits.sort(key=lambda f: (f.bic, f.k, f.family))
    return Ranking(fits, excluded)
