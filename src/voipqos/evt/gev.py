"""Generalized extreme value distribution: CDF, density, quantile, sampling.

The shape convention is the one in which ``xi > 0`` gives a heavy
(Frechet-type) upper tail, ``xi < 0`` a bounded (Weibull-type) upper
tail, and ``xi = 0`` the Gumbel limit.  Every evaluator accepts a scalar
or a numpy array for the data argument and returns a matching shape.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import DomainError, EmptyData

#: Shapes with |xi| below this are named Gumbel, and the CDF, quantile
#: and sampler evaluate them on the Gumbel limit; the densities and the
#: log-likelihood take the Gumbel form only at ``xi == 0``.
XI_EPS = 1e-6


@dataclass(frozen=True)
class GevParams:
    """Shape ``xi``, scale ``sigma`` (> 0), and location ``mu``."""

    xi: float
    sigma: float
    mu: float

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise DomainError(
                f"sigma must be a positive finite real, got {self.sigma}"
            )
        if not math.isfinite(self.xi) or not math.isfinite(self.mu):
            raise DomainError("xi and mu must be finite reals")

    def support(self) -> tuple[float, float]:
        """Closed support interval; one side is always infinite."""
        if self.xi == 0.0:
            return (-math.inf, math.inf)
        endpoint = self.mu - self.sigma / self.xi
        if self.xi > 0:
            return (endpoint, math.inf)
        return (-math.inf, endpoint)


class TailKind(str, enum.Enum):
    WEIBULL = "weibull"
    GUMBEL = "gumbel"
    FRECHET = "frechet"


class FitRegime(str, enum.Enum):
    """Reliability band of maximum-likelihood asymptotics by shape.

    Estimation keeps its standard asymptotic properties for
    ``xi > -0.5``; below that maximization is still attainable down to
    ``xi > -1`` but the usual standard errors no longer apply; at
    ``xi <= -1`` likelihood maximization itself is unreliable.
    """

    STANDARD = "standard"
    ATTAINABLE = "attainable"
    UNRELIABLE = "unreliable"


class TailClass(NamedTuple):
    tail: TailKind
    regime: FitRegime


def classify(p: GevParams) -> TailClass:
    """Tail family by the sign of the shape, plus the estimation regime."""
    if abs(p.xi) < XI_EPS:
        tail = TailKind.GUMBEL
    elif p.xi > 0:
        tail = TailKind.FRECHET
    else:
        tail = TailKind.WEIBULL
    if p.xi > -0.5:
        regime = FitRegime.STANDARD
    elif p.xi > -1.0:
        regime = FitRegime.ATTAINABLE
    else:
        regime = FitRegime.UNRELIABLE
    return TailClass(tail, regime)


def _standardize(p: GevParams, x) -> np.ndarray:
    return (np.asarray(x, dtype=float) - p.mu) / p.sigma


def _scalar_or_array(x, out: np.ndarray):
    if np.ndim(x) == 0:
        return float(out)
    return out


def _omega(xi, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``om = log1p(xi w) / xi`` and the on-support mask ``1 + xi w > 0``,
    with one shape ``xi`` or one shape per point of ``w``.

    ``log1p`` keeps full precision as ``xi`` approaches 0, so ``om`` is
    smooth in ``xi``; only ``xi == 0`` itself takes the Gumbel form
    ``om = w``, which has no endpoint. Off-support entries of ``om`` are 0.
    The CDF is ``exp(-exp(-om))`` and the log density
    ``-(1 + xi) om - exp(-om) - log(sigma)``. A scalar ``xi == 0``
    returns before dividing, so it raises no 0/0 warning.
    """
    if np.ndim(xi) == 0 and xi == 0.0:
        return w, np.ones(w.shape, dtype=bool)
    xw = xi * w
    on = xw > -1.0
    om = np.log1p(np.where(on, xw, 0.0))
    om /= xi
    if np.ndim(xi):
        np.copyto(om, w, where=xi == 0.0)
    return om, on


def gev_cdf(p: GevParams, x):
    """Distribution function.

    Off-support points return the limit value for their side: 0 below a
    Frechet-type lower endpoint, 1 above a Weibull-type upper endpoint.
    Shapes with ``|xi| <`` :data:`XI_EPS` evaluate the Gumbel limit, as
    :func:`gev_quantile` does, so quantiles round-trip there.
    """
    xi = 0.0 if abs(p.xi) < XI_EPS else p.xi
    om, on = _omega(xi, _standardize(p, x))
    with np.errstate(over="ignore", under="ignore"):
        out = np.where(on, np.exp(-np.exp(-om)), 1.0 if xi < 0 else 0.0)
    return _scalar_or_array(x, out)


def gev_logpdf(p: GevParams, x):
    """Log density; -inf off support."""
    om, on = _omega(p.xi, _standardize(p, x))
    with np.errstate(over="ignore", under="ignore"):
        out = np.where(
            on, -(1.0 + p.xi) * om - np.exp(-om) - math.log(p.sigma), -np.inf
        )
    return _scalar_or_array(x, out)


def gev_pdf(p: GevParams, x):
    """Probability density; 0 at and beyond the finite support endpoint."""
    with np.errstate(under="ignore"):
        out = np.exp(gev_logpdf(p, x))
    return _scalar_or_array(x, out)


def gev_quantile(p: GevParams, u):
    """Inverse of :func:`gev_cdf` for probabilities strictly inside (0, 1)."""
    ua = np.asarray(u, dtype=float)
    if np.any(~np.isfinite(ua)) or np.any(ua <= 0.0) or np.any(ua >= 1.0):
        raise DomainError(f"quantile probability must lie strictly in (0, 1), got {u!r}")
    t = -np.log(ua)
    if abs(p.xi) < XI_EPS:
        out = p.mu - p.sigma * np.log(t)
    else:
        out = p.mu + p.sigma * (t ** (-p.xi) - 1.0) / p.xi
    return _scalar_or_array(u, out)


def gev_sample(p: GevParams, n: int, seed: int) -> np.ndarray:
    """``n`` inverse-transform draws; identical output for identical seed."""
    if n < 0:
        raise DomainError(f"sample size must be >= 0, got {n}")
    if n == 0:
        return np.empty(0, dtype=float)
    rng = np.random.default_rng(seed)
    # random() yields [0, 1); clip away an exact 0 so the quantile is finite
    u = np.clip(rng.random(n), 2.0 ** -53, None)
    return np.asarray(gev_quantile(p, u), dtype=float)


def _loglik_kernel(xi: float, sigma: float, mu: float, z: np.ndarray) -> float:
    """Log-likelihood on raw parameters; the hot path of the fitter.

    Built on :func:`_omega`, so it is smooth in ``xi`` with no switch at
    :data:`XI_EPS` and equals the sum of :func:`gev_logpdf`.
    """
    xi, sigma, mu = float(xi), float(sigma), float(mu)
    om, on = _omega(xi, (z - mu) / sigma)
    if not on.all():
        return -math.inf
    with np.errstate(over="ignore", under="ignore"):
        val = -z.size * math.log(sigma) - (1.0 + xi) * float(np.sum(om)) - float(
            np.sum(np.exp(-om))
        )
    return val if math.isfinite(val) else -math.inf


def gev_loglik(p: GevParams, data) -> float:
    """Log-likelihood of ``data``; -inf when any point is off support.

    Equals the sum of ``log pdf`` over the points, written in the
    standard form ``-n log(sigma) - (1 + xi) sum(w_i) - sum(exp(-w_i))``
    with ``w_i = log(1 + xi (z_i - mu) / sigma) / xi`` (at ``xi = 0``,
    ``w_i = (z_i - mu) / sigma``).
    """
    z = np.asarray(data, dtype=float)
    if z.size == 0:
        raise EmptyData("log-likelihood needs at least one data point")
    return _loglik_kernel(p.xi, p.sigma, p.mu, z)
