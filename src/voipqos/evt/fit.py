"""Maximum-likelihood fitting by safeguarded Newton-Raphson.

:func:`maximize` is the Newton engine of every single fit, here and in
:mod:`.select`: each hands it an objective and its analytic gradient
and Hessian. Steps are damped by halving until the objective does not
decrease, so the iterate sequence is monotone. When the negated Hessian
is not positive-definite the step falls back to a ridge-shifted solve
whose large-shift limit is steepest ascent, with a doubling line search
so off-scale starts can still travel.

:func:`_newton_batch` takes the damped Newton steps of many objectives
at once, and :func:`fit_gev_batch` runs it on many small GEV samples
laid end to end, a bounded number of values per run: each sample's
log-likelihood, gradient and Hessian are ``np.add.reduceat`` sums over
its own segment, which do not depend on the other samples or on BLAS.
An objective that needs any other step leaves the batch, and its sample
is fitted by :func:`maximize` alone.

The GEV likelihood is maximized over theta = (xi, sigma, mu) with the
analytic derivatives of Prescott & Walden (1980) and Hosking (1985,
AS 215). The support constraint ``1 + xi (z_i - mu) / sigma > 0`` holds
at every iterate because off-support points have likelihood ``-inf``.
Near ``xi = 0`` the xi-derivatives use a power series in ``xi w``, so
they are continuous through the Gumbel limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import (
    DegenerateData,
    DomainError,
    EmptyData,
    NotConverged,
    TooFewPoints,
    VoipQosError,
)
from .gev import (
    XI_EPS,
    FitRegime,
    GevParams,
    TailKind,
    _loglik_kernel,
    classify,
    gev_cdf,
)

#: Fitting refuses fewer points than this as statistically meaningless.
MIN_FIT_POINTS = 20

_MAX_HALVINGS = 30
#: Newton stops once every step component is below this, relative to
#: ``max(1, |theta_i|)``
_STEP_TOL = 1e-8
_RESOLUTION = 16.0 * np.finfo(float).eps
_EULER_GAMMA = 0.5772  # Gumbel moment initializer constant
_LN2, _LN3 = math.log(2.0), math.log(3.0)

# Standard Gumbel quantiles used by the robust fallback initializer.
_GUMBEL_IQR = 1.5725263099630333  # Q(0.75) - Q(0.25)
_GUMBEL_MEDIAN = 0.36651292058166435  # Q(0.5) = -ln ln 2


@dataclass(frozen=True)
class GevFit:
    """Result of a maximum-likelihood GEV fit."""

    params: GevParams
    loglik: float
    bic: float
    e_max: float
    tail: TailKind
    regime: FitRegime
    iterations: int
    converged: bool
    n: int

    def notes(self) -> list[str]:
        """Human-readable caveats about the fitted shape."""
        out = []
        if self.params.xi >= 1.0:
            out.append(
                "shape >= 1: fitted distribution has no finite mean "
                "(extremely heavy tail)"
            )
        if self.regime is FitRegime.ATTAINABLE:
            out.append("shape <= -0.5: standard asymptotic errors do not apply")
        elif self.regime is FitRegime.UNRELIABLE:
            out.append("shape <= -1: maximum-likelihood estimation unreliable")
        if not self.converged:
            out.append(
                "no maximum: the likelihood is unbounded at shape <= -1"
                if self.params.xi <= -1.0
                else "iteration budget exhausted before the step tolerance"
            )
        return out

    def to_json_dict(self) -> dict:
        return {
            "xi": self.params.xi,
            "sigma": self.params.sigma,
            "mu": self.params.mu,
            "e_max": self.e_max,
            "bic": self.bic,
            "tail": self.tail.value,
            "regime": self.regime.value,
            "loglik": self.loglik,
            "n": self.n,
            "iterations": self.iterations,
            "converged": self.converged,
            "notes": self.notes(),
        }


def ks_distance(data, cdf: Callable) -> float:
    """Kolmogorov-Smirnov distance between ``data`` and a model CDF.

    Evaluates the supremum gap at both sides of every empirical step:
    max over sorted z_i of max(|i/n - D(z_i)|, |(i-1)/n - D(z_i)|).
    """
    return _ks_sorted(np.sort(np.asarray(data, dtype=float)), cdf)


def _ks_sorted(z: np.ndarray, cdf: Callable) -> float:
    """:func:`ks_distance` of data already sorted ascending."""
    n = z.size
    if n == 0:
        raise EmptyData("KS distance needs at least one data point")
    d = np.asarray(cdf(z), dtype=float)
    if d.shape != z.shape:
        raise DomainError(
            f"cdf must return one value per point: {d.shape} for {z.shape}"
        )
    hi = np.arange(1, n + 1, dtype=float) / n
    lo = np.arange(0, n, dtype=float) / n
    return float(np.max(np.maximum(np.abs(hi - d), np.abs(lo - d))))


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of ``a * b`` over two 1-D arrays, whatever the BLAS thread count.

    ``a @ b`` calls BLAS ddot, which splits a long sum across its
    threads, so its last digits follow ``OPENBLAS_NUM_THREADS``;
    ``einsum`` sums in one fixed order.
    """
    return float(np.einsum("i,i->", a, b))


def _moment_init(z: np.ndarray) -> np.ndarray:
    s = float(np.std(z, ddof=1))
    sigma0 = s * math.sqrt(6.0) / math.pi
    return np.array([0.1, sigma0, float(np.mean(z)) - _EULER_GAMMA * sigma0])


def _quantile_init(z: np.ndarray) -> np.ndarray:
    # Gumbel quantile matching on median/IQR; immune to wild tail values.
    q25, med, q75 = np.quantile(z, [0.25, 0.5, 0.75])
    sigma0 = max((q75 - q25) / _GUMBEL_IQR, 1e-12)
    return np.array([0.1, sigma0, med - _GUMBEL_MEDIAN * sigma0])


def _pwm_init(z: np.ndarray) -> np.ndarray | None:
    """Probability-weighted-moment estimate from data sorted ascending.

    Hosking, Wallis & Wood (1985): from b0, b1, b2, the shape
    k = -xi ~ 7.8590 c + 2.9554 c^2 with c = (2 b1 - b0) / (3 b2 - b0)
    - ln 2 / ln 3, then scale and location in closed form. ``None`` when
    the estimate is unusable: sums that cancel to a non-positive L-scale,
    k outside (-0.99, 10) (an L-skewness in (-1, 1) keeps k within
    (-0.98, 3.3), so this catches overflowed sums), the Gumbel point
    k = 0 where the closed form is 0/0, a non-finite or non-positive
    scale, or a support that misses the smallest or the largest point
    (widening the scale to cover it would discard the estimate's shape
    information).
    """
    n = z.size
    j = np.arange(n, dtype=float)
    b0 = float(np.mean(z))
    b1 = dot(j, z) / (n * (n - 1.0))
    b2 = dot(j * (j - 1.0), z) / (n * (n - 1.0) * (n - 2.0))
    # L-scale and (l3 + 3 l2) / 2: positive, unless the sums cancel
    l2, den = 2.0 * b1 - b0, 3.0 * b2 - b0
    if not (l2 > 0.0 and den > 0.0):
        return None
    c = l2 / den - _LN2 / _LN3
    k = 7.8590 * c + 2.9554 * c * c
    if not (-0.99 < k < 10.0) or k == 0.0:
        return None
    g = math.gamma(1.0 + k)
    sigma = l2 * k / (g * -math.expm1(-k * _LN2))
    mu = b0 + sigma * (g - 1.0) / k
    if not (sigma > 0.0 and math.isfinite(sigma) and math.isfinite(mu)):
        return None
    if not np.all(1.0 - k * (z[[0, -1]] - mu) / sigma > 0.0):
        return None
    return np.array([-k, sigma, mu])


# |xi w| below this takes the power series for the xi-derivatives of
# log1p(xi w) / xi, whose closed forms cancel there; the closed forms
# lose ~3 eps / (xi w)^2 relative at the cut, the 12-term series ~1e-20.
_SERIES_CUT = 0.02
_SERIES_TERMS = 12
_J = np.arange(_SERIES_TERMS, dtype=float)
# d/dxi and d2/dxi2 of log1p(x)/xi = w sum_k (-x)^k / (k + 1), x = xi w,
# divided by w^2 and w^3: coefficients of x^j, highest power first
_OM1_COEF = ((-1.0) ** (_J + 1) * (_J + 1) / (_J + 2))[::-1].copy()
_OM2_COEF = ((-1.0) ** _J * (_J + 1) * (_J + 2) / (_J + 3))[::-1].copy()


def omega_derivs(xi, w: np.ndarray):
    """``1 + xi w``, ``om = log1p(xi w) / xi`` and its first two xi-derivatives.

    ``xi`` is one shape, or one shape per point of ``w``. Every output is
    continuous through ``xi = 0``, where ``om = w``. The outputs are new
    arrays, which callers may overwrite.
    """
    x = w * xi
    a = x + 1.0
    per_point = np.ndim(xi) > 0
    if not per_point and xi == 0.0:
        return a, w.copy(), -0.5 * w * w, (2.0 / 3.0) * w ** 3
    small = np.abs(x) < _SERIES_CUT
    xs = x[small]
    om = np.log1p(x, out=x)
    om /= xi
    if per_point:
        # 0 / 0 at xi = 0; the series below gives om1 and om2 there
        np.copyto(om, w, where=xi == 0.0)
    r = w / a
    om1 = r - om  # (w / a - om) / xi
    om1 /= xi
    om2 = om1 + om1  # -(w^2 / a^2 + 2 om1) / xi
    r *= r
    om2 += r
    om2 /= -xi
    if xs.size:
        # both series by Horner's rule, in place on the subset
        p1 = np.full_like(xs, _OM1_COEF[0])
        p2 = np.full_like(xs, _OM2_COEF[0])
        for c1, c2 in zip(_OM1_COEF[1:], _OM2_COEF[1:]):
            p1 *= xs
            p1 += c1
            p2 *= xs
            p2 += c2
        ws = w[small]
        p1 *= ws
        p1 *= ws
        om1[small] = p1
        p2 *= ws
        p2 *= ws
        p2 *= ws
        om2[small] = p2
    return a, om, om1, om2


def _loc_scale_chain(n, scale, s1, s2, yd1, yd2, yyd2):
    """Gradient ``(g_loc, g_scale)`` and Hessian ``(h_ll, h_ls, h_ss)`` in
    (loc, scale) from the sums of ``d1``, ``d2``, ``y d1``, ``y d2`` and
    ``y^2 d2``; elementwise over arrays of sums."""
    scale2 = scale * scale
    return (-s1 / scale, -(n + yd1) / scale,
            s2 / scale2, (s1 + yd2) / scale2, (n + 2.0 * yd1 + yyd2) / scale2)


def loc_scale_derivs(n: int, scale: float, y: np.ndarray, d1, d2):
    """Gradient and Hessian in (loc, scale) of ``sum h(y_i) - n log(scale)``.

    ``y = (z - loc) / scale``; ``d1`` and ``d2`` are ``h'`` and ``h''`` at
    ``y``. Every location-scale likelihood in the package shares this
    chain rule.
    """
    g_loc, g_scale, h_ll, h_ls, h_ss = _loc_scale_chain(
        n, scale, float(np.sum(d1)), float(np.sum(d2)),
        dot(y, d1), dot(y, d2), dot(y * y, d2))
    return np.array([g_loc, g_scale]), np.array([[h_ll, h_ls], [h_ls, h_ss]])


class _Segments:
    """Samples laid end to end: sample ``r`` is
    ``z[offsets[r]:offsets[r] + counts[r]]``."""

    def __init__(self, z: np.ndarray, counts):
        self.z = z
        self.counts = np.asarray(counts, dtype=np.intp)
        self.offsets = np.cumsum(self.counts) - self.counts
        self._subsets: dict = {}

    def per_point(self, v: np.ndarray) -> np.ndarray:
        """Each sample's entry of ``v``, once per point of the sample."""
        return np.repeat(v, self.counts)

    def sum(self, terms: np.ndarray) -> np.ndarray:
        """Per-sample sums along the last axis of ``terms``.

        Each sum reads only its own segment, so it does not depend on the
        other samples, and no sum goes through BLAS.
        """
        return np.add.reduceat(terms, self.offsets, axis=-1)

    def take(self, rows: np.ndarray) -> "_Segments":
        """The samples ``rows`` (ascending indices), laid end to end."""
        if rows.size == self.counts.size:
            return self
        key = rows.tobytes()
        sub = self._subsets.get(key)
        if sub is None:
            if len(self._subsets) >= 4:
                del self._subsets[next(iter(self._subsets))]
            keep = np.zeros(self.counts.size, dtype=bool)
            keep[rows] = True
            sub = _Segments(self.z[self.per_point(keep)], self.counts[rows])
            self._subsets[key] = sub
        return sub


def _omega_points(xi: np.ndarray, w: np.ndarray):
    """``om = log1p(xi w) / xi`` and the on-support mask, per point.

    The arithmetic of ``gev._omega`` with one shape per point: ``om = w``
    where ``xi = 0``, and ``om`` is 0 off the support.
    """
    xw = xi * w
    on = xw > -1.0
    om = np.log1p(np.where(on, xw, 0.0))
    om /= xi
    np.copyto(om, w, where=xi == 0.0)
    return om, on


def _gev_loglik(theta: np.ndarray, seg: _Segments) -> np.ndarray:
    """Each sample's GEV log-likelihood at its row of ``theta``.

    Per point the arithmetic of ``gev._loglik_kernel``; ``-inf`` where
    ``sigma <= 0``, a parameter is not finite, a point is off the support
    or the sum is not finite.
    """
    xi, sigma, mu = theta.T
    with np.errstate(all="ignore"):
        w = seg.z - seg.per_point(mu)
        w /= seg.per_point(sigma)
        om, on = _omega_points(seg.per_point(xi), w)
        val = (-seg.counts * np.log(sigma) - (1.0 + xi) * seg.sum(om)
               - seg.sum(np.exp(-om)))
    ok = ((sigma > 0.0) & np.isfinite(theta).all(axis=1) & np.isfinite(val)
          & np.logical_and.reduceat(on, seg.offsets))
    return np.where(ok, val, -np.inf)


def _gev_derivs_segments(theta: np.ndarray, seg: _Segments):
    """Analytic gradients ``(k, 3)`` and Hessians ``(k, 3, 3)`` of each
    sample's GEV log-likelihood at its row of ``theta``.

    With ``w = (z - mu) / sigma`` and ``om`` as in :func:`omega_derivs`,
    each point contributes ``g = -(1 + xi) om - exp(-om)`` plus the
    ``-log sigma`` term (Prescott & Walden 1980; Hosking 1985, AS 215).
    The per-point derivatives are only ever summed, so the twelve
    per-point terms go into one array and are summed per sample by one
    ``reduceat``; the other arrays are reused in place.
    """
    xi = seg.per_point(theta[:, 0])
    w = seg.z - seg.per_point(theta[:, 2])
    w /= seg.per_point(theta[:, 1])
    terms = np.empty((12, w.size))
    with np.errstate(all="ignore"):
        a, om, om1, om2 = omega_derivs(xi, w)
        terms[0] = om
        terms[2] = om1
        t = np.negative(om, out=om)
        np.exp(t, out=t)
        u = t - 1.0  # dg/dom
        u -= xi
        ia = np.reciprocal(a, out=a)
        d1 = np.multiply(u, ia, out=terms[5])  # dg/dw
        d2 = np.subtract(xi, t, out=terms[6])  # d2g/dw2 = (1 + xi) (xi - t) / a^2
        d2 *= 1.0 + xi
        d2 *= ia
        d2 *= ia
        # dg/dxi = -om + u om1, d2g/dxi2 = -2 om1 - t om1^2 + u om2
        np.multiply(u, om1, out=terms[1])
        tom1 = np.multiply(t, om1, out=t)
        np.multiply(tom1, om1, out=terms[3])
        np.multiply(u, om2, out=terms[4])
        np.multiply(w, d1, out=terms[7])
        np.multiply(w, d2, out=terms[8])
        np.multiply(w, w, out=terms[9])
        terms[9] *= d2
        # minus d2g/dxi dw = (t om1 + 1 + u w / a) / a
        neg_g_xw = np.add(tom1, 1.0, out=terms[10])
        neg_g_xw += terms[7]
        neg_g_xw *= ia
        np.multiply(w, neg_g_xw, out=terms[11])
        s = seg.sum(terms)
        sigma = theta[:, 1]
        g_mu, g_sigma, h_mumu, h_musigma, h_sigmasigma = _loc_scale_chain(
            seg.counts, sigma, *s[5:10])
    grad = np.empty((len(theta), 3))
    grad[:, 0] = s[1] - s[0]
    grad[:, 1] = g_sigma
    grad[:, 2] = g_mu
    hess = np.empty((len(theta), 3, 3))
    hess[:, 0, 0] = -2.0 * s[2] - s[3] + s[4]
    hess[:, 0, 1] = hess[:, 1, 0] = s[11] / sigma
    hess[:, 0, 2] = hess[:, 2, 0] = s[10] / sigma
    hess[:, 1, 1] = h_sigmasigma
    hess[:, 2, 2] = h_mumu
    hess[:, 1, 2] = hess[:, 2, 1] = h_musigma
    return grad, hess


def _gev_derivs(theta: np.ndarray, z: np.ndarray):
    """Analytic gradient and Hessian of the GEV log-likelihood of one sample.

    The scalar path's kernel: the sums of :func:`_gev_derivs_segments`,
    taken by ``np.sum`` and :func:`dot`.
    """
    xi, sigma, mu = (float(v) for v in theta)
    w = z - mu
    w /= sigma
    with np.errstate(over="ignore", under="ignore", divide="ignore",
                     invalid="ignore"):
        a, om, om1, om2 = omega_derivs(xi, w)
        sum_om = float(np.sum(om))
        t = np.negative(om, out=om)
        np.exp(t, out=t)
        u = t - 1.0  # dg/dom
        u -= xi
        ia = np.reciprocal(a, out=a)
        d1 = u * ia  # dg/dw
        d2 = np.subtract(xi, t)  # d2g/dw2 = (1 + xi) (xi - t) / a^2
        d2 *= 1.0 + xi
        d2 *= ia
        d2 *= ia
        g_x = dot(u, om1) - sum_om  # sum of dg/dxi = -om + u om1
        # sum of d2g/dxi2 = -2 om1 - t om1^2 + u om2
        tom1 = t * om1
        g_xx = -2.0 * float(np.sum(om1)) - dot(tom1, om1) + dot(u, om2)
        # minus d2g/dxi dw = (t om1 + 1 + u w / a) / a
        neg_g_xw = tom1
        neg_g_xw += 1.0
        neg_g_xw += np.multiply(w, d1, out=t)
        neg_g_xw *= ia
        g_ls, h_ls = loc_scale_derivs(z.size, sigma, w, d1, d2)
        cross = np.array([float(np.sum(neg_g_xw)), dot(w, neg_g_xw)]) / sigma
    grad = np.array([g_x, g_ls[1], g_ls[0]])
    hess = np.empty((3, 3))
    hess[0, 0] = g_xx
    hess[0, 1] = hess[1, 0] = cross[1]
    hess[0, 2] = hess[2, 0] = cross[0]
    hess[1, 1] = h_ls[1, 1]
    hess[2, 2] = h_ls[0, 0]
    hess[1, 2] = hess[2, 1] = h_ls[0, 1]
    return grad, hess


def _ks_gev(theta: np.ndarray, seg: _Segments) -> np.ndarray:
    """Each sorted sample's KS distance to the GEV at its row of ``theta``.

    Per point the arithmetic of :func:`_ks_sorted` with ``gev_cdf``, so
    the distances equal theirs: shapes with ``|xi| <`` :data:`XI_EPS`
    evaluate the Gumbel limit, and off-support points take their side's
    limit.
    """
    xi = seg.per_point(np.where(np.abs(theta[:, 0]) < XI_EPS, 0.0, theta[:, 0]))
    with np.errstate(all="ignore"):
        w = seg.z - seg.per_point(theta[:, 2])
        w /= seg.per_point(theta[:, 1])
        om, on = _omega_points(xi, w)
        d = np.where(on, np.exp(-np.exp(-om)), np.where(xi < 0.0, 1.0, 0.0))
    lo = np.arange(seg.z.size, dtype=float) - seg.per_point(seg.offsets)
    n = seg.per_point(seg.counts.astype(float))
    hi = lo + 1.0
    hi /= n
    lo /= n
    gap = np.maximum(np.abs(hi - d), np.abs(lo - d))
    return np.maximum.reduceat(gap, seg.offsets)


def _is_positive_definite(a: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(a)
        return True
    except np.linalg.LinAlgError:
        return False


def _backtrack(f, theta, ll, direction):
    """Halve along ``direction`` until the log-likelihood does not decrease."""
    scale = 1.0
    for _ in range(_MAX_HALVINGS):
        cand = theta + scale * direction
        llc = f(cand)
        if math.isfinite(llc) and llc >= ll:
            return cand, llc, scale
        scale *= 0.5
    return None, ll, 0.0


def _expand(f, theta, direction, best, best_ll, limit):
    """Greedy doubling along ``direction`` past the unit step."""
    k = 2.0
    while k <= limit:
        cand = theta + k * direction
        llc = f(cand)
        if math.isfinite(llc) and llc > best_ll:
            best, best_ll = cand, llc
            k *= 2.0
        else:
            break
    return best, best_ll


def maximize(f, derivs, theta, max_iter: int = 200, start_derivs=None):
    """Safeguarded Newton ascent on ``f`` from a point where it is finite.

    ``f(theta)`` is the objective (``-inf`` outside its domain) and
    ``derivs(theta)`` its gradient and Hessian; ``start_derivs``, when
    given, is ``derivs(theta)`` at the start, already computed. Each
    step is damped by halving until ``f`` does not decrease, so the
    iterates are monotone.
    When the negated Hessian is not positive-definite the step is a
    ridge-shifted solve, whose large-shift limit is steepest ascent, with
    a doubling line search so off-scale starts can still travel.
    Convergence is declared when every step component is below
    :data:`_STEP_TOL` relative to ``max(1, |theta_i|)``, when twice the
    gain a Newton step predicts is below the resolution of ``f``
    (``_RESOLUTION`` relative), or when no step along either direction
    improves ``f`` at any scale down to ``2^-30``.

    Returns ``(theta, f(theta), iterations, converged)``. Unless
    ``start_derivs`` is given, the last call of ``derivs`` is at the
    returned ``theta``, and its result is not modified.
    """
    theta = np.asarray(theta, dtype=float)
    ll = f(theta)
    g, hess = derivs(theta) if start_derivs is None else start_derivs
    eye = np.eye(theta.size)
    for it in range(1, max_iter + 1):
        g = np.where(np.isfinite(g), g, 0.0)
        usable_hess = bool(np.all(np.isfinite(hess)))
        neg_hess = -hess if usable_hess else eye
        newton = usable_hess and _is_positive_definite(neg_hess)
        if newton:
            step = np.linalg.solve(neg_hess, g)
        else:
            try:
                ev = np.linalg.eigvalsh(neg_hess)
                lam = abs(ev[0]) * 1.5 + 1e-6 * max(1.0, abs(ev[-1]))
                step = np.linalg.solve(neg_hess + lam * eye, g)
            except np.linalg.LinAlgError:
                step = g
        if np.max(np.abs(step) / np.maximum(np.abs(theta), 1.0)) < _STEP_TOL:
            return theta, ll, it, True
        if newton and float(g @ step) <= _RESOLUTION * max(1.0, abs(ll)):
            # the predicted gain is below what f can resolve, so no line
            # search could confirm the step
            return theta, ll, it, True
        cand, llc, scale = _backtrack(f, theta, ll, step)
        if cand is not None and not newton and scale == 1.0:
            cand, llc = _expand(f, theta, step, cand, llc, 2.0 ** 20)
        if cand is None:
            # Newton direction failed outright; try scaled ascent
            d = g * np.maximum(np.abs(theta), 1.0)
            norm = float(np.linalg.norm(d))
            if norm == 0.0:
                return theta, ll, it, True  # exactly stationary gradient
            d = d / norm * np.maximum(np.abs(theta), 1.0) * 1e-3
            cand, llc, scale = _backtrack(f, theta, ll, d)
            if cand is not None and scale == 1.0:
                cand, llc = _expand(f, theta, d, cand, llc, 2.0 ** 30)
            if cand is None:
                # the objective is resolved to its floating-point plateau
                return theta, ll, it, True
        theta, ll = cand, llc
        g, hess = derivs(theta)
    return theta, ll, max_iter, False


def _positive_definite(a: np.ndarray) -> np.ndarray:
    """:func:`_is_positive_definite` of each matrix of the stack ``a``."""
    try:
        np.linalg.cholesky(a)  # raises if any matrix is not
        return np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        return np.array([_is_positive_definite(m) for m in a], dtype=bool)


def _halve(f, theta, ll, rows, direction):
    """:func:`_backtrack` of each row at once: halve its step until its
    objective does not decrease.

    Returns ``(cand, llc, scale)`` per row; ``scale`` is 0 where no scale
    down to ``2^-29`` works.
    """
    cand, llc, scale = theta.copy(), ll.copy(), np.zeros(len(rows))
    pending = np.arange(len(rows))
    s = 1.0
    for _ in range(_MAX_HALVINGS):
        if not pending.size:
            break
        trial = theta[pending] + s * direction[pending]
        lt = f(trial, rows[pending])
        ok = np.isfinite(lt) & (lt >= ll[pending])
        hit = pending[ok]
        cand[hit], llc[hit], scale[hit] = trial[ok], lt[ok], s
        pending = pending[~ok]
        s *= 0.5
    return cand, llc, scale


def _newton_batch(f, derivs, theta, max_iter: int = 200, start_derivs=None):
    """Damped Newton ascent of ``S`` objectives at once.

    ``theta`` is an ``(S, p)`` array of starts, each where its objective
    is finite. For ascending objective indices ``rows`` and their points
    ``th`` (one row each), ``f(th, rows)`` gives the objectives (``-inf``
    outside their domain) and ``derivs(th, rows)`` their gradients
    ``(k, p)`` and Hessians ``(k, p, p)``; ``start_derivs``, when given,
    is ``derivs`` at every start, already computed.

    Each objective takes the steps :func:`maximize` takes while its
    negated Hessian is positive-definite and a halving of the Newton step
    does not lower it, and stops by the same rules. Otherwise it leaves
    the batch where it stands, with 0 iterations, and the caller fits it
    by :func:`maximize`; a converged objective leaves it too.

    Returns ``(theta, f(theta), iterations, converged)``, one row or
    entry per objective.
    """
    theta = np.array(theta, dtype=float)
    rows = np.arange(len(theta))
    ll = f(theta, rows)
    g, hess = derivs(theta, rows) if start_derivs is None else start_derivs
    iterations = np.full(len(theta), max_iter)
    converged = np.zeros(len(theta), dtype=bool)
    for it in range(1, max_iter + 1):
        at, ll_at = theta[rows], ll[rows]
        g = np.where(np.isfinite(g), g, 0.0)
        neg_hess = -hess
        newton = np.isfinite(hess).all(axis=(1, 2))
        newton[newton] = _positive_definite(neg_hess[newton])
        step = np.zeros_like(g)
        step[newton] = np.linalg.solve(neg_hess[newton],
                                       g[newton, :, None])[..., 0]
        # the step tolerance, or a predicted gain below what f resolves
        stop = newton & (
            (np.max(np.abs(step) / np.maximum(np.abs(at), 1.0), axis=1)
             < _STEP_TOL)
            | (np.vecdot(g, step) <= _RESOLUTION * np.maximum(1.0, np.abs(ll_at))))
        go = np.flatnonzero(newton & ~stop)
        cand, llc, scale = _halve(f, at[go], ll_at[go], rows[go], step[go])
        iterations[rows[stop]] = it
        converged[rows[stop]] = True
        iterations[rows[~newton]] = 0
        iterations[rows[go[scale == 0.0]]] = 0
        moved = scale > 0.0
        rows = rows[go[moved]]
        theta[rows], ll[rows] = cand[moved], llc[moved]
        if not rows.size:
            break
        g, hess = derivs(theta[rows], rows)
    return theta, ll, iterations, converged


def _sorted_sample(data) -> np.ndarray:
    z = np.sort(np.asarray(data, dtype=float).ravel())
    if z.size < MIN_FIT_POINTS:
        raise TooFewPoints(
            f"GEV fit needs at least {MIN_FIT_POINTS} points, got {z.size}"
        )
    if not np.all(np.isfinite(z)):
        raise DomainError("data contain non-finite values")
    if float(np.ptp(z)) == 0.0:
        raise DegenerateData("all data points are identical; scale is not estimable")
    return z


def _gev_outcome(theta, ll, iterations, converged, n, e_max, max_iter):
    """The fit at ``theta``, or the :class:`NotConverged` carrying it."""
    params = GevParams(xi=float(theta[0]), sigma=float(theta[1]), mu=float(theta[2]))
    bounded = params.xi > -1.0
    tail, regime = classify(params)
    fit = GevFit(
        params=params,
        loglik=float(ll),
        bic=3.0 * math.log(n) - 2.0 * float(ll),
        e_max=float(e_max),
        tail=tail,
        regime=regime,
        iterations=int(iterations),
        converged=bool(converged) and bounded,
        n=int(n),
    )
    if not bounded:
        return NotConverged(
            f"no maximum: xi reached {params.xi:.6g} <= -1, where the GEV "
            "likelihood is unbounded",
            fit=fit,
        )
    if not converged:
        return NotConverged(
            f"no convergence within {max_iter} iterations (loglik {ll:.6g})",
            fit=fit,
        )
    return fit


def _fit_alone(z: np.ndarray, max_iter: int):
    """:func:`fit_gev_mle` of one sorted sample: its fit, or the
    :class:`NotConverged` carrying it."""
    def f(theta: np.ndarray) -> float:
        xi, sigma, mu = theta
        if not (sigma > 0.0) or not np.all(np.isfinite(theta)):
            return -math.inf
        return _loglik_kernel(xi, sigma, mu, z)

    def derivs(theta: np.ndarray):
        return _gev_derivs(theta, z)

    def widen(theta0: np.ndarray) -> np.ndarray:
        # A start whose support excludes some point has -inf likelihood
        # and no usable derivatives; growing sigma always covers the data
        # because the support half-width is sigma/|xi|.
        for _ in range(200):
            if math.isfinite(f(theta0)):
                break
            theta0 = theta0 * np.array([1.0, 2.0, 1.0])
        return theta0

    theta = _pwm_init(z)
    theta = widen(_moment_init(z) if theta is None else theta)
    start = derivs(theta)
    if not _is_positive_definite(-start[1]):
        cand = widen(_quantile_init(z))
        if math.isfinite(f(cand)):
            theta, start = cand, None

    theta, ll, iterations, converged = maximize(
        f, derivs, theta, max_iter, start)
    params = GevParams(xi=float(theta[0]), sigma=float(theta[1]), mu=float(theta[2]))
    return _gev_outcome(theta, ll, iterations, converged, z.size,
                        _ks_sorted(z, lambda x: gev_cdf(params, x)), max_iter)


#: what fitting one sample may raise; :func:`fit_gev_batch` returns it
_FIT_ERRORS = (VoipQosError, ValueError)

#: :func:`fit_gev_batch` fits samples of this many values or more alone:
#: there the per-point arithmetic outweighs the calls a batch saves
BATCH_MAX_POINTS = 1024

#: :func:`fit_gev_batch` steps at most this many values in one Newton
#: run, which keeps the twelve per-point rows of
#: :func:`_gev_derivs_segments` near 1.5 MB
BATCH_RUN_VALUES = 1 << 14


def _fit_batched(samples: list, max_iter: int) -> list:
    """Outcomes of :func:`_newton_batch` runs of sorted samples, ``None``
    for each sample it cannot fit.

    A sample stays out of the batch when its PWM start is unusable, off
    the support or has a negated Hessian that is not positive-definite,
    and it leaves the batch when it needs another step; one that ends at
    ``xi <= -1`` or out of iterations is refused too.
    """
    seg = _Segments(np.concatenate(samples), [z.size for z in samples])
    out: list = [None] * len(samples)
    starts = [_pwm_init(z) for z in samples]
    rows = np.array([r for r, t in enumerate(starts) if t is not None],
                    dtype=np.intp)
    if not rows.size:
        return out
    theta = np.array([starts[r] for r in rows])
    bseg = seg.take(rows)
    g, hess = _gev_derivs_segments(theta, bseg)
    ok = np.isfinite(_gev_loglik(theta, bseg)) & _positive_definite(-hess)
    rows = rows[ok]
    if not rows.size:
        return out
    bseg = seg.take(rows)
    theta, ll, iterations, converged = _newton_batch(
        lambda th, r: _gev_loglik(th, bseg.take(r)),
        lambda th, r: _gev_derivs_segments(th, bseg.take(r)),
        theta[ok], max_iter, (g[ok], hess[ok]))
    e_max = _ks_gev(theta, bseg)
    for k in np.flatnonzero(converged & (theta[:, 0] > -1.0)):
        try:
            out[rows[k]] = _gev_outcome(theta[k], ll[k], iterations[k], True,
                                        bseg.counts[k], e_max[k], max_iter)
        except _FIT_ERRORS as exc:
            out[rows[k]] = exc
    return out


def fit_gev_batch(samples, max_iter: int = 200) -> list:
    """Fit a GEV to each sample, the small ones in batched Newton runs.

    Returns one outcome per sample: its :class:`GevFit`, or the error
    (a :class:`~voipqos.errors.VoipQosError` or ``ValueError``) that
    :func:`fit_gev_mle` raises for it; a :class:`NotConverged` carries the
    fit reached.

    Samples of fewer than :data:`BATCH_MAX_POINTS` values are stepped by
    :func:`_newton_batch` from their PWM starts, in runs of at most
    :data:`BATCH_RUN_VALUES` values, so any number of samples may be
    passed. Each sample's sums are taken by ``np.add.reduceat`` over its
    own values, so an outcome does not depend on the other samples, on
    the runs or on BLAS. The fit fields can differ from
    :func:`fit_gev_mle`'s in the last digits, within the step tolerance.
    Every other sample (larger, or one the batch cannot start, step to
    the end or bring to a maximum at ``xi > -1``) is fitted by
    :func:`fit_gev_mle`'s scalar path, from its start.
    """
    out: list = []
    runs: list[list[int]] = []  # indices of the small samples, run by run
    room = 0
    for data in samples:
        try:
            z = _sorted_sample(data)
        except _FIT_ERRORS as exc:
            out.append(exc)
            continue
        if z.size < BATCH_MAX_POINTS:
            if z.size > room:
                runs.append([])
                room = BATCH_RUN_VALUES
            runs[-1].append(len(out))
            room -= z.size
        out.append(z)
    for run in runs:
        fits = _fit_batched([out[i] for i in run], max_iter)
        for i, fit in zip(run, fits):
            if fit is not None:
                out[i] = fit
    for i, z in enumerate(out):
        if isinstance(z, np.ndarray):
            try:
                out[i] = _fit_alone(z, max_iter)
            except _FIT_ERRORS as exc:
                out[i] = exc
    return out


def fit_gev_mle(data, max_iter: int = 200) -> GevFit:
    """Fit a GEV by damped Newton-Raphson on the log-likelihood.

    Starts from the probability-weighted-moment estimate of Hosking,
    Wallis & Wood (1985), or from Gumbel moment estimates (scale
    ``s sqrt(6)/pi``, location ``mean - 0.5772 scale``, shape 0.1) when
    that estimate is unusable. When the negated Hessian at the start is
    not positive-definite (the symptom of tail-dominated sample moments)
    the start is rebuilt from Gumbel quantile matching instead.
    :func:`maximize` then runs for at most ``max_iter`` steps. This is the
    scalar path: :func:`fit_gev_batch` fits many small samples at once.

    Raises :class:`NotConverged` (carrying the best fit reached) when the
    iteration budget runs out, or when the fit ends at ``xi <= -1``: there
    the likelihood is unbounded as the upper endpoint ``mu + sigma/|xi|``
    approaches the sample maximum (Smith 1985), so the point reached is no
    maximum. The carried fit has ``converged=False``.
    """
    outcome = _fit_alone(_sorted_sample(data), max_iter)
    if isinstance(outcome, NotConverged):
        raise outcome
    return outcome
