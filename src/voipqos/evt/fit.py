"""Maximum-likelihood fitting by safeguarded Newton-Raphson.

:func:`_ascend` is the one Newton loop of the package. It steps many
objectives at once, one per row of theta, and each row takes the step
its own derivatives allow: it solves ``(-H + lam I) step = g``. A Newton
step is the ridge step with zero shift (Nocedal & Wright 2006, 3.4),
taken where the smallest eigenvalue of ``-H`` is positive, and damped by
halving until the objective does not decrease, so the iterates are
monotone. Elsewhere the shift, whose large-shift limit is steepest
ascent, comes with a doubling line search so off-scale starts can still
travel; a scaled-ascent step follows when either fails at every scale.
:func:`maximize`, the loop on one row, fits every family of :mod:`.select`.

The GEV likelihood is maximized over theta = (xi, sigma, mu) with the
analytic derivatives of Prescott & Walden (1980) and Hosking (1985,
AS 215), summed by :class:`_Sample` for a sample fitted alone and by
:class:`_Segments` for many laid end to end. The support constraint
``1 + xi (z_i - mu) / sigma > 0`` holds at every iterate because
off-support points have likelihood ``-inf``. Near ``xi = 0`` the
xi-derivatives use a power series in ``xi w``, so they are continuous
through the Gumbel limit.
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
    FitRegime,
    GevParams,
    TailKind,
    _loglik_kernel,
    _omega,
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
        p1 = np.polyval(_OM1_COEF, xs)
        p2 = np.polyval(_OM2_COEF, xs)
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
    ``z[offsets[r]:offsets[r] + counts[r]]``. Each per-sample sum reads
    only its own segment, so it does not depend on the other samples, and
    no sum goes through BLAS."""

    def __init__(self, z: np.ndarray, counts):
        self.z = z
        self.counts = np.asarray(counts, dtype=np.intp)
        self.offsets = np.cumsum(self.counts) - self.counts

    def per_point(self, v: np.ndarray) -> np.ndarray:
        """Each sample's entry of ``v``, once per point of the sample."""
        return np.repeat(v, self.counts)

    def sum(self, a: np.ndarray, b: np.ndarray | None = None):
        """Per-sample sums of ``a``, or of ``a * b``."""
        return np.add.reduceat(a if b is None else a * b, self.offsets)

    def take(self, rows: np.ndarray) -> "_Segments":
        """The samples ``rows`` (ascending indices), laid end to end."""
        if rows.size == self.counts.size:
            return self
        keep = np.zeros(self.counts.size, dtype=bool)
        keep[rows] = True
        return _Segments(self.z[self.per_point(keep)], self.counts[rows])

    def loglik(self, theta: np.ndarray) -> np.ndarray:
        """Each sample's GEV log-likelihood at its row of ``theta``.

        Per point the arithmetic of ``gev._loglik_kernel``; ``-inf`` where
        ``sigma <= 0``, a parameter is not finite, a point is off the
        support or the sum is not finite.
        """
        xi, sigma, mu = theta.T
        with np.errstate(all="ignore"):
            w = self.z - self.per_point(mu)
            w /= self.per_point(sigma)
            om, on = _omega(self.per_point(xi), w)
            val = (-self.counts * np.log(sigma) - (1.0 + xi) * self.sum(om)
                   - self.sum(np.exp(-om)))
        ok = ((sigma > 0.0) & np.isfinite(theta).all(axis=1) & np.isfinite(val)
              & np.logical_and.reduceat(on, self.offsets))
        return np.where(ok, val, -np.inf)


class _Sample(_Segments):
    """One sample, its sums taken by contiguous ``np.sum`` and :func:`dot`
    and its log-likelihood by ``gev._loglik_kernel``: the arithmetic of
    :func:`fit_gev_mle`."""

    def __init__(self, z: np.ndarray):
        super().__init__(z, [z.size])

    def per_point(self, v: np.ndarray) -> float:
        return float(v[0])

    def sum(self, a: np.ndarray, b: np.ndarray | None = None) -> float:
        return float(np.sum(a)) if b is None else dot(a, b)

    def loglik(self, theta: np.ndarray) -> np.ndarray:
        xi, sigma, mu = theta[0]
        if not (sigma > 0.0) or not np.all(np.isfinite(theta)):
            return np.array([-math.inf])
        return np.array([_loglik_kernel(xi, sigma, mu, self.z)])


def _gev_derivs(theta: np.ndarray, seg):
    """Analytic gradients ``(k, 3)`` and Hessians ``(k, 3, 3)`` of the GEV
    log-likelihood of each sample of the :class:`_Segments` ``seg`` at its
    row of ``theta``.

    With ``w = (z - mu) / sigma`` and ``om`` as in :func:`omega_derivs`,
    each point contributes ``g = -(1 + xi) om - exp(-om)`` plus the
    ``-log sigma`` term (Prescott & Walden 1980; Hosking 1985, AS 215).
    The per-point derivatives are only ever summed, by ``seg.sum``, alone
    or as the product of two arrays; the arrays are reused in place.
    """
    xi = seg.per_point(theta[:, 0])
    sigma = theta[:, 1]
    w = seg.z - seg.per_point(theta[:, 2])
    w /= seg.per_point(sigma)
    with np.errstate(all="ignore"):
        a, om, om1, om2 = omega_derivs(xi, w)
        sum_om = seg.sum(om)
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
        # dg/dxi = -om + u om1, d2g/dxi2 = -2 om1 - t om1^2 + u om2
        g_xi = seg.sum(u, om1) - sum_om
        tom1 = np.multiply(t, om1, out=t)
        h_xixi = -2.0 * seg.sum(om1) - seg.sum(tom1, om1) + seg.sum(u, om2)
        # minus d2g/dxi dw = (t om1 + 1 + u w / a) / a
        neg_g_xw = np.add(tom1, 1.0, out=tom1)
        neg_g_xw += w * d1
        neg_g_xw *= ia
        g_mu, g_sigma, h_mumu, h_musigma, h_sigmasigma = _loc_scale_chain(
            seg.counts, sigma, seg.sum(d1), seg.sum(d2), seg.sum(w, d1),
            seg.sum(w, d2), seg.sum(w * w, d2))
        h_xisigma = seg.sum(w, neg_g_xw) / sigma
        h_ximu = seg.sum(neg_g_xw) / sigma
    grad = np.stack(np.broadcast_arrays(g_xi, g_sigma, g_mu), axis=-1)
    hess = np.stack(np.broadcast_arrays(h_xixi, h_xisigma, h_ximu,
                                        h_xisigma, h_sigmasigma, h_musigma,
                                        h_ximu, h_musigma, h_mumu), axis=-1)
    return grad, hess.reshape(-1, 3, 3)


def _shifted(hess: np.ndarray):
    """Each row's step matrix ``-H + lam I``, whether it is Newton, and
    whether ``H`` is finite. A Newton row has a finite ``H`` whose ``-H``
    has its smallest eigenvalue ``ev_0`` above 0, and ``lam = 0``; every
    other row takes ``lam = 1.5 |ev_0| + 1e-6 max(1, |ev_max|)``, with a
    non-finite ``H`` taken as ``-I``."""
    finite = np.isfinite(hess).all(axis=(1, 2))
    eye = np.eye(hess.shape[-1])
    neg_hess = np.where(finite[:, None, None], -hess, eye)
    ev = np.linalg.eigvalsh(neg_hess)
    newton = finite & (ev[:, 0] > 0.0)
    lam = np.where(newton, 0.0, np.abs(ev[:, 0]) * 1.5
                   + 1e-6 * np.fmax(1.0, np.abs(ev[:, -1])))
    return neg_hess + lam[:, None, None] * eye, newton, finite


def _line_search(f, theta, ll, rows, direction, expand, limit: float):
    """Each row's point along its ``direction`` from ``theta``.

    The step is halved until the row's objective does not decrease, at
    most :data:`_MAX_HALVINGS` times; where ``expand`` holds and the unit
    step held, it is then doubled while the objective increases, up to
    ``limit`` times. Returns ``(cand, f(cand), found)``; where ``found``
    is false no scale worked, and ``cand`` is not to be used.
    """
    if not rows.size:
        return theta, ll, np.zeros(0, dtype=bool)
    cand = theta + direction
    llc = f(cand, rows)
    found = np.isfinite(llc) & (llc >= ll)
    grow = (expand & found).nonzero()[0]
    pending = (~found).nonzero()[0]
    s = 0.5
    for _ in range(_MAX_HALVINGS - 1):
        if not pending.size:
            break
        trial = theta[pending] + s * direction[pending]
        lt = f(trial, rows[pending])
        ok = np.isfinite(lt) & (lt >= ll[pending])
        hit = pending[ok]
        cand[hit], llc[hit], found[hit] = trial[ok], lt[ok], True
        pending = pending[~ok]
        s *= 0.5
    s = 2.0
    while grow.size and s <= limit:
        trial = theta[grow] + s * direction[grow]
        lt = f(trial, rows[grow])
        ok = np.isfinite(lt) & (lt > llc[grow])
        grow = grow[ok]
        cand[grow], llc[grow] = trial[ok], lt[ok]
        s *= 2.0
    return cand, llc, found


def _ascend(f, derivs, theta, max_iter: int = 200, start_derivs=None):
    """Safeguarded Newton ascent of one objective per row of ``theta``.

    ``theta`` is a ``(k, p)`` array of starts, each where its objective
    is finite. For ascending row indices ``rows`` and their points ``th``,
    ``f(th, rows)`` gives the objectives (``-inf`` outside their domain)
    and ``derivs(th, rows)`` their gradients ``(m, p)`` and Hessians
    ``(m, p, p)``; ``start_derivs`` is ``derivs`` at the starts, if known.

    A row steps as the module docstring says. Each iteration takes the
    eigenvalues of every row's ``-H`` in one stacked ``eigvalsh``, which
    decides its shift (:func:`_shifted`), solves every row's step in one
    stacked ``solve``, and line-searches the rows together. A row
    converges when every step component is below :data:`_STEP_TOL`
    relative to ``max(1, |theta_i|)``, when twice the gain a Newton step
    predicts is below the resolution of its objective (``_RESOLUTION``
    relative), or when no step improves it at any scale down to
    ``2^-29``. Its arithmetic is its own, so it ends where it would end
    alone.

    Returns ``(theta, f(theta), iterations, converged, peaked)``;
    ``peaked`` marks the rows that stopped at a Newton step, where the
    negated Hessian is positive-definite, so the point is a maximum.
    Unless ``start_derivs`` is given, the last call of ``derivs`` for a
    row is at its returned point, and its result is not modified.
    """
    theta = np.array(theta, dtype=float)
    k = len(theta)
    rows = np.arange(k)
    ll = f(theta, rows)
    g, hess = derivs(theta, rows) if start_derivs is None else start_derivs
    iterations = np.full(k, max_iter)
    converged = np.zeros(k, dtype=bool)
    peaked = np.zeros(k, dtype=bool)
    for it in range(1, max_iter + 1):
        at, ll_at = theta[rows], ll[rows]
        g = np.where(np.isfinite(g), g, 0.0)
        shifted, newton, _ = _shifted(hess)
        step = np.linalg.solve(shifted, g[..., None])[..., 0]
        floor = np.maximum(np.abs(at), 1.0)
        stop = (np.abs(step) / floor).max(axis=1) < _STEP_TOL
        # a predicted gain below what f resolves, which no line search
        # could confirm
        stop |= newton & (np.einsum("ij,ij->i", g, step)
                          <= _RESOLUTION * np.maximum(1.0, np.abs(ll_at)))
        peaked[rows[stop & newton]] = True
        go = (~stop).nonzero()[0]
        cand, llc, found = _line_search(f, at[go], ll_at[go], rows[go],
                                        step[go], ~newton[go], 2.0 ** 20)
        lost = (~found).nonzero()[0]
        if lost.size:
            # the step failed outright: scaled ascent, unless the
            # gradient is exactly stationary
            d = g[go[lost]] * floor[go[lost]]
            norm = np.linalg.norm(d, axis=1)
            tilt = norm != 0.0
            lost, j = lost[tilt], go[lost[tilt]]
            d = d[tilt] / norm[tilt, None] * floor[j] * 1e-3
            cand[lost], llc[lost], found[lost] = _line_search(
                f, at[j], ll_at[j], rows[j], d, True, 2.0 ** 30)
        # a row that no step improves is resolved to its plateau
        stop[go[~found]] = True
        done = rows[stop]
        iterations[done] = it
        converged[done] = True
        rows = rows[go[found]]
        theta[rows], ll[rows] = cand[found], llc[found]
        if not rows.size:
            break
        g, hess = derivs(theta[rows], rows)
    return theta, ll, iterations, converged, peaked


def maximize(f, derivs, theta, max_iter: int = 200):
    """Safeguarded Newton ascent on ``f`` from a point where it is finite:
    :func:`_ascend` on one row.

    ``f(theta)`` is the objective (``-inf`` outside its domain) and
    ``derivs(theta)`` its gradient and Hessian. Returns ``(theta,
    f(theta), iterations, converged)``. The last call of ``derivs`` is at
    the returned ``theta``, and its result is not modified.
    """
    theta, ll, iterations, converged, _ = _ascend(
        lambda th, rows: np.array([f(th[0])]),
        lambda th, rows: [d[None] for d in derivs(th[0])],
        np.asarray(theta, dtype=float)[None], max_iter)
    return theta[0], float(ll[0]), int(iterations[0]), bool(converged[0])


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


#: what fitting one sample may raise; :func:`fit_gev_batch` returns it
_FIT_ERRORS = (VoipQosError, ValueError)


def _gev_outcome(theta, ll, iterations, converged, z, max_iter):
    """The fit at ``theta`` of the sorted sample ``z``, or the
    :class:`NotConverged` carrying it. Its ``e_max`` is :func:`ks_distance`
    between ``z`` and the fitted ``gev_cdf``."""
    params = GevParams(xi=float(theta[0]), sigma=float(theta[1]), mu=float(theta[2]))
    n = z.size
    bounded = params.xi > -1.0
    tail, regime = classify(params)
    fit = GevFit(
        params=params,
        loglik=float(ll),
        bic=3.0 * math.log(n) - 2.0 * float(ll),
        e_max=_ks_sorted(z, lambda x: gev_cdf(params, x)),
        tail=tail,
        regime=regime,
        iterations=int(iterations),
        converged=bool(converged) and bounded,
        n=n,
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


# the starts and the line searches reach points off the support, or
# where a sum overflows; the -inf and nan they give are handled
@np.errstate(all="ignore")
def _fit_gev(seg: _Segments, max_iter: int):
    """Fit a GEV to each sorted sample of ``seg`` in one :func:`_ascend` run.

    Returns one outcome per sample (:func:`_gev_outcome`, or the
    ``ValueError`` that building the fit raised) and :func:`_ascend`'s
    ``peaked``. The start rule is :func:`fit_gev_mle`'s, for every sample.
    """
    samples = [seg.z[o:o + n] for o, n in zip(seg.offsets, seg.counts)]

    def f(th, rows):
        return seg.take(rows).loglik(th)

    def derivs(th, rows):
        return _gev_derivs(th, seg.take(rows))

    def widen(theta, rows):
        # A start whose support excludes some point has -inf likelihood
        # and no usable derivatives; growing sigma always covers the data
        # because the support half-width is sigma/|xi|.
        bad = np.arange(len(rows))
        for _ in range(200):
            bad = bad[~np.isfinite(f(theta[bad], rows[bad]))]
            if not bad.size:
                break
            theta[bad, 1] *= 2.0
        return theta

    rows = np.arange(len(samples))
    theta = widen(np.array([_moment_init(z) if t is None else t for z, t
                            in zip(samples, map(_pwm_init, samples))]), rows)
    g, hess = derivs(theta, rows)
    # the loop's Newton rule; a start whose Hessian is not finite is kept
    _, newton, finite = _shifted(hess)
    redo = (finite & ~newton).nonzero()[0]
    if redo.size:
        cand = widen(np.array([_quantile_init(samples[r]) for r in redo]), redo)
        ok = np.isfinite(f(cand, redo))
        redo, cand = redo[ok], cand[ok]
        if redo.size:
            theta[redo] = cand
            g[redo], hess[redo] = derivs(cand, redo)
    theta, ll, iterations, converged, peaked = _ascend(
        f, derivs, theta, max_iter, (g, hess))
    out: list = []
    for r in rows:
        try:
            out.append(_gev_outcome(theta[r], ll[r], iterations[r], converged[r],
                                    samples[r], max_iter))
        except _FIT_ERRORS as exc:
            out.append(exc)
    return out, peaked


#: :func:`fit_gev_batch` fits samples of this many values or more alone:
#: there the per-point arithmetic outweighs the calls a batch saves
BATCH_MAX_POINTS = 1024

#: :func:`fit_gev_batch` steps at most this many values in one Newton
#: run, which keeps each per-point array of the GEV kernels near 128 kB
BATCH_RUN_VALUES = 1 << 14


def fit_gev_batch(samples, max_iter: int = 200) -> list:
    """Fit a GEV to each sample, the small ones in batched Newton runs.

    Returns one outcome per sample: its :class:`GevFit`, or the error
    (a :class:`~voipqos.errors.VoipQosError` or ``ValueError``) that
    :func:`fit_gev_mle` raises for it; a :class:`NotConverged` carries the
    fit reached.

    Samples of fewer than :data:`BATCH_MAX_POINTS` values are fitted in
    runs of at most :data:`BATCH_RUN_VALUES` values, each sample's sums
    taken by ``np.add.reduceat`` over its own values, so an outcome does
    not depend on the other samples, on the runs or on BLAS. Its fields
    can differ from :func:`fit_gev_mle`'s in the last digits, within the
    step tolerance. :func:`fit_gev_mle` itself fits the larger samples,
    and each whose batched fit is not a converged maximum at ``xi > -1``:
    one that ends at ``xi <= -1``, out of iterations, or other than by a
    Newton step.
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
        zs = [out[i] for i in run]
        fits, peaked = _fit_gev(
            _Segments(np.concatenate(zs), [z.size for z in zs]), max_iter)
        for i, fit, peak in zip(run, fits, peaked):
            if peak and isinstance(fit, GevFit):
                out[i] = fit
    for i, z in enumerate(out):
        if isinstance(z, np.ndarray):
            try:
                out[i] = fit_gev_mle(z, max_iter)
            except _FIT_ERRORS as exc:
                out[i] = exc
    return out


def fit_gev_mle(data, max_iter: int = 200) -> GevFit:
    """Fit a GEV by damped Newton-Raphson on the log-likelihood.

    Starts from the probability-weighted-moment estimate of Hosking,
    Wallis & Wood (1985), or from Gumbel moment estimates (scale
    ``s sqrt(6)/pi``, location ``mean - 0.5772 scale``, shape 0.1) when
    that estimate is unusable, its scale doubled until the likelihood is
    finite. When the Hessian at the start is finite and its negation not
    positive-definite (the symptom of tail-dominated sample moments), so
    that :func:`_ascend` would take no Newton step there, the start is
    rebuilt from Gumbel quantile matching instead. :func:`_ascend` then
    runs for at most ``max_iter`` steps, the sums taken by contiguous
    ``np.sum`` and ``einsum``.

    Raises :class:`NotConverged` (carrying the best fit reached) when the
    iteration budget runs out, or when the fit ends at ``xi <= -1``: there
    the likelihood is unbounded as the upper endpoint ``mu + sigma/|xi|``
    approaches the sample maximum (Smith 1985), so the point reached is no
    maximum. The carried fit has ``converged=False``.
    """
    (outcome,), _ = _fit_gev(_Sample(_sorted_sample(data)), max_iter)
    if not isinstance(outcome, GevFit):
        raise outcome
    return outcome
