"""The scalar GEV fit that the batched engine replaced, kept as a test reference.

Verbatim copies of ``maximize``, ``fit_gev_mle`` and the helpers they
call whose code changed (``dot``, ``omega_derivs``, ``loc_scale_derivs``,
``_gev_derivs``, ``_is_positive_definite``, ``_backtrack``, ``_expand``)
from ``voipqos.evt.fit`` as it stood when every sample was fitted alone,
its sums taken by ``np.sum`` and ``einsum``. The tests compare batched
fits against it. Only the imports are new.
"""

from __future__ import annotations

import math

import numpy as np

from voipqos.errors import DegenerateData, DomainError, NotConverged, TooFewPoints
from voipqos.evt.fit import (
    _MAX_HALVINGS,
    _RESOLUTION,
    MIN_FIT_POINTS,
    GevFit,
    _ks_sorted,
    _moment_init,
    _pwm_init,
    _quantile_init,
)
from voipqos.evt.gev import GevParams, _loglik_kernel, classify, gev_cdf

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


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of ``a * b`` over two 1-D arrays, whatever the BLAS thread count.

    ``a @ b`` calls BLAS ddot, which splits a long sum across its
    threads, so its last digits follow ``OPENBLAS_NUM_THREADS``;
    ``einsum`` sums in one fixed order.
    """
    return float(np.einsum("i,i->", a, b))


def omega_derivs(xi: float, w: np.ndarray):
    """``1 + xi w``, ``om = log1p(xi w) / xi`` and its first two xi-derivatives.

    Every output is continuous through ``xi = 0``, where ``om = w``. The
    outputs are new arrays, which callers may overwrite.
    """
    x = w * xi
    a = x + 1.0
    if xi == 0.0:
        return a, w.copy(), -0.5 * w * w, (2.0 / 3.0) * w ** 3
    small = np.abs(x) < _SERIES_CUT
    xs = x[small]
    om = np.log1p(x, out=x)
    om /= xi
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


def loc_scale_derivs(n: int, scale: float, y: np.ndarray, d1, d2):
    """Gradient and Hessian in (loc, scale) of ``sum h(y_i) - n log(scale)``.

    ``y = (z - loc) / scale``; ``d1`` and ``d2`` are ``h'`` and ``h''`` at
    ``y``. Every location-scale likelihood in the package shares this
    chain rule.
    """
    s1, s2 = float(np.sum(d1)), float(np.sum(d2))
    yd1, yd2, yyd2 = dot(y, d1), dot(y, d2), dot(y * y, d2)
    g = np.array([-s1, -(n + yd1)]) / scale
    hess = np.array([[s2, s1 + yd2], [s1 + yd2, n + 2.0 * yd1 + yyd2]])
    return g, hess / (scale * scale)


def _gev_derivs(theta: np.ndarray, z: np.ndarray):
    """Analytic gradient and Hessian of the GEV log-likelihood.

    With ``w = (z - mu) / sigma`` and ``om`` as in :func:`omega_derivs`,
    each point contributes ``g = -(1 + xi) om - exp(-om)`` plus the
    ``-log sigma`` term (Prescott & Walden 1980; Hosking 1985, AS 215).
    The per-point xi-derivatives are only ever summed, so they enter as
    dot products; the arrays are reused in place.
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


def maximize(f, derivs, theta, tol: float = 1e-8, max_iter: int = 200,
             start_derivs=None):
    """Safeguarded Newton ascent on ``f`` from a point where it is finite.

    ``f(theta)`` is the objective (``-inf`` outside its domain) and
    ``derivs(theta)`` its gradient and Hessian; ``start_derivs``, when
    given, is ``derivs(theta)`` at the start, already computed. Each
    step is damped by halving until ``f`` does not decrease, so the
    iterates are monotone.
    When the negated Hessian is not positive-definite the step is a
    ridge-shifted solve, whose large-shift limit is steepest ascent, with
    a doubling line search so off-scale starts can still travel.
    Convergence is declared when every step component is below ``tol``
    relative to ``max(1, |theta_i|)``, when twice the gain a Newton step
    predicts is below the resolution of ``f`` (``_RESOLUTION`` relative),
    or when no step along either direction improves ``f`` at any scale
    down to ``2^-30``.

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
        if np.max(np.abs(step) / np.maximum(np.abs(theta), 1.0)) < tol:
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


def fit_gev_mle(data, tol: float = 1e-8, max_iter: int = 200) -> GevFit:
    """Fit a GEV by damped Newton-Raphson on the log-likelihood.

    Starts from the probability-weighted-moment estimate of Hosking,
    Wallis & Wood (1985), or from Gumbel moment estimates (scale
    ``s sqrt(6)/pi``, location ``mean - 0.5772 scale``, shape 0.1) when
    that estimate is unusable. When the negated Hessian at the start is
    not positive-definite (the symptom of tail-dominated sample moments)
    the start is rebuilt from Gumbel quantile matching instead.
    :func:`maximize` then runs with ``tol`` and ``max_iter``.

    Raises :class:`NotConverged` (carrying the best fit reached) when the
    iteration budget runs out, or when the fit ends at ``xi <= -1``: there
    the likelihood is unbounded as the upper endpoint ``mu + sigma/|xi|``
    approaches the sample maximum (Smith 1985), so the point reached is no
    maximum. The carried fit has ``converged=False``.
    """
    z = np.sort(np.asarray(data, dtype=float).ravel())
    if z.size < MIN_FIT_POINTS:
        raise TooFewPoints(
            f"GEV fit needs at least {MIN_FIT_POINTS} points, got {z.size}"
        )
    if not np.all(np.isfinite(z)):
        raise DomainError("data contain non-finite values")
    if float(np.ptp(z)) == 0.0:
        raise DegenerateData("all data points are identical; scale is not estimable")

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
        f, derivs, theta, tol, max_iter, start)
    params = GevParams(xi=float(theta[0]), sigma=float(theta[1]), mu=float(theta[2]))
    bounded = params.xi > -1.0
    tail, regime = classify(params)
    fit = GevFit(
        params=params,
        loglik=float(ll),
        bic=3.0 * math.log(z.size) - 2.0 * float(ll),
        e_max=_ks_sorted(z, lambda x: gev_cdf(params, x)),
        tail=tail,
        regime=regime,
        iterations=iterations,
        converged=converged and bounded,
        n=int(z.size),
    )
    if not bounded:
        raise NotConverged(
            f"no maximum: xi reached {params.xi:.6g} <= -1, where the GEV "
            "likelihood is unbounded",
            fit=fit,
        )
    if not converged:
        raise NotConverged(
            f"no convergence within {max_iter} iterations (loglik {ll:.6g})",
            fit=fit,
        )
    return fit
