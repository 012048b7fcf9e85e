"""The kernels that faster versions replaced, kept as test references.

Verbatim copies of ``omega_derivs`` and ``_gev_derivs`` from
``voipqos.evt.fit``, of ``_read_values`` from ``voipqos.cli`` and of
``moving_std`` from ``voipqos.metrics``, from before the derivatives
were computed in place with dot-product sums, the reader tried
``np.loadtxt`` first and the moving deviation summed gathered windows
with ``np.cumsum``. The tests compare the package against them. Only the
imports are new.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from voipqos.errors import DomainError, VoipQosError
from voipqos.evt.fit import loc_scale_derivs
from voipqos.metrics import _SIGMA_NAME, MetricSeries

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


def omega_derivs(xi: float, w: np.ndarray):
    """``1 + xi w``, ``om = log1p(xi w) / xi`` and its first two xi-derivatives.

    Every output is continuous through ``xi = 0``, where ``om = w``.
    """
    x = xi * w
    a = 1.0 + x
    if xi == 0.0:
        return a, w.copy(), -0.5 * w * w, (2.0 / 3.0) * w ** 3
    om = np.log1p(x) / xi
    om1 = (w / a - om) / xi
    om2 = -(w * w / (a * a) + 2.0 * om1) / xi
    small = np.abs(x) < _SERIES_CUT
    if np.any(small):
        xs, ws = x[small], w[small]
        om1[small] = ws * ws * np.polyval(_OM1_COEF, xs)
        om2[small] = ws ** 3 * np.polyval(_OM2_COEF, xs)
    return a, om, om1, om2


def _gev_derivs(theta: np.ndarray, z: np.ndarray):
    """Analytic gradient and Hessian of the GEV log-likelihood.

    With ``w = (z - mu) / sigma`` and ``om`` as in :func:`omega_derivs`,
    each point contributes ``g = -(1 + xi) om - exp(-om)`` plus the
    ``-log sigma`` term (Prescott & Walden 1980; Hosking 1985, AS 215).
    """
    xi, sigma, mu = (float(v) for v in theta)
    w = (z - mu) / sigma
    with np.errstate(over="ignore", under="ignore", divide="ignore",
                     invalid="ignore"):
        a, om, om1, om2 = omega_derivs(xi, w)
        t = np.exp(-om)
        u = t - 1.0 - xi  # dg/dom
        ia = 1.0 / a
        d1 = u * ia  # dg/dw
        d2 = (1.0 + xi) * (xi - t) * ia * ia  # d2g/dw2
        g_x = -om + u * om1  # dg/dxi
        g_xw = -(t * om1 + 1.0) * ia - u * w * ia * ia
        g_xx = -2.0 * om1 - t * om1 * om1 + u * om2
        g_ls, h_ls = loc_scale_derivs(z.size, sigma, w, d1, d2)
        cross = np.array([-float(np.sum(g_xw)), -float(w @ g_xw)]) / sigma
    grad = np.array([float(np.sum(g_x)), g_ls[1], g_ls[0]])
    hess = np.empty((3, 3))
    hess[0, 0] = float(np.sum(g_xx))
    hess[0, 1] = hess[1, 0] = cross[1]
    hess[0, 2] = hess[2, 0] = cross[0]
    hess[1, 1] = h_ls[1, 1]
    hess[2, 2] = h_ls[0, 0]
    hess[1, 2] = hess[2, 1] = h_ls[0, 1]
    return grad, hess


def _read_values(path: str) -> list:
    values = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        text = line.strip()
        if not text:
            continue
        try:
            values.append(float(text))
        except ValueError:
            raise VoipQosError(
                f"{path}:{lineno}: not a number: {text!r}"
            ) from None
    return values


def moving_std(series: MetricSeries, window: float = 1.0) -> MetricSeries:
    """Sample standard deviation over the trailing window (t-window, t].

    Defined at every input sample time; windows holding fewer than two
    samples yield 0. Output is named sigma_j for jitter input and
    sigma_sl for signal_level input.
    """
    if not window > 0:
        raise DomainError(f"window must be positive, got {window}")
    out_name = _SIGMA_NAME.get(series.name)
    if out_name is None:
        raise DomainError(
            f"no moving-deviation metric defined for {series.name!r}"
        )
    t = series.times()
    v = series.values()
    sd = np.zeros(len(t))
    # trailing window of sample i is v[lo[i] : i + 1]
    lo = np.searchsorted(t, t - window, side="right")
    count = np.arange(1, len(t) + 1) - lo
    rows = np.nonzero(count >= 2)[0]
    lo, count = lo[rows], count[rows]
    # Two passes over the offset k inside each window, every window at
    # once: sum the values, then the squared deviations from the mean.
    # Values are taken relative to the window's first one, so a window
    # of equal values gives exactly 0.
    base = v[lo]
    width = int(count.max(initial=0))
    total = np.zeros(len(rows))
    for k in range(width):
        live = k < count
        total[live] += v[lo[live] + k] - base[live]
    mean = total / count
    squares = np.zeros(len(rows))
    for k in range(width):
        live = k < count
        dev = v[lo[live] + k] - base[live] - mean[live]
        squares[live] += dev * dev
    sd[rows] = np.sqrt(squares / (count - 1))
    return MetricSeries.create(out_name, t, sd)
