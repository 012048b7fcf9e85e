"""Maximum-likelihood GEV fitting."""

import logging
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize

from voipqos import (
    DegenerateData,
    FitRegime,
    GevParams,
    NotConverged,
    TailKind,
    TooFewPoints,
    fit_gev_mle,
    gev_loglik,
    gev_sample,
    select_model,
)
from tests.gev_models import JITTER_MODELS, RTT_MODELS
from voipqos.evt import fit as fit_module
from voipqos.evt.fit import _pwm_init


def nelder_mead_mle(z):
    """Independent reference optimizer over the same log-likelihood.

    Derivative-free, started from robust location/scale guesses, so it
    shares no code path with the Newton fitter beyond the likelihood
    definition itself.
    """
    z = np.asarray(z, dtype=float)
    med = float(np.median(z))
    iqr = float(np.quantile(z, 0.75) - np.quantile(z, 0.25))
    sigma0 = max(iqr / 1.5725263099630333, 1e-6)
    x0 = np.array([0.1, sigma0, med - 0.36651292058166435 * sigma0])

    def neg_ll(theta):
        xi, sigma, mu = theta
        if not sigma > 0:
            return math.inf
        ll = gev_loglik(GevParams(xi=xi, sigma=sigma, mu=mu), z)
        return -ll if math.isfinite(ll) else math.inf

    res = optimize.minimize(
        neg_ll,
        x0,
        method="Nelder-Mead",
        options={"maxiter": 20_000, "xatol": 1e-10, "fatol": 1e-12},
    )
    return res.x, -res.fun


class TestRecovery:
    def test_bounded_tail_row(self):
        xi, sigma, mu, _ = JITTER_MODELS["MPEG-16"]
        truth = GevParams(xi=xi, sigma=sigma, mu=mu)
        z = gev_sample(truth, 10_000, seed=1234)
        fit = fit_gev_mle(z)
        assert fit.converged
        assert fit.iterations <= 200
        assert abs(fit.params.xi - xi) <= 0.05
        assert abs(fit.params.sigma - sigma) <= 0.05 * sigma
        assert abs(fit.params.mu - mu) <= 0.02 * abs(mu)

    def test_heavy_tail_row_beyond_unit_shape(self):
        # xi > 1: infinite mean, so moment-based starts are hopeless and
        # the quantile restart must carry the fit.
        xi, sigma, mu, _ = RTT_MODELS["SPX-16"]
        truth = GevParams(xi=xi, sigma=sigma, mu=mu)
        z = gev_sample(truth, 10_000, seed=1234)
        fit = fit_gev_mle(z)
        assert fit.converged
        assert abs(fit.params.xi - xi) <= 0.05
        assert abs(fit.params.sigma - sigma) <= 0.05 * sigma
        assert abs(fit.params.mu - mu) <= 0.02 * abs(mu)

    def test_matches_derivative_free_optimizer(self):
        xi, sigma, mu, _ = RTT_MODELS["G722"]
        z = gev_sample(GevParams(xi=xi, sigma=sigma, mu=mu), 4000, seed=77)
        fit = fit_gev_mle(z)
        ref_theta, ref_ll = nelder_mead_mle(z)
        # The Newton fit must be at least as good an optimum, and both
        # should land on the same point.
        assert fit.loglik >= ref_ll - 1e-6
        assert fit.params.xi == pytest.approx(ref_theta[0], abs=2e-4)
        assert fit.params.sigma == pytest.approx(ref_theta[1], rel=2e-4)
        assert fit.params.mu == pytest.approx(ref_theta[2], rel=2e-4)

    def test_gumbel_data_lands_near_zero_shape(self):
        z = gev_sample(GevParams(xi=0.0, sigma=3.0, mu=10.0), 20_000, seed=21)
        fit = fit_gev_mle(z)
        assert abs(fit.params.xi) < 0.03
        assert fit.params.sigma == pytest.approx(3.0, rel=0.05)
        assert fit.params.mu == pytest.approx(10.0, rel=0.02)


class TestPwmStart:
    def test_near_truth_on_a_large_sample(self):
        truth = GevParams(xi=0.2, sigma=12.0, mu=124.0)
        xi, sigma, mu = _pwm_init(np.sort(gev_sample(truth, 20_000, seed=3)))
        assert xi == pytest.approx(0.2, abs=0.03)
        assert sigma == pytest.approx(12.0, rel=0.03)
        assert mu == pytest.approx(124.0, rel=0.01)

    def test_unusable_estimates_are_refused(self):
        # the probability-weighted sums overflow
        huge = np.linspace(1e306, 1.7e308, 50)
        with np.errstate(over="ignore", invalid="ignore"):
            assert _pwm_init(huge) is None
        # at this offset the sums cancel to no spread at all
        assert _pwm_init(1e17 + np.r_[np.zeros(29), 16.0]) is None
        # a bounded-tail estimate whose upper end falls short of the data
        tail = np.sort(np.r_[np.linspace(0.0, 1.0, 40) ** 0.3, 1.6])
        assert _pwm_init(tail) is None

    def test_fit_falls_back_to_the_moment_start(self, monkeypatch):
        z = gev_sample(GevParams(xi=0.1, sigma=2.0, mu=10.0), 3000, seed=11)
        with_pwm = fit_gev_mle(z)
        monkeypatch.setattr(fit_module, "_pwm_init", lambda z: None)
        without = fit_gev_mle(z)
        # the moment start takes more steps to the same optimum
        assert without.iterations > with_pwm.iterations
        assert without.loglik == pytest.approx(with_pwm.loglik, rel=1e-12)
        assert without.params.xi == pytest.approx(with_pwm.params.xi, abs=1e-6)


class TestFitReport:
    def test_bic_and_emax_fields(self):
        xi, sigma, mu, _ = JITTER_MODELS["OPUS"]
        z = gev_sample(GevParams(xi=xi, sigma=sigma, mu=mu), 2000, seed=2)
        fit = fit_gev_mle(z)
        assert fit.n == 2000
        assert type(fit.loglik) is float and type(fit.bic) is float
        assert fit.bic == pytest.approx(3.0 * math.log(2000) - 2.0 * fit.loglik)
        assert 0.0 < fit.e_max < 0.05
        assert fit.tail is TailKind.WEIBULL
        assert fit.regime is FitRegime.STANDARD

    def test_json_dict_round_trips_through_json(self):
        import json

        z = gev_sample(GevParams(xi=0.2, sigma=2.0, mu=5.0), 500, seed=4)
        fit = fit_gev_mle(z)
        blob = json.dumps(fit.to_json_dict(), sort_keys=True)
        back = json.loads(blob)
        assert back["xi"] == fit.params.xi
        assert back["converged"] is True
        assert isinstance(back["notes"], list)

    def test_unreliable_regime_is_flagged(self):
        # Density blowing up at a finite endpoint drives xi below -0.5;
        # the likelihood may even be unbounded there, in which case the
        # budget runs out and the carried fit still reports the regime.
        rng = np.random.default_rng(5)
        z = rng.beta(8.0, 0.5, size=3000) * 10.0
        try:
            fit = fit_gev_mle(z)
        except NotConverged as exc:
            fit = exc.fit
        assert fit.params.xi < -0.5
        assert fit.regime in (FitRegime.ATTAINABLE, FitRegime.UNRELIABLE)
        assert fit.notes()  # regime warning present

    def test_no_finite_mean_note_for_xi_above_one(self):
        xi, sigma, mu, _ = RTT_MODELS["SPX-16"]
        z = gev_sample(GevParams(xi=xi, sigma=sigma, mu=mu), 5000, seed=8)
        fit = fit_gev_mle(z)
        assert fit.params.xi >= 1.0
        assert any("mean" in note for note in fit.notes())


class TestFailureModes:
    def test_fit_ending_at_xi_le_minus_one_is_not_converged(self, caplog):
        # the likelihood is unbounded for xi <= -1, so the point where the
        # Newton steps get small is no maximum
        z = gev_sample(GevParams(-0.6, 1.0, 0.0), 40, seed=5)
        with pytest.raises(NotConverged) as info:
            fit_gev_mle(z)
        fit = info.value.fit
        assert fit.params.xi <= -1.0
        assert fit.converged is False
        assert any("unbounded" in note for note in fit.notes())
        with caplog.at_level(logging.DEBUG, logger="voipqos.evt.select"):
            ranked = {f.family for f in select_model(z)}
        assert "GEV" not in ranked and ranked
        assert any("excluding GEV: no maximum" in r.getMessage()
                   for r in caplog.records)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fit_gev_mle(np.arange(19, dtype=float))

    def test_degenerate_data(self):
        with pytest.raises(DegenerateData):
            fit_gev_mle(np.full(50, 25.0))

    def test_nonfinite_data(self):
        from voipqos import DomainError

        z = np.arange(30, dtype=float)
        z[7] = math.nan
        with pytest.raises(DomainError):
            fit_gev_mle(z)

    def test_not_converged_carries_best_fit(self):
        z = gev_sample(GevParams(xi=0.3, sigma=2.0, mu=10.0), 1000, seed=6)
        with pytest.raises(NotConverged) as info:
            fit_gev_mle(z, max_iter=1)
        fit = info.value.fit
        assert fit is not None
        assert fit.converged is False
        assert fit.iterations == 1
        assert math.isfinite(fit.loglik)


class TestProperties:
    @given(
        seed=st.integers(0, 2**31 - 1),
        xi=st.floats(-0.45, 0.8),
        sigma=st.floats(0.5, 20.0),
        mu=st.floats(-50.0, 50.0),
    )
    @settings(max_examples=20)
    def test_location_scale_equivariance(self, seed, xi, sigma, mu):
        z = gev_sample(GevParams(xi=xi, sigma=sigma, mu=mu), 800, seed=seed)
        a, b = 2.5, 7.0
        base = fit_gev_mle(z)
        moved = fit_gev_mle(a * z + b)
        assert moved.params.xi == pytest.approx(base.params.xi, abs=1e-4)
        assert moved.params.sigma == pytest.approx(a * base.params.sigma, rel=1e-4)
        assert moved.params.mu == pytest.approx(a * base.params.mu + b, rel=1e-4)

    @given(
        seed=st.integers(0, 2**31 - 1),
        xi=st.floats(-0.45, 1.2),
        sigma=st.floats(0.5, 20.0),
    )
    @settings(max_examples=20)
    def test_loglik_never_below_start(self, seed, xi, sigma):
        # Whatever happens inside the line search, the reached optimum
        # must dominate the moment-based starting guess, converged or not.
        z = gev_sample(GevParams(xi=xi, sigma=sigma, mu=10.0), 600, seed=seed)
        try:
            fit = fit_gev_mle(z)
        except NotConverged as exc:
            fit = exc.fit
        s = float(np.std(z, ddof=1))
        sigma0 = s * math.sqrt(6.0) / math.pi
        mu0 = float(np.mean(z)) - 0.5772 * sigma0
        start = gev_loglik(GevParams(xi=0.1, sigma=sigma0, mu=mu0), z)
        assert fit.loglik >= start - 1e-9

    @given(
        seed=st.integers(0, 2**31 - 1),
        xi=st.floats(-0.45, 1.2),
        sigma=st.floats(0.5, 20.0),
        n=st.integers(20, 600),
    )
    @settings(max_examples=30)
    def test_loglik_never_below_pwm_start(self, seed, xi, sigma, n):
        z = gev_sample(GevParams(xi=xi, sigma=sigma, mu=10.0), n, seed=seed)
        start = _pwm_init(np.sort(z))
        assume(start is not None)
        try:
            fit = fit_gev_mle(z)
        except NotConverged as exc:
            fit = exc.fit
        ll0 = gev_loglik(GevParams(*start), z)
        assert math.isfinite(ll0)
        assert fit.loglik >= ll0 - 1e-9 * abs(ll0)

    @given(data=st.data())
    @settings(max_examples=15)
    def test_arbitrary_positive_data_fits_or_raises_cleanly(self, data):
        values = data.draw(
            st.lists(
                st.floats(0.001, 1e5, allow_nan=False, allow_infinity=False),
                min_size=20,
                max_size=120,
            )
        )
        z = np.asarray(values)
        if np.ptp(z) == 0.0:
            with pytest.raises(DegenerateData):
                fit_gev_mle(z)
            return
        try:
            fit = fit_gev_mle(z)
        except NotConverged as exc:
            fit = exc.fit
            assert fit is not None
        assert math.isfinite(fit.loglik)
        assert fit.params.sigma > 0
