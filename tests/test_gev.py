"""GEV evaluators: CDF, PDF, quantile, sampling, log-likelihood, classify."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voipqos import (
    DomainError,
    EmptyData,
    FitRegime,
    GevParams,
    TailKind,
    classify,
    gev_cdf,
    gev_logpdf,
    gev_loglik,
    gev_pdf,
    gev_quantile,
    gev_sample,
    ks_distance,
)
from tests.gev_models import ALL_MODELS, JITTER_MODELS, RTT_MODELS

# Frozen spot value: CDF at x=150 for (xi=0.2, sigma=15, mu=120), computed
# once with 50-digit mpmath arithmetic and pasted here as a constant.
CDF_SPOT = 0.83032803607780859286

# Frozen spot value: Gumbel density at the mode is 1/(e*sigma); for sigma=2
# this is exp(-1)/2, again frozen from high-precision arithmetic.
GUMBEL_MODE_PDF = 0.1839397205857211608

EXP_NEG1 = 0.3678794411714423216


def params(xi, sigma, mu):
    return GevParams(xi=xi, sigma=sigma, mu=mu)


# A mix of shapes that exercises all three tails.
SPOT_PARAMS = [
    params(0.2, 15.0, 120.0),
    params(-0.437297, 2.42213, 7.56518),
    params(0.0, 1.0, 0.0),
    params(1.5807, 21.0076, 139.0054),
    params(-0.9, 3.0, -5.0),
]

model_rows = pytest.mark.parametrize(
    "row", sorted(ALL_MODELS.items()), ids=lambda kv: kv[0]
)


class TestCdf:
    def test_frozen_spot_value(self):
        got = gev_cdf(params(0.2, 15.0, 120.0), 150.0)
        assert got == pytest.approx(CDF_SPOT, abs=1e-15)

    def test_cdf_at_mu_is_exp_neg1(self):
        # At x=mu the argument collapses to 1 regardless of shape.
        for p in SPOT_PARAMS:
            assert gev_cdf(p, p.mu) == pytest.approx(EXP_NEG1, abs=1e-15)

    def test_bounded_tail_endpoint_saturates(self):
        xi, sigma, mu, _ = JITTER_MODELS["G722"]
        p = params(xi, sigma, mu)
        endpoint = mu - sigma / xi
        assert endpoint == pytest.approx(13.10404717722737636, rel=1e-15)
        assert gev_cdf(p, endpoint) == 1.0
        assert gev_cdf(p, endpoint + 1e3) == 1.0

    def test_heavy_tail_lower_endpoint_is_zero(self):
        xi, sigma, mu, _ = RTT_MODELS["MPEG-16"]
        p = params(xi, sigma, mu)
        endpoint = mu - sigma / xi
        assert gev_cdf(p, endpoint) == 0.0
        assert gev_cdf(p, endpoint - 1e3) == 0.0

    def test_gumbel_branch_closed_form(self):
        p = params(0.0, 2.0, 1.0)
        for x in (-3.0, 0.0, 1.0, 2.5, 40.0):
            want = math.exp(-math.exp(-(x - 1.0) / 2.0))
            assert gev_cdf(p, x) == pytest.approx(want, rel=1e-14)

    def test_vector_input_matches_scalar(self):
        p = params(0.2, 15.0, 120.0)
        xs = np.array([100.0, 120.0, 150.0, 1e6])
        vec = gev_cdf(p, xs)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert v == gev_cdf(p, float(x))

    @given(
        xi=st.floats(-1.0, 1.0),
        sigma=st.floats(0.05, 50.0),
        mu=st.floats(-100.0, 100.0),
        a=st.floats(-400.0, 400.0),
        b=st.floats(-400.0, 400.0),
    )
    def test_monotone_nondecreasing(self, xi, sigma, mu, a, b):
        p = params(xi, sigma, mu)
        lo, hi = min(a, b), max(a, b)
        assert gev_cdf(p, lo) <= gev_cdf(p, hi)

    @given(
        xi=st.floats(-1.0, 1.0),
        sigma=st.floats(0.05, 50.0),
        mu=st.floats(-100.0, 100.0),
    )
    def test_limits(self, xi, sigma, mu):
        # The upper tail decays only polynomially when xi>0, so the
        # tolerance reflects the slowest case in the strategy ranges:
        # 1 - F(mu + 1e9) = (1 + 1e9/50)^(-1) ~ 5e-8.
        p = params(xi, sigma, mu)
        far = 1e9
        assert gev_cdf(p, mu - far) == pytest.approx(0.0, abs=1e-7)
        assert gev_cdf(p, mu + far) == pytest.approx(1.0, abs=1e-7)


class TestPdf:
    def test_gumbel_mode_density(self):
        p = params(0.0, 2.0, 7.0)
        assert gev_pdf(p, 7.0) == pytest.approx(GUMBEL_MODE_PDF, abs=1e-15)

    def test_zero_off_support(self):
        xi, sigma, mu, _ = JITTER_MODELS["SPX-16"]
        p = params(xi, sigma, mu)
        above = mu - sigma / xi + 0.5
        assert gev_pdf(p, above) == 0.0
        assert gev_logpdf(p, above) == -math.inf

    @given(
        xi=st.floats(-0.9, 1.0),
        sigma=st.floats(0.1, 30.0),
        mu=st.floats(-50.0, 50.0),
        u=st.floats(0.02, 0.98),
    )
    def test_pdf_is_cdf_derivative(self, xi, sigma, mu, u):
        # Central finite difference of the CDF at an interior quantile.
        p = params(xi, sigma, mu)
        x = gev_quantile(p, u)
        h = 1e-6 * max(1.0, abs(x))
        fd = (gev_cdf(p, x + h) - gev_cdf(p, x - h)) / (2.0 * h)
        assert gev_pdf(p, x) == pytest.approx(fd, rel=5e-5, abs=1e-12)

    @model_rows
    def test_pdf_mass_matches_probability_window(self, row):
        # Trapezoid quadrature on a quantile-spaced grid, which stays
        # well-resolved even for the heavy-tail rows where an even grid
        # out to the 1-1e-13 quantile would starve the mode of points.
        _, (xi, sigma, mu, _) = row
        p = params(xi, sigma, mu)
        a, b = 0.001, 0.995
        xs = gev_quantile(p, np.linspace(a, b, 200_001))
        mass = np.trapezoid(gev_pdf(p, xs), xs)
        assert mass == pytest.approx(b - a, abs=1e-4)

    def test_gumbel_continuity_in_xi(self):
        # Evaluations just either side of xi=0 must agree with the
        # closed-form Gumbel branch to many digits.
        for x in (-1.0, 0.3, 4.0):
            base = gev_pdf(params(0.0, 2.0, 1.0), x)
            for xi in (1e-7, -1e-7):
                near = gev_pdf(params(xi, 2.0, 1.0), x)
                assert near == pytest.approx(base, rel=1e-5)


class TestQuantile:
    def test_median_spot(self):
        p = params(0.0, 1.0, 0.0)
        want = -math.log(math.log(2.0))
        assert gev_quantile(p, 0.5) == pytest.approx(want, rel=1e-14)

    def test_exp_neg1_maps_to_mu(self):
        for p in SPOT_PARAMS:
            assert gev_quantile(p, EXP_NEG1) == pytest.approx(p.mu, rel=1e-9, abs=1e-9)

    @given(
        xi=st.floats(-1.0, 1.0),
        sigma=st.floats(0.05, 50.0),
        mu=st.floats(-100.0, 100.0),
        u=st.floats(1e-6, 1.0 - 1e-6),
    )
    def test_round_trip(self, xi, sigma, mu, u):
        p = params(xi, sigma, mu)
        x = gev_quantile(p, u)
        assert gev_cdf(p, x) == pytest.approx(u, rel=1e-9, abs=1e-12)

    def test_rejects_outside_unit_interval(self):
        p = params(0.1, 1.0, 0.0)
        for u in (0.0, 1.0, -0.2, 1.7, math.nan):
            with pytest.raises(DomainError):
                gev_quantile(p, u)

    def test_vectorized(self):
        p = params(-0.3, 2.0, 5.0)
        us = np.array([0.1, 0.5, 0.9])
        xs = gev_quantile(p, us)
        assert np.all(np.diff(xs) > 0)


class TestSample:
    def test_deterministic_for_seed(self):
        p = params(0.2077, 12.0708, 123.9454)
        a = gev_sample(p, 1000, seed=7)
        b = gev_sample(p, 1000, seed=7)
        c = gev_sample(p, 1000, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_samples_lie_in_support(self):
        for key, (xi, sigma, mu, _) in sorted(ALL_MODELS.items()):
            p = params(xi, sigma, mu)
            z = gev_sample(p, 5000, seed=11)
            lo, hi = p.support()
            assert np.all(z >= lo) and np.all(z <= hi), key

    def test_large_sample_matches_cdf(self):
        xi, sigma, mu, _ = JITTER_MODELS["GSM"]
        p = params(xi, sigma, mu)
        z = gev_sample(p, 100_000, seed=42)
        assert ks_distance(z, lambda x: gev_cdf(p, x)) < 0.01

    def test_heavy_tail_sample_mean(self):
        # For xi<1 the mean is mu + sigma*(Gamma(1-xi)-1)/xi; the OPUS
        # round-trip model has mean 133.99916... and a million draws land
        # within a fraction of a millisecond of it.
        xi, sigma, mu, _ = RTT_MODELS["OPUS"]
        want = mu + sigma * (math.gamma(1.0 - xi) - 1.0) / xi
        assert want == pytest.approx(133.99916033817917053, rel=1e-12)
        z = gev_sample(params(xi, sigma, mu), 1_000_000, seed=3)
        assert z.mean() == pytest.approx(want, abs=0.5)


class TestLoglik:
    def test_single_point_gumbel(self):
        # One observation at mu with sigma=1: -ln 1 - w - e^{-w} with w=0.
        p = params(0.0, 1.0, 0.0)
        assert gev_loglik(p, np.array([0.0])) == pytest.approx(-1.0, abs=1e-15)

    def test_matches_sum_of_logpdf(self):
        xi, sigma, mu, _ = RTT_MODELS["G729"]
        p = params(xi, sigma, mu)
        z = gev_sample(p, 500, seed=5)
        want = float(np.sum(gev_logpdf(p, z)))
        assert gev_loglik(p, z) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("xi", [0.0, 5e-7, -5e-7, 2e-6, -2e-6, 0.3])
    def test_matches_sum_of_logpdf_near_zero_shape(self, xi):
        # one evaluation path for every shape: no Gumbel switch below
        # XI_EPS in the density that the log-likelihood lacks
        z = gev_sample(params(0.0, 2.0, 8.0), 1000, seed=13)
        p = params(xi, 2.0, 8.0)
        want = float(np.sum(gev_logpdf(p, z)))
        assert gev_loglik(p, z) == pytest.approx(want, rel=1e-12)

    def test_neg_inf_off_support(self):
        p = params(-0.5, 1.0, 0.0)  # support ends at mu + 2
        z = np.array([0.0, 1.0, 5.0])
        assert gev_loglik(p, z) == -math.inf

    def test_empty_data_raises(self):
        with pytest.raises(EmptyData):
            gev_loglik(params(0.1, 1.0, 0.0), np.array([]))


class TestClassify:
    @pytest.mark.parametrize(
        "xi,tail,regime",
        [
            (0.3, TailKind.FRECHET, FitRegime.STANDARD),
            (1.5807, TailKind.FRECHET, FitRegime.STANDARD),
            (0.0, TailKind.GUMBEL, FitRegime.STANDARD),
            (5e-7, TailKind.GUMBEL, FitRegime.STANDARD),
            (-5e-7, TailKind.GUMBEL, FitRegime.STANDARD),
            (-0.3, TailKind.WEIBULL, FitRegime.STANDARD),
            (-0.49, TailKind.WEIBULL, FitRegime.STANDARD),
            (-0.5, TailKind.WEIBULL, FitRegime.ATTAINABLE),
            (-0.7, TailKind.WEIBULL, FitRegime.ATTAINABLE),
            (-1.0, TailKind.WEIBULL, FitRegime.UNRELIABLE),
            (-1.3, TailKind.WEIBULL, FitRegime.UNRELIABLE),
        ],
    )
    def test_thresholds(self, xi, tail, regime):
        got = classify(params(xi, 1.0, 0.0))
        assert got.tail is tail
        assert got.regime is regime

    @model_rows
    def test_model_rows_all_standard(self, row):
        key, (xi, sigma, mu, _) = row
        got = classify(params(xi, sigma, mu))
        assert got.regime is FitRegime.STANDARD
        if key.startswith("jitter-"):
            assert got.tail is TailKind.WEIBULL
        else:
            assert got.tail is TailKind.FRECHET


class TestParamsValidation:
    def test_rejects_bad_sigma(self):
        for sigma in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                GevParams(xi=0.1, sigma=sigma, mu=0.0)

    def test_rejects_nonfinite_xi_mu(self):
        with pytest.raises(DomainError):
            GevParams(xi=math.nan, sigma=1.0, mu=0.0)
        with pytest.raises(DomainError):
            GevParams(xi=0.1, sigma=1.0, mu=math.inf)

    def test_support_shapes(self):
        lo, hi = params(0.4, 2.0, 10.0).support()
        assert lo == 10.0 - 2.0 / 0.4 and hi == math.inf
        lo, hi = params(-0.4, 2.0, 10.0).support()
        assert lo == -math.inf and hi == 10.0 + 2.0 / 0.4
        lo, hi = params(0.0, 2.0, 10.0).support()
        assert lo == -math.inf and hi == math.inf
        # any nonzero shape has an endpoint, where the density drops to 0
        p = params(5e-7, 2.0, 10.0)
        lo, hi = p.support()
        assert lo == 10.0 - 2.0 / 5e-7 and hi == math.inf
        assert gev_pdf(p, lo) == 0.0 and gev_cdf(p, lo) == 0.0


class TestKsDistance:
    def test_exact_value_on_constructed_grid(self):
        # Placing the i-th point at the ((i-0.5)/n)-quantile makes every
        # step straddle the CDF symmetrically, so the distance is 0.5/n.
        p = params(0.2, 15.0, 120.0)
        n = 40
        z = gev_quantile(p, (np.arange(1, n + 1) - 0.5) / n)
        d = ks_distance(z, lambda x: gev_cdf(p, x))
        assert d == pytest.approx(0.5 / n, rel=1e-12)

    def test_detects_gross_mismatch(self):
        p = params(0.0, 1.0, 0.0)
        z = gev_sample(params(0.0, 1.0, 50.0), 2000, seed=9)
        assert ks_distance(z, lambda x: gev_cdf(p, x)) > 0.9

    def test_cdf_must_return_one_value_per_point(self):
        with pytest.raises(DomainError, match="one value per point"):
            ks_distance([1.0, 2.0, 3.0], lambda x: 0.5)
