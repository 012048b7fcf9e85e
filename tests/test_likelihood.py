"""The numpy likelihood engine against scipy, which only the tests import.

Each ranked log-likelihood, the maximum its family's fit reached, must
equal the scipy.stats logpdf sum at the ranked parameters; the digamma
and trigamma helpers must equal scipy.special, the analytic GEV
derivatives central differences of the log-likelihood, and every
iterative fitter must reach at least the likelihood of scipy's own
``fit``.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy import special as sp
from scipy import stats

import voipqos
from voipqos import GevParams, default_candidates, gev_sample, select_model
from voipqos.evt import MIN_FIT_POINTS
from tests.gev_models import JITTER_MODELS, RTT_MODELS
from voipqos.evt.fit import _gev_derivs, _Sample
from voipqos.evt.gev import _loglik_kernel
from voipqos.evt.select import _FITTERS, digamma, trigamma

# family -> (scipy distribution, scipy args from our params in report order)
SCIPY = {
    "GEV": (stats.genextreme, lambda xi, sigma, mu: (-xi, mu, sigma)),
    "Gumbel": (stats.gumbel_r, lambda loc, scale: (loc, scale)),
    "Weibull": (stats.weibull_min, lambda c, scale: (c, 0.0, scale)),
    "Normal": (stats.norm, lambda loc, scale: (loc, scale)),
    "LogNormal": (stats.lognorm, lambda s, scale: (s, 0.0, scale)),
    "Exponential": (stats.expon, lambda scale: (0.0, scale)),
    "Gamma": (stats.gamma, lambda a, scale: (a, 0.0, scale)),
    "Logistic": (stats.logistic, lambda loc, scale: (loc, scale)),
    "GeneralizedPareto": (stats.genpareto, lambda c, loc, scale: (c, loc, scale)),
    "Rayleigh": (stats.rayleigh, lambda scale: (0.0, scale)),
}

shape = st.floats(0.3, 8.0)
scale = st.floats(0.05, 500.0)
loc = st.floats(-200.0, 200.0)
# family -> strategy of parameter tuples, in report order
PARAMS = {
    "GEV": st.tuples(st.sampled_from([0.0, 1e-9, -1e-7, 1e-4]) | st.floats(-0.6, 1.5),
                     scale, loc),
    "Gumbel": st.tuples(loc, scale),
    "Weibull": st.tuples(shape, scale),
    "Normal": st.tuples(loc, scale),
    "LogNormal": st.tuples(st.floats(0.05, 3.0), scale),
    "Exponential": st.tuples(scale),
    "Gamma": st.tuples(shape, scale),
    "Logistic": st.tuples(loc, scale),
    "GeneralizedPareto": st.tuples(st.sampled_from([0.0, 1e-9]) | st.floats(-0.9, 1.5),
                                   loc, scale),
    "Rayleigh": st.tuples(scale),
}


def scipy_terms(family, params, z):
    dist, args = SCIPY[family]
    return dist.logpdf(z, *args(*params))


class TestLoglikParity:
    @pytest.mark.parametrize("family", default_candidates())
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_scipy_logpdf_sum(self, family, data):
        # the ranked loglik, at the ranked params
        params = data.draw(PARAMS[family])
        n = data.draw(st.integers(MIN_FIT_POINTS, 400))
        seed = data.draw(st.integers(0, 2**32 - 1))
        dist, args = SCIPY[family]
        z = dist.rvs(*args(*params), size=n, random_state=seed)
        ranking = select_model(z, [family])
        if family in ("GEV", "GeneralizedPareto"):
            # excluded without a maximum at xi > -1 (c > -1), as tested apart
            assume(ranking)
        (entry,) = ranking
        terms = scipy_terms(family, list(entry.params.values()), z)
        assert np.all(np.isfinite(terms))
        # relative to the summed magnitudes: the total itself may cancel
        assert (abs(entry.loglik - float(np.sum(terms)))
                <= 1e-10 * float(np.sum(np.abs(terms))))

    @pytest.mark.parametrize("z", [
        # the model_select workload's samples: 3e4 draws of a G711-A row
        gev_sample(GevParams(*JITTER_MODELS["G711-A"][:3]), 30_000, seed=7),
        gev_sample(GevParams(*RTT_MODELS["G711-A"][:3]), 30_000, seed=8),
        stats.gamma(2.5, 0.0, 3.0).rvs(size=2000, random_state=1),
        stats.weibull_min(1.7, 0.0, 5.0).rvs(size=2000, random_state=2),
        stats.lognorm(0.8, 0.0, 20.0).rvs(size=2000, random_state=3),
        stats.genpareto(0.2, 1.0, 2.0).rvs(size=2000, random_state=4),
        stats.logistic(-4.0, 0.7).rvs(size=2000, random_state=5),
        stats.rayleigh(0.0, 3.0).rvs(size=2000, random_state=6),
    ], ids=["gev-jitter", "gev-rtt", "gamma", "weibull", "lognormal",
            "genpareto", "logistic", "rayleigh"])
    def test_ranked_loglik_within_1e_12_of_the_data_sum(self, z):
        # each fit's maximum, mapped back from a standardized or profiled
        # scale, stands for the log-likelihood summed on the data
        ranking = select_model(z)
        assert len(ranking) == (5 if z.min() < 0.0 else 10)
        for entry in ranking:
            terms = scipy_terms(entry.family, list(entry.params.values()), z)
            want = math.fsum(terms)
            assert abs(entry.loglik - want) <= 1e-12 * abs(want), entry.family

    @pytest.mark.parametrize("family,bad,reason", [
        ("Weibull", -1.0, "family needs strictly positive data"),
        ("LogNormal", 0.0, "family needs strictly positive data"),
        ("Gamma", 0.0, "family needs strictly positive data"),
        ("Exponential", -1.0, "family needs non-negative data"),
        ("Rayleigh", -1.0, "family needs non-negative data"),
        # on the support's closed end the density is 0
        ("Rayleigh", 0.0, "non-finite log-likelihood"),
    ], ids=["Weibull-negative", "LogNormal-zero", "Gamma-zero",
            "Exponential-negative", "Rayleigh-negative", "Rayleigh-zero"])
    def test_off_support_data_exclude_the_family(self, family, bad, reason):
        z = np.append(np.linspace(1.0, 4.0, 40), bad)
        ranking = select_model(z, [family, "Normal"])
        assert [f.family for f in ranking] == ["Normal"]
        assert str(ranking.excluded[family]) == reason


class TestSpecialFunctions:
    GRID = np.concatenate([
        np.logspace(-3, 6, 400),
        1.4616321449683622 + np.array([-0.3, -0.2, -1e-3, -1e-9, -1e-15, 0.0,
                                       1e-15, 1e-9, 1e-3, 0.2, 0.3]),
        [0.5, 1.0, 2.0, 9.999999, 10.0, 10.000001],
    ])

    def test_digamma_grid(self):
        want = sp.digamma(self.GRID)
        got = np.array([digamma(x) for x in self.GRID])
        assert np.max(np.abs(got / want - 1.0)) <= 1e-13

    def test_trigamma_grid(self):
        want = sp.polygamma(1, self.GRID)
        got = np.array([trigamma(x) for x in self.GRID])
        assert np.max(np.abs(got / want - 1.0)) <= 1e-13

    @given(st.floats(1e-3, 1e6))
    def test_digamma_and_trigamma(self, x):
        assert digamma(x) == pytest.approx(float(sp.digamma(x)), rel=1e-13)
        assert trigamma(x) == pytest.approx(float(sp.polygamma(1, x)), rel=1e-13)


class TestGevDerivatives:
    Z = gev_sample(GevParams(0.1, 2.0, 10.0), 300, seed=3)

    @staticmethod
    def f(theta, z):
        return _loglik_kernel(theta[0], theta[1], theta[2], z)

    @pytest.mark.parametrize(
        "xi", [0.0, 1e-7, -1e-7, 1e-5, -1e-5, 1e-3, -1e-3, -0.4, 0.3, 1.2])
    def test_match_central_differences(self, xi):
        z = self.Z
        theta = np.array([xi, 2.5, 9.5])
        while not math.isfinite(self.f(theta, z)):
            theta[1] *= 2.0  # widen until every point is on support
        (g,), (hess,) = _gev_derivs(theta[None], _Sample(z))
        h = 1e-4
        fd_g = np.empty(3)
        fd_h = np.empty((3, 3))
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            # fourth-order central difference of the log-likelihood
            fd_g[i] = (-self.f(theta + 2 * e, z) + 8 * self.f(theta + e, z)
                       - 8 * self.f(theta - e, z) + self.f(theta - 2 * e, z)) / (12 * h)
            for j in range(3):
                d = np.zeros(3)
                d[j] = h
                fd_h[i, j] = (self.f(theta + e + d, z) - self.f(theta + e - d, z)
                              - self.f(theta - e + d, z)
                              + self.f(theta - e - d, z)) / (4 * h * h)
        assert np.max(np.abs(g - fd_g)) <= 1e-7 * np.max(np.abs(g))
        assert np.max(np.abs(hess - fd_h)) <= 1e-5 * np.max(np.abs(hess))
        assert np.array_equal(hess, hess.T)

    def test_continuous_through_zero(self):
        z = self.Z
        (ref_g,), (ref_h,) = _gev_derivs(np.array([[0.0, 2.5, 9.5]]), _Sample(z))
        for xi in (1e-12, -1e-12, 1e-9, -1e-9):
            (g,), (hess,) = _gev_derivs(np.array([[xi, 2.5, 9.5]]), _Sample(z))
            assert np.max(np.abs(g - ref_g)) <= 1e-6 * np.max(np.abs(ref_g))
            assert np.max(np.abs(hess - ref_h)) <= 1e-6 * np.max(np.abs(ref_h))


def fit_ours(family, z):
    ranking = select_model(z, [family])
    assert family not in ranking.excluded, ranking.excluded
    (entry,) = ranking
    return list(entry.params.values()), entry.loglik


def fit_scipy(family, z):
    dist, args = SCIPY[family]
    if family in ("Weibull", "Gamma"):
        p = dist.fit(z, floc=0.0)
        ours = (p[0], p[2])
    elif family == "GEV":
        c, loc_, scale_ = dist.fit(z)
        ours = (-c, scale_, loc_)
    else:
        ours = dist.fit(z)
    return list(ours), float(np.sum(dist.logpdf(z, *args(*ours))))


# (family, sample drawn from it, whether scipy is known to stop short)
FIT_CASES = [
    ("Gumbel", stats.gumbel_r(3.0, 2.0), False),
    ("Logistic", stats.logistic(-4.0, 0.7), False),
    ("Gamma", stats.gamma(2.5, 0.0, 3.0), False),
    ("Gamma", stats.gamma(0.4, 0.0, 1.0), False),
    ("Weibull", stats.weibull_min(1.7, 0.0, 5.0), True),
    ("Weibull", stats.weibull_min(0.6, 0.0, 0.01), True),
    ("GeneralizedPareto", stats.genpareto(0.3, 1.0, 2.0), True),
    ("GeneralizedPareto", stats.genpareto(-0.3, 0.0, 2.0), True),
    ("GEV", stats.genextreme(-0.2, 10.0, 2.0), False),
    ("GEV", stats.genextreme(0.3, 120.0, 14.0), False),
]


class TestFitters:
    @pytest.mark.parametrize("family,dist,stops_short", FIT_CASES)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_at_least_scipy_fit(self, family, dist, stops_short, seed):
        z = dist.rvs(size=2000, random_state=seed)
        params, ll = fit_ours(family, z)
        ref_params, ref_ll = fit_scipy(family, z)
        assert ll >= ref_ll - 1e-6
        if not stops_short:
            assert ll == pytest.approx(ref_ll, abs=1e-6)
            assert params == pytest.approx(ref_params, rel=1e-4)

    def test_genpareto_location_is_sample_minimum(self):
        z = stats.genpareto(0.2, 3.0, 1.5).rvs(size=500, random_state=4)
        params, _ = _FITTERS["GeneralizedPareto"].fit(z)
        assert params["loc"] == float(z.min())
        assert params["c"] > -1.0

    def test_genpareto_without_interior_maximum_is_excluded(self):
        # a density rising toward a bounded endpoint pulls c below -1
        z = 10.0 * stats.beta(6.0, 0.6).rvs(size=500, random_state=5)
        with pytest.raises(ValueError):
            _FITTERS["GeneralizedPareto"].fit(z)
        assert "GeneralizedPareto" not in {f.family for f in select_model(z)}


class TestSelectModelRobust:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=MIN_FIT_POINTS, max_size=60))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_finite_data_ranks_known_families(self, values):
        fits = select_model(np.asarray(values))
        keys = [(f.bic, f.k, f.family) for f in fits]
        assert keys == sorted(keys)
        assert {f.family for f in fits} <= set(default_candidates())
        assert len({f.family for f in fits}) == len(fits)
        for f in fits:
            assert math.isfinite(f.loglik) and math.isfinite(f.bic)


def test_cli_import_loads_no_scipy():
    src = str(Path(voipqos.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import voipqos.cli; import sys; "
         "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"
