"""BIC-ranked model selection across candidate families."""

import math

import numpy as np
import pytest

from voipqos import (
    DomainError,
    GevParams,
    TooFewPoints,
    default_candidates,
    gev_sample,
    select_model,
)


class TestRanking:
    def test_gev_data_picks_gev_first(self):
        z = gev_sample(GevParams(xi=0.3, sigma=2.0, mu=10.0), 5000, seed=1)
        fits = select_model(z)
        assert fits[0].family == "GEV"
        assert list(fits[0].params) == ["xi", "sigma", "mu"]
        # BIC column is sorted.
        bics = [f.bic for f in fits]
        assert bics == sorted(bics)

    def test_normal_data_picks_normal_first(self):
        rng = np.random.default_rng(2)
        z = rng.normal(50.0, 4.0, size=5000)
        fits = select_model(z)
        assert fits[0].family == "Normal"

    def test_exponential_data_prefers_one_parameter_family(self):
        rng = np.random.default_rng(3)
        z = rng.exponential(2.0, size=5000)
        fits = select_model(z)
        assert fits[0].family in ("Exponential", "Gamma", "Weibull")
        # The exponential fit itself must be near the top and its BIC
        # within a whisker of the winner: same likelihood, fewer params.
        exp_fit = next(f for f in fits if f.family == "Exponential")
        assert exp_fit.bic <= fits[0].bic + math.log(5000)

    def test_loglik_and_bic_consistent(self):
        z = gev_sample(GevParams(xi=-0.2, sigma=3.0, mu=20.0), 1000, seed=4)
        for f in select_model(z):
            assert f.bic == pytest.approx(f.k * math.log(f.n) - 2.0 * f.loglik)
            assert f.n == 1000


class TestTieBreaks:
    def test_equal_bic_prefers_fewer_parameters_then_name(self):
        # Duplicate the gumbel fitter under two aliases with different k
        # via the public candidate type: same family name is validated,
        # so instead check ordering on the real set with a forced tie by
        # patching BIC afterwards is not possible on frozen dataclasses.
        # The observable contract: sort key is (bic, k, family).
        z = gev_sample(GevParams(xi=0.0, sigma=1.0, mu=0.0), 2000, seed=5)
        fits = select_model(z)
        keys = [(f.bic, f.k, f.family) for f in fits]
        assert keys == sorted(keys)

    def test_candidate_subset_restricts_output(self):
        z = gev_sample(GevParams(xi=0.1, sigma=2.0, mu=30.0), 1000, seed=6)
        fits = select_model(z, ["Normal", "Logistic"])
        assert {f.family for f in fits} == {"Normal", "Logistic"}

    def test_permutation_of_candidates_is_irrelevant(self):
        z = gev_sample(GevParams(xi=0.2, sigma=2.0, mu=15.0), 1500, seed=7)
        forward = select_model(z, default_candidates())
        backward = select_model(z, list(reversed(default_candidates())))
        assert [f.family for f in forward] == [f.family for f in backward]


class TestExclusions:
    def test_negative_data_excludes_positive_only_families(self):
        rng = np.random.default_rng(8)
        z = rng.normal(-50.0, 3.0, size=2000)
        fits = select_model(z)
        families = {f.family for f in fits}
        for needs_positive in ("Weibull", "LogNormal", "Gamma", "Rayleigh", "Exponential"):
            assert needs_positive not in families
        assert "Normal" in families

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            select_model(np.arange(10, dtype=float))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_data_rejected(self, bad):
        # refused whole, not excluded family by family
        z = np.append(np.arange(1.0, 41.0), bad)
        with pytest.raises(DomainError, match="non-finite"):
            select_model(z)

    def test_repeated_family_rejected(self):
        with pytest.raises(DomainError, match=r"more than once: \['Normal'\]"):
            select_model(np.arange(1.0, 41.0), ["Normal", "Normal", "GEV"])

    def test_unknown_family_rejected_at_construction(self):
        # names are checked before the data size
        with pytest.raises(DomainError, match="'Cauchy'"):
            select_model(np.arange(10, dtype=float), ["GEV", "Cauchy"])


class TestJsonShape:
    def test_family_fit_serializes(self):
        import json

        z = gev_sample(GevParams(xi=0.25, sigma=5.0, mu=100.0), 800, seed=9)
        fits = select_model(z)
        blob = json.loads(json.dumps([f.to_json_dict() for f in fits]))
        assert blob[0]["family"] == fits[0].family
        assert set(blob[0]) >= {"family", "k", "params", "loglik", "bic", "n"}
