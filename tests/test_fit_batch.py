"""Batched GEV fits against the scalar fit they replaced.

``fit_gev_batch`` steps every small sample whose start allows it in
batched damped-Newton runs of bounded size, with each sample's sums
taken by ``np.add.reduceat`` over its own segment. A sample that needs
any other step, or that ends at ``xi <= -1`` or out of iterations, is
fitted on the scalar path, ``fit_gev_mle``'s. ``tests/fits_reference.py`` keeps
the scalar fit as it stood before the batch, and every outcome must
match it: the same status and notes, a log-likelihood never lower by
more than 1e-12 relative, and parameters within 1e-8 of
``max(1, |theta|)``. The scalar path matches it exactly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests import fits_reference as ref
from tests.gev_models import RTT_MODELS
from voipqos.errors import (
    DegenerateData,
    DomainError,
    NotConverged,
    TooFewPoints,
    VoipQosError,
)
from voipqos.evt import (
    GevFit,
    GevParams,
    fit_gev_batch,
    fit_gev_mle,
    gev_cdf,
    gev_sample,
)
from voipqos.evt import fit as fit_module


def _theta(fit: GevFit) -> tuple:
    return fit.params.xi, fit.params.sigma, fit.params.mu


def _reference(z):
    try:
        return ref.fit_gev_mle(z)
    except VoipQosError as exc:
        return exc


def _assert_matches_reference(got, z) -> None:
    want = _reference(z)
    assert type(got) is type(want)
    if isinstance(want, NotConverged):
        assert str(got) == str(want)
        got, want = got.fit, want.fit
    elif not isinstance(want, GevFit):
        assert str(got) == str(want)
        return
    assert got.converged == want.converged
    assert got.notes() == want.notes()
    assert (got.tail, got.regime, got.n) == (want.tail, want.regime, want.n)
    assert got.loglik >= want.loglik - 1e-12 * abs(want.loglik)
    for new, old in zip(_theta(got), _theta(want)):
        assert abs(new - old) <= 1e-8 * max(1.0, abs(old))


@st.composite
def segments(draw):
    """20-400 GEV draws, rounded onto a grid (so values tie) or not."""
    n = draw(st.integers(20, 400))
    xi = draw(st.floats(-0.9, 1.5, exclude_min=True, exclude_max=True))
    sigma = draw(st.floats(0.1, 20.0))
    mu = draw(st.floats(-50.0, 200.0))
    z = gev_sample(GevParams(xi, sigma, mu), n, seed=draw(st.integers(0, 2**31 - 1)))
    if draw(st.booleans()):
        step = sigma * draw(st.sampled_from((0.25, 1.0)))
        z = np.round(z / step) * step
    return z


@given(samples=st.lists(segments(), min_size=1, max_size=5))
@settings(max_examples=120)
def test_batched_fits_match_the_scalar_reference(samples):
    for got, z in zip(fit_gev_batch(samples), samples, strict=True):
        _assert_matches_reference(got, z)


def _scalar_path_samples() -> dict:
    """One sample for each way out of the batch."""
    spx = RTT_MODELS["SPX-16"]
    return {
        # xi reaches -1, where the likelihood is unbounded
        "unbounded": gev_sample(GevParams(-0.6, 1.0, 0.0), 40, seed=5),
        # xi > 1: the start's negated Hessian is not positive-definite,
        # so the start is rebuilt from Gumbel quantiles
        "quantile start": gev_sample(GevParams(*spx[:3]), 2000, seed=8),
        # the PWM start misses the largest point: moment start, widened
        "moment start": np.sort(np.r_[np.linspace(0.0, 1.0, 40) ** 0.3, 1.6]),
        # ridge-shifted steps on the way to xi near -1
        "ridge steps": gev_sample(GevParams(-0.8934275995916446, 2.0, 10.0),
                                  125, seed=1752032165),
    }


def test_every_way_out_of_the_batch_matches_the_reference_exactly(monkeypatch):
    alone = _spy_scalar_path(monkeypatch)
    cases = _scalar_path_samples()
    plain = gev_sample(GevParams(-0.1, 1.8, 7.3), 149, seed=1)
    outcomes = fit_gev_batch([plain, *cases.values()])
    # the plain sample stays in the batch; every other one leaves it
    assert sorted(alone) == sorted(z.size for z in cases.values())
    _assert_matches_reference(outcomes[0], plain)
    for got, (name, z) in zip(outcomes[1:], cases.items()):
        want = _reference(z)
        if isinstance(want, NotConverged):
            assert isinstance(got, NotConverged), name
            got, want = got.fit, want.fit
        assert got == want, name


def test_an_exhausted_budget_matches_the_reference():
    z = gev_sample(GevParams(0.3, 2.0, 10.0), 1000, seed=6)
    for max_iter in (1, 2):
        (got,) = fit_gev_batch([z], max_iter=max_iter)
        with pytest.raises(NotConverged) as want:
            ref.fit_gev_mle(z, max_iter=max_iter)
        assert isinstance(got, NotConverged)
        assert got.fit == want.value.fit
        assert got.fit.iterations == max_iter and not got.fit.converged


def test_a_sample_fits_the_same_in_any_batch():
    samples = [gev_sample(GevParams(xi, 1.5, 5.0), n, seed=n)
               for xi, n in ((-0.3, 149), (0.1, 20), (0.4, 400), (-0.05, 57))]
    forward = fit_gev_batch(samples)
    backward = fit_gev_batch(samples[::-1])[::-1]
    for z, a, b in zip(samples, forward, backward):
        assert a == b == fit_gev_batch([z])[0]
        _assert_matches_reference(a, z)


def test_runs_hold_at_most_batch_run_values(monkeypatch):
    samples = [gev_sample(GevParams(-0.1, 1.8, 7.3), n, seed=n)
               for n in (149, 149, 400, 149, 20, 149)]
    whole = fit_gev_batch(samples)
    runs = []
    batched = fit_module._fit_batched

    def spy(zs, max_iter):
        runs.append([z.size for z in zs])
        return batched(zs, max_iter)

    monkeypatch.setattr(fit_module, "_fit_batched", spy)
    monkeypatch.setattr(fit_module, "BATCH_RUN_VALUES", 300)
    assert fit_gev_batch(samples) == whole
    # a run closes before the value that would overfill it; a sample
    # larger than a run gets one of its own
    assert runs == [[149, 149], [400], [149, 20], [149]]


@given(samples=st.lists(segments(), min_size=1, max_size=3))
@settings(max_examples=30)
def test_the_scalar_path_is_the_reference(samples):
    for z in samples:
        try:
            got = fit_gev_mle(z)
        except NotConverged as exc:
            got = exc.fit
        want = _reference(z)
        assert got == (want.fit if isinstance(want, NotConverged) else want)


def _spy_scalar_path(monkeypatch) -> list:
    """The sizes of the samples fitted on the scalar path, as they are."""
    alone = []
    scalar = fit_module._fit_alone

    def spy(z, max_iter):
        alone.append(z.size)
        return scalar(z, max_iter)

    monkeypatch.setattr(fit_module, "_fit_alone", spy)
    return alone


def test_large_samples_take_the_scalar_path(monkeypatch):
    alone = _spy_scalar_path(monkeypatch)
    big = gev_sample(GevParams(-0.1, 1.8, 7.3), fit_module.BATCH_MAX_POINTS,
                     seed=3)
    small = big[:-1]
    got_big, got_small = fit_gev_batch([big, small])
    assert alone == [big.size]
    assert got_big == fit_gev_mle(big)
    _assert_matches_reference(got_small, small)


def test_invalid_samples_get_their_errors_and_leave_the_rest():
    good = gev_sample(GevParams(0.1, 2.0, 10.0), 300, seed=2)
    nan = good.copy()
    nan[3] = math.nan
    outcomes = fit_gev_batch([np.arange(19.0), good, nan, np.full(40, 2.5),
                              ["x"] * 30])
    assert isinstance(outcomes[0], TooFewPoints)
    assert outcomes[1] == fit_gev_batch([good])[0]
    assert isinstance(outcomes[2], DomainError)
    assert isinstance(outcomes[3], DegenerateData)
    assert isinstance(outcomes[4], ValueError)
    assert fit_gev_batch([]) == []


@given(xi=st.sampled_from((0.0, 5e-7, -5e-7, 2e-6)) | st.floats(-1.5, 1.5),
       sigma=st.floats(0.1, 10.0), mu=st.floats(-10.0, 10.0),
       n=st.integers(1, 300), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=100)
def test_segment_ks_distances_equal_the_scalar_ones(xi, sigma, mu, n, seed):
    # data from another model, so points fall off the support too
    rng = np.random.default_rng(seed)
    z = np.sort(rng.normal(mu, 3.0 * sigma, n))
    other = np.sort(rng.normal(0.0, 1.0, 7))
    theta = np.array([[0.2, 1.0, 0.0], [xi, sigma, mu]])
    seg = fit_module._Segments(np.concatenate([other, z]), [other.size, n])
    got = fit_module._ks_gev(theta, seg)
    p = GevParams(xi, sigma, mu)
    assert got[1] == fit_module._ks_sorted(z, lambda x: gev_cdf(p, x))


def test_rows_that_need_another_step_leave_where_they_stand():
    # f(x) = -x^4 / 4 + x^2: the negated Hessian 3x^2 - 2 is not
    # positive-definite near 0, so that row leaves; the other converges
    def f(th, rows):
        x = th[:, 0]
        return -x ** 4 / 4.0 + x * x

    def derivs(th, rows):
        x = th[:, 0]
        return (-x ** 3 + 2.0 * x)[:, None], (-3.0 * x * x + 2.0)[:, None, None]

    theta, _, iterations, converged = fit_module._newton_batch(
        f, derivs, np.array([[0.1], [3.0]]))
    assert iterations[0] == 0 and not converged[0] and theta[0, 0] == 0.1
    assert converged[1] and theta[1, 0] == pytest.approx(math.sqrt(2.0))
