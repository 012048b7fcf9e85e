"""The one Newton loop and the batched GEV fits against the loops they replaced.

``_ascend`` steps one objective per row, and each row takes the Newton,
ridge-shifted or scaled-ascent step its own derivatives allow, so it
ends exactly where it ends alone. ``maximize`` is that loop on one row,
and every ``select`` family fits through it as through the reference
loop. ``fit_gev_batch`` fits the small samples in batched runs, each
sample's sums taken by ``np.add.reduceat`` over its own segment; a
sample of ``BATCH_MAX_POINTS`` values or more, or one whose batched fit
is not a converged maximum at ``xi > -1``, is fitted by ``fit_gev_mle``.
``tests/fits_reference.py`` keeps the scalar fit as it stood before the
batch, and every outcome must match it: the same status and notes, a
log-likelihood never lower by more than 1e-12 relative, and parameters
within 1e-8 of ``max(1, |theta|)``. ``fit_gev_mle`` matches it exactly.
Every fit's ``e_max`` is ``ks_distance`` to its own CDF.
"""

from __future__ import annotations

import math
from unittest import mock

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
    MIN_FIT_POINTS,
    GevFit,
    GevParams,
    fit_gev_batch,
    fit_gev_mle,
    gev_cdf,
    gev_sample,
    ks_distance,
)
from voipqos.evt import fit as fit_module
from voipqos.evt import select


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
    assert got.e_max == ks_distance(z, lambda x: gev_cdf(got.params, x))
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


def _contiguous_path_samples() -> dict:
    """The two that leave the batch, then two that take other steps in it."""
    spx = RTT_MODELS["SPX-16"]
    return {
        # outcome: xi reaches -1, where the likelihood is unbounded
        "unbounded": gev_sample(GevParams(-0.6, 1.0, 0.0), 40, seed=5),
        # size: 2000 values; xi > 1, so the start's negated Hessian is not
        # positive-definite and the start is rebuilt from Gumbel quantiles
        "quantile start": gev_sample(GevParams(*spx[:3]), 2000, seed=8),
        # the PWM start misses the largest point: moment start, widened
        "moment start": np.sort(np.r_[np.linspace(0.0, 1.0, 40) ** 0.3, 1.6]),
        # ridge-shifted steps on the way to xi = -0.74
        "ridge steps": gev_sample(GevParams(-0.7, 2.0, 10.0), 60, seed=3),
    }


def test_size_and_outcome_send_a_sample_to_the_contiguous_path(monkeypatch):
    alone = _spy_scalar_path(monkeypatch)
    cases = _contiguous_path_samples()
    plain = gev_sample(GevParams(-0.1, 1.8, 7.3), 149, seed=1)
    outcomes = fit_gev_batch([plain, *cases.values()])
    # only the unbounded and the large sample leave the batch
    assert alone == [cases["unbounded"].size, cases["quantile start"].size]
    for got, (name, z) in zip(outcomes[1:3], cases.items()):
        want = _reference(z)
        if isinstance(want, NotConverged):
            assert isinstance(got, NotConverged), name
            assert str(got) == str(want), name
            got, want = got.fit, want.fit
        assert got == want, name
    _assert_matches_reference(outcomes[0], plain)
    for got, z in zip(outcomes[3:], [cases["moment start"], cases["ridge steps"]]):
        _assert_matches_reference(got, z)


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
    batched = fit_module._fit_gev

    def spy(seg, max_iter):
        runs.append(seg.counts.tolist())
        return batched(seg, max_iter)

    monkeypatch.setattr(fit_module, "_fit_gev", spy)
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
    """The sizes of the samples ``fit_gev_batch`` fits by ``fit_gev_mle``."""
    alone = []

    def spy(z, max_iter):
        alone.append(z.size)
        return fit_gev_mle(z, max_iter)

    monkeypatch.setattr(fit_module, "fit_gev_mle", spy)
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


def test_a_start_with_a_non_finite_hessian_keeps_its_start(monkeypatch):
    # the samples of tests/test_cli.py's test_extreme_values_warn_nothing:
    # the Hessian at each start overflows, so the start rule, which is
    # the loop's Newton rule, keeps the PWM or moment start
    rng = np.random.default_rng(0)
    tiny = rng.normal(size=100) * 1e-300
    huge = rng.standard_cauchy(300) * 1e200
    rebuilt, starts = [], []
    quantile_init, shifted = fit_module._quantile_init, fit_module._shifted

    def spy_quantile_init(z):
        rebuilt.append(z.size)
        return quantile_init(z)

    def spy_shifted(hess):
        starts.append(bool(np.isfinite(hess).all()))
        return shifted(hess)

    monkeypatch.setattr(fit_module, "_quantile_init", spy_quantile_init)
    monkeypatch.setattr(fit_module, "_shifted", spy_shifted)
    for z, error in ((tiny, NotConverged), (huge, DomainError)):
        starts.clear()
        with pytest.raises(error):
            fit_gev_mle(z)
        assert starts[0] is False  # the start rule's call
    tiny_out, huge_out = fit_gev_batch([tiny, huge])
    assert isinstance(tiny_out, NotConverged)
    assert isinstance(huge_out, DomainError)
    assert rebuilt == []


def _quartic(th):
    # f(x) = -x^4 / 4 + x^2: the negated Hessian 3x^2 - 2 is not
    # positive-definite near 0, so a start there takes a ridge step
    x = th[0]
    return -x ** 4 / 4.0 + x * x


def _quartic_derivs(th):
    x = th[0]
    return np.array([-x ** 3 + 2.0 * x]), np.array([[-3.0 * x * x + 2.0]])


def _log_cosh(th):
    # f(x) = -log cosh(x - 1): far from 1 the curvature vanishes, so the
    # Newton step overshoots at every scale and scaled ascent takes over
    y = th[0] - 1.0
    return -(np.logaddexp(y, -y) - math.log(2.0))


def _log_cosh_derivs(th):
    y = th[0] - 1.0
    return np.array([-math.tanh(y)]), np.array([[-1.0 / math.cosh(y) ** 2]])


def _rows_of(objectives):
    """``f`` and ``derivs`` over rows, row ``r`` being ``objectives[r]``."""
    def f(th, rows):
        return np.array([objectives[r][0](t) for t, r in zip(th, rows)])

    def derivs(th, rows):
        out = [objectives[r][1](t) for t, r in zip(th, rows)]
        return np.array([g for g, _ in out]), np.array([h for _, h in out])

    return f, derivs


def _gev_rows(samples):
    seg = fit_module._Segments(np.concatenate(samples), [z.size for z in samples])
    return (lambda th, rows: seg.take(rows).loglik(th),
            lambda th, rows: fit_module._gev_derivs(th, seg.take(rows)))


def _gev_start(z):
    """The PWM start of a sorted sample, or its moment start, widened."""
    theta = fit_module._pwm_init(z)
    theta = fit_module._moment_init(z) if theta is None else theta
    while not math.isfinite(fit_module._Sample(z).loglik(theta[None])[0]):
        theta[1] *= 2.0
    return theta


def _spy_line_searches(monkeypatch) -> list:
    """``(rows, limit)`` of each line search that may double its step."""
    seen = []
    search = fit_module._line_search

    def spy(f, theta, ll, rows, direction, expand, limit):
        seen.append((rows[np.broadcast_to(expand, rows.shape)].tolist(), limit))
        return search(f, theta, ll, rows, direction, expand, limit)

    monkeypatch.setattr(fit_module, "_line_search", spy)
    return seen


def _assert_rows_ascend_alone(make, items, theta):
    together = fit_module._ascend(*make(items), theta)
    for r, item in enumerate(items):
        alone = fit_module._ascend(*make([item]), theta[r:r + 1])
        for got, want in zip(together[:4], alone[:4]):
            assert np.array_equal(got[r], want[0]), r


def test_each_row_ascends_as_it_would_alone(monkeypatch):
    seen = _spy_line_searches(monkeypatch)
    objectives = ([(_quartic, _quartic_derivs)] * 2
                  + [(_log_cosh, _log_cosh_derivs)] * 3)
    theta = np.array([[0.1], [3.0], [-30.0], [-1.5], [3.2]])
    _assert_rows_ascend_alone(_rows_of, objectives, theta)
    # row 0 takes a ridge step in place, row 2 scaled ascent, and rows 3
    # and 4 halve their first Newton steps together
    assert [0] in [rows for rows, limit in seen if limit == 2.0 ** 20]
    assert any(2 in rows for rows, limit in seen if limit == 2.0 ** 30)
    # and each ends where the reference loop ends, after one step too
    for max_iter in (1, 200):
        together = fit_module._ascend(*_rows_of(objectives), theta, max_iter)
        for r, (f, derivs) in enumerate(objectives):
            want = ref.maximize(f, derivs, theta[r], max_iter=max_iter)
            got = [v[r] for v in together[:4]]
            assert np.array_equal(got[0], want[0]), (max_iter, r)
            assert got[1:] == list(want[1:]), (max_iter, r)
    assert np.abs(together[0][:2, 0]) == pytest.approx([math.sqrt(2.0)] * 2)

    # GEV rows, one of them taking ridge steps
    seen.clear()
    samples = [np.sort(gev_sample(GevParams(-0.1, 1.8, 7.3), 149, seed=1)),
               np.sort(_contiguous_path_samples()["ridge steps"]),
               np.sort(gev_sample(GevParams(0.3, 2.0, 10.0), 60, seed=2))]
    starts = np.array([_gev_start(z) for z in samples])
    _assert_rows_ascend_alone(_gev_rows, samples, starts)
    assert any(1 in rows for rows, limit in seen if limit == 2.0 ** 20)


def _spy_derivs(derivs, calls):
    def spy(th):
        out = derivs(th)
        calls.append((th.copy(), out, [a.copy() for a in out]))
        return out
    return spy


@pytest.mark.parametrize("exit_, f, derivs, start, max_iter, want", [
    # the second Newton step is 0: the step tolerance
    ("step tolerance", lambda th: -(th[0] - 1.0) ** 2,
     lambda th: (np.array([-2.0 * (th[0] - 1.0)]), np.array([[-2.0]])),
     [0.0], 200, (2, True)),
    # a gain of 2e-11 at a level of 1e6: below the resolution
    ("resolution", lambda th: 1e6 - 1e-12 * (th[0] - 3.0) ** 2,
     lambda th: (np.array([-2e-12 * (th[0] - 3.0)]), np.array([[-2e-12]])),
     [0.0], 200, (1, True)),
    # a kink at the maximum: the left derivative points down at every scale
    ("plateau", lambda th: -abs(th[0]),
     lambda th: (np.array([-1.0 if th[0] >= 0.0 else 1.0]), np.array([[-1.0]])),
     [0.0], 200, (1, True)),
    ("exhausted budget", _quartic, _quartic_derivs, [3.0], 2, (2, False)),
])
def test_maximize_last_calls_derivs_at_the_returned_point(exit_, f, derivs,
                                                         start, max_iter, want):
    # _fit_genpareto reads the last derivs result as the one at theta
    calls = []
    theta, ll, iterations, converged = fit_module.maximize(
        f, _spy_derivs(derivs, calls), start, max_iter)
    assert (iterations, converged) == want, exit_
    last_theta, out, copies = calls[-1]
    assert np.array_equal(last_theta, theta) and ll == f(theta)
    for a, b in zip(out, copies):
        assert np.array_equal(a, b)


@given(xi=st.floats(-0.4, 0.6), sigma=st.floats(0.1, 20.0),
       mu=st.floats(30.0, 200.0), n=st.integers(20, 400),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_select_families_fit_as_with_the_reference_loop(xi, sigma, mu, n, seed):
    # model_select's bytes depend on these fits, params and loglik, being
    # the same
    z = gev_sample(GevParams(xi, sigma, mu), n, seed=seed)
    z = z[z > 0.0] if np.sum(z > 0.0) >= MIN_FIT_POINTS else np.abs(z) + 1.0
    families = ("Gumbel", "Logistic", "Weibull", "Gamma", "GeneralizedPareto")

    def fits():
        out = []
        for family in families:
            try:
                params, loglik = select._FITTERS[family].fit(z)
                out.append((params, loglik))
            except ValueError as exc:
                out.append(str(exc))
        return out

    got = fits()
    with mock.patch.object(select, "maximize", ref.maximize):
        want = fits()
    assert got == want
