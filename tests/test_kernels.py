"""Fast kernels against the verbatim references in ``kernels_reference``.

The GEV derivatives changed their order of operations (in place, summed
as dot products), so they agree within 1e-10 of the largest entry of
each output. The value reader and the moving deviation do the same
arithmetic as before, so they agree exactly.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests import kernels_reference as ref
from voipqos.cli import _read_values
from voipqos.errors import VoipQosError
from voipqos.evt import GevParams, gev_sample
from voipqos.evt.fit import _gev_derivs, _Sample, omega_derivs
from voipqos.metrics import MetricSeries, moving_std

XI = st.one_of(
    st.sampled_from([0.0, 1e-9, -1e-9, 1e-4, -1e-4]),
    st.floats(-0.6, 1.5, exclude_min=True, exclude_max=True),
)


def _close(new, old, rel=1e-10):
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape
    assert np.max(np.abs(new - old), initial=0.0) <= rel * np.max(np.abs(old))


class TestGevDerivatives:
    @given(xi=XI, sigma=st.floats(0.05, 50.0), mu=st.floats(-100.0, 300.0),
           n=st.integers(20, 400), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=200)
    def test_fused_matches_reference(self, xi, sigma, mu, n, seed):
        # a sample of the model itself, so every point is on its support
        z = gev_sample(GevParams(xi=xi, sigma=sigma, mu=mu), n, seed=seed)
        w = (z - mu) / sigma
        # at subnormal xi the closed forms overflow where the series
        # then takes over, in both versions
        with np.errstate(over="ignore"):
            pairs = zip(omega_derivs(xi, w), ref.omega_derivs(xi, w))
            for new, old in pairs:
                _close(new, old)
        theta = np.array([xi, sigma, mu])
        (g,), (hess,) = _gev_derivs(theta[None], _Sample(z))
        ref_g, ref_hess = ref._gev_derivs(theta, z)
        _close(g, ref_g)
        _close(hess, ref_hess)
        assert np.array_equal(hess, hess.T)

    def test_outputs_are_fresh_arrays(self):
        # _gev_derivs overwrites omega_derivs' outputs, so none may alias w
        w = np.linspace(-1.0, 3.0, 50)
        keep = w.copy()
        for xi in (0.0, 0.3):
            outs = omega_derivs(xi, w)
            for out in outs:
                assert not np.shares_memory(out, w)
            _gev_derivs(np.array([[xi, 1.0, 0.0]]), _Sample(w))
            assert np.array_equal(w, keep)


# one line of a values file: what float() reads, and what it does not
_NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_LINE = st.one_of(
    _NUMBER,
    _NUMBER,
    st.sampled_from(["", " ", "\t", "  \t "]),
    st.sampled_from(["inf", "-inf", "nan", "Infinity", "-NaN", "1_000", "+.5"]),
    st.sampled_from(["abc", "1.2.3", "1 2", "3\t4", "0x10", "--1"]),
)
_PAD = st.sampled_from(["", " ", "\t", "  "])


class TestReadValues:
    @given(lines=st.lists(st.tuples(_PAD, _LINE, _PAD), max_size=30),
           newline=st.sampled_from(["\n", "\r\n"]),
           final=st.booleans())
    @settings(max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_values_or_same_error(self, tmp_path, lines, newline, final):
        path = tmp_path / "values.txt"
        text = newline.join(a + line + b for a, line, b in lines)
        path.write_bytes((text + (newline if final else "")).encode())
        try:
            expected = np.array(ref._read_values(str(path)), dtype=float)
        except VoipQosError as exc:
            with pytest.raises(VoipQosError) as info:
                _read_values(str(path))
            assert str(info.value) == str(exc)
            return
        got = _read_values(str(path))
        assert got.dtype == np.float64 and got.shape == expected.shape
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == expected[~nan].tobytes()

    def test_one_line_of_two_numbers_is_an_error(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("1 2\n")
        with pytest.raises(VoipQosError, match=r"values.txt:1: not a number"):
            _read_values(str(path))

    def test_plain_column_takes_no_line_loop(self, tmp_path, monkeypatch):
        path = tmp_path / "values.txt"
        path.write_text("".join(f"{v!r}\n" for v in [0.1, -2.5e-300, 7.0]))

        def no_loop(*args, **kwargs):
            raise AssertionError("the line loop ran")

        monkeypatch.setattr("voipqos.cli.Path.read_text", no_loop)
        assert _read_values(str(path)).tolist() == [0.1, -2.5e-300, 7.0]


class TestMovingStd:
    @given(gaps=st.lists(st.floats(1e-4, 0.5), min_size=1, max_size=300),
           scale=st.floats(1e-3, 1e6),
           seed=st.integers(0, 2**31 - 1),
           window=st.floats(0.01, 3.0),
           rounded=st.booleans())
    @settings(max_examples=200)
    def test_bit_identical_to_reference(self, gaps, scale, seed, window,
                                        rounded):
        t = np.cumsum(gaps)
        v = np.random.default_rng(seed).normal(0.0, scale, t.size)
        if rounded:  # repeated values: windows of equal values give 0
            v = np.round(v / scale)
        series = MetricSeries.create("jitter", t, v)
        got, expected = moving_std(series, window), ref.moving_std(series, window)
        assert got.name == expected.name == "sigma_j"
        assert got.times().tobytes() == expected.times().tobytes()
        assert got.values().tobytes() == expected.values().tobytes()

    def test_widest_window_ends_at_the_last_sample(self):
        # the gaps shrink, so the last window holds the most samples and
        # its row of the window view ends where the zero padding begins
        t = np.cumsum(np.linspace(0.05, 0.001, 400))
        v = np.random.default_rng(5).normal(3.0, 1.0, t.size)
        series = MetricSeries.create("jitter", t, v)
        count = np.arange(1, t.size + 1) - np.searchsorted(t, t - 0.1,
                                                           side="right")
        assert count[-1] == count.max() > count[-2]
        got, expected = moving_std(series, 0.1), ref.moving_std(series, 0.1)
        assert got.values().tobytes() == expected.values().tobytes()

    def test_windows_span_several_blocks(self, monkeypatch):
        monkeypatch.setattr("voipqos.metrics._BLOCK_CELLS", 64)
        t = np.arange(1, 2001) * 0.01
        v = np.random.default_rng(3).normal(5.0, 2.0, t.size)
        series = MetricSeries.create("jitter", t, v)
        got, expected = moving_std(series, 0.5), ref.moving_std(series, 0.5)
        assert got.values().tobytes() == expected.values().tobytes()
