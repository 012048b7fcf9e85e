"""Descriptive statistics: hand-placed fixtures and structural invariants."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from voipqos.errors import (
    BadK,
    DomainError,
    EmptyData,
    LengthMismatch,
    TooFewPoints,
    ZeroVariance,
)
from voipqos.stats import (
    BivariateHist,
    BoxplotStats,
    EmpiricalCdf,
    PcaResult,
    bivariate_hist,
    boxplot_stats,
    empirical_cdf,
    pca,
)


class TestEmpiricalCdf:
    def test_single_point_step(self):
        f = empirical_cdf([5.0])
        assert f(4.999) == 0.0
        assert f(5.0) == 1.0
        assert f(100.0) == 1.0

    def test_hand_count(self):
        f = empirical_cdf([1.0, 2.0, 3.0, 4.0])
        assert f(2.5) == 0.5
        assert f(2.0) == 0.5  # right-continuous: jump has happened at 2
        assert f(1.0) == 0.25
        assert f(0.0) == 0.0

    def test_duplicates_jump_together(self):
        f = empirical_cdf([1.0, 1.0, 2.0])
        assert f(1.0) == pytest.approx(2 / 3)

    def test_order_invariance(self):
        a = empirical_cdf([3.0, 1.0, 2.0])
        b = empirical_cdf([1.0, 2.0, 3.0])
        probe = np.linspace(0.0, 4.0, 41)
        assert np.array_equal(a(probe), b(probe))

    def test_vector_evaluation(self):
        f = empirical_cdf([1.0, 2.0])
        out = f(np.array([0.5, 1.5, 2.5]))
        assert out.tolist() == [0.0, 0.5, 1.0]

    @given(st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=50))
    def test_monotone_with_unit_range(self, data):
        f = empirical_cdf([float(v) for v in data])
        probe = np.linspace(min(data) - 1, max(data) + 1, 97)
        vals = f(probe)
        assert np.all(np.diff(vals) >= 0.0)
        assert f(min(data) - 1.0) == 0.0
        assert f(max(data)) == 1.0

    def test_probs_ladder(self):
        f = empirical_cdf([10.0, 20.0, 30.0, 40.0])
        assert f.points.tolist() == [10.0, 20.0, 30.0, 40.0]

    def test_rejects_bad_input(self):
        with pytest.raises(EmptyData):
            empirical_cdf([])
        with pytest.raises(DomainError):
            empirical_cdf([1.0, float("nan")])


class TestBivariateHist:
    def test_identical_points_single_cell(self):
        h = bivariate_hist([3.0] * 7, [4.0] * 7, nx=5, ny=5)
        assert h.counts.shape == (1, 1)
        assert h.counts[0, 0] == 7
        assert h.x_edges.tolist() == [2.5, 3.5]
        assert h.y_edges.tolist() == [3.5, 4.5]
        assert h.to_json_dict() == {"x_edges": [2.5, 3.5], "y_edges": [3.5, 4.5],
                                    "i": [0], "j": [0], "count": [7]}

    def test_square_corners(self):
        h = bivariate_hist([0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0], nx=2, ny=2)
        assert h.counts.tolist() == [[1, 1], [1, 1]]
        cells = h.to_json_dict()
        assert (cells["i"], cells["j"], cells["count"]) == (
            [0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 1])

    def test_single_bin_catches_everything(self):
        h = bivariate_hist([1.0, 2.0, 9.0], [0.0, 5.0, 5.0], nx=1, ny=1)
        assert h.counts.tolist() == [[3]]

    def test_max_lands_in_last_bin(self):
        h = bivariate_hist([0.0, 1.0], [0.0, 1.0], nx=2, ny=2)
        assert h.counts[1][1] == 1

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-50, max_value=50, allow_nan=False),
                st.floats(min_value=-50, max_value=50, allow_nan=False),
            ),
            min_size=1,
            max_size=80,
        ),
        st.randoms(use_true_random=False),
    )
    def test_conservation_and_order_invariance(self, pairs, rnd):
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        h = bivariate_hist(xs, ys, nx=6, ny=4)
        assert int(h.counts.sum()) == len(pairs)
        assert sum(h.to_json_dict()["count"]) == len(pairs)
        order = list(range(len(pairs)))
        rnd.shuffle(order)
        h2 = bivariate_hist([xs[i] for i in order], [ys[i] for i in order], nx=6, ny=4)
        assert np.array_equal(h.counts, h2.counts)

    def test_rejects_bad_input(self):
        with pytest.raises(LengthMismatch):
            bivariate_hist([1.0, 2.0], [1.0], nx=2, ny=2)
        with pytest.raises(EmptyData):
            bivariate_hist([], [], nx=2, ny=2)
        with pytest.raises(DomainError):
            bivariate_hist([1.0], [1.0], nx=0, ny=2)

    def test_json_grid(self):
        h = bivariate_hist([0.0, 1.0], [0.0, 1.0], nx=2, ny=1)
        assert h.to_json_dict() == {
            "x_edges": [0.0, 0.5, 1.0], "y_edges": [0.0, 1.0],
            "i": [0, 1], "j": [0, 0], "count": [1, 1],
        }


class TestBoxplot:
    def test_hand_five_numbers(self):
        out = boxplot_stats([1.0, 2.0, 3.0, 4.0, 5.0])
        assert (out.median, out.q1, out.q3, out.iqr) == (3.0, 2.0, 4.0, 2.0)
        assert (out.whisker_lo, out.whisker_hi) == (1.0, 5.0)
        assert out.outliers == ()

    def test_constant_data(self):
        out = boxplot_stats([7.0] * 6)
        assert out.median == out.q1 == out.q3 == 7.0
        assert out.iqr == 0.0
        assert out.whisker_lo == out.whisker_hi == 7.0
        assert out.outliers == ()

    def test_outlier_beyond_fence(self):
        out = boxplot_stats([1.0, 2.0, 3.0, 4.0, 100.0])
        assert out.q1 == 2.0 and out.q3 == 4.0
        assert out.outliers == (100.0,)
        assert out.whisker_hi == 4.0  # most extreme point inside the fence

    @given(
        st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=60),
        st.integers(min_value=-10000, max_value=10000),
    )
    def test_shift_property(self, data, c):
        base = boxplot_stats([float(v) for v in data])
        moved = boxplot_stats([float(v + c) for v in data])
        assert moved.median == base.median + c
        assert moved.q1 == base.q1 + c
        assert moved.q3 == base.q3 + c
        assert moved.whisker_lo == base.whisker_lo + c
        assert moved.whisker_hi == base.whisker_hi + c
        assert moved.iqr == base.iqr

    def test_box_ordering_invariant(self):
        out = boxplot_stats([9.0, 1.0, 5.0, 3.0, 7.0, 2.0])
        assert out.q1 <= out.median <= out.q3
        assert out.iqr >= 0.0

    def test_json_shape(self):
        d = boxplot_stats([1.0, 2.0], label="csd", unit="s").to_json_dict()
        assert d["label"] == "csd" and d["unit"] == "s"
        assert set(d) == {
            "label", "unit", "median", "q1", "q3", "iqr",
            "whisker_lo", "whisker_hi", "outliers",
        }

    def test_rejects_bad_input(self):
        with pytest.raises(EmptyData):
            boxplot_stats([])
        with pytest.raises(DomainError):
            boxplot_stats([1.0, float("inf")])


class TestJacobi:
    """Eigenpairs that ``pca`` takes from its symmetric solver.

    The class keeps the name of the cyclic Jacobi solver it first covered;
    ``pca`` now calls ``np.linalg.eigh``.
    """

    def test_matches_lapack_on_random_symmetric(self):
        # S v = lambda v on the unstandardized covariance S, for random
        # symmetric S of several sizes
        rng = np.random.default_rng(42)
        for size in (2, 3, 5, 8):
            obs = rng.normal(size=(3 * size + 2, size)) @ rng.normal(
                size=(size, size))
            out = pca(obs, k=size, standardize=False)
            z = obs - obs.mean(axis=0)
            s = z.T @ z / (len(obs) - 1)
            want = np.sort(np.linalg.eigvalsh(s))[::-1]
            assert out.explained == pytest.approx(want, abs=1e-10)
            for lam, v in zip(out.explained, out.components):
                assert s @ v == pytest.approx(lam * v, abs=1e-9)

    def test_one_by_one(self):
        # 1..6 has sample variance exactly 3.5
        out = pca(np.arange(1.0, 7.0)[:, None], k=1, standardize=False)
        assert out.explained.tolist() == [3.5]
        assert out.components.tolist() == [[1.0]]


class TestPca:
    def test_diagonal_covariance(self):
        # columns built orthogonal with variances 16/3 and 4/3
        obs = np.array([[-2.0, -1.0], [-2.0, 1.0], [2.0, -1.0], [2.0, 1.0]])
        out = pca(obs, k=2, standardize=False)
        assert out.explained == pytest.approx([16 / 3, 4 / 3], rel=1e-12)
        assert out.components[0] == pytest.approx([1.0, 0.0], abs=1e-12)
        assert out.components[1] == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_perfectly_correlated_pair(self):
        x = np.arange(10.0)
        obs = np.column_stack([x, 2.0 * x])
        out = pca(obs, k=2, standardize=True)
        assert out.explained[0] == pytest.approx(2.0, rel=1e-12)
        assert abs(out.explained[1]) < 1e-9
        assert out.components[0] == pytest.approx(
            [np.sqrt(0.5), np.sqrt(0.5)], rel=1e-12
        )

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(3)
        obs = rng.normal(size=(40, 4)) @ rng.normal(size=(4, 4))
        for standardize in (False, True):
            out = pca(obs, k=4, standardize=standardize)
            z = obs - obs.mean(axis=0)
            if standardize:
                z = z / z.std(axis=0, ddof=1)
            rebuilt = out.scores @ out.components
            assert rebuilt == pytest.approx(z, abs=1e-9)

    def test_orthonormal_components(self):
        rng = np.random.default_rng(4)
        obs = rng.normal(size=(60, 5))
        out = pca(obs, k=5, standardize=True)
        gram = out.components @ out.components.T
        assert gram == pytest.approx(np.eye(5), abs=1e-9)

    def test_variance_conserved(self):
        rng = np.random.default_rng(5)
        obs = rng.normal(size=(200, 5)) * np.array([1.0, 3.0, 0.2, 7.0, 2.0])
        out = pca(obs, k=5, standardize=False)
        z = obs - obs.mean(axis=0)
        trace = float(np.trace(z.T @ z / (len(obs) - 1)))
        assert float(np.sum(out.explained)) == pytest.approx(trace, abs=1e-8)
        assert np.all(np.diff(out.explained) <= 1e-12)
        assert np.all(out.explained >= 0.0)

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(6)
        obs = rng.normal(size=(50, 3))
        scaled = obs * np.array([10.0, 0.01, 3.0]) + np.array([5.0, -2.0, 0.0])
        a = pca(obs, k=3, standardize=True)
        b = pca(scaled, k=3, standardize=True)
        assert b.explained == pytest.approx(a.explained, abs=1e-9)
        assert b.components == pytest.approx(a.components, abs=1e-9)
        assert b.scores == pytest.approx(a.scores, abs=1e-9)

    def test_sign_convention(self):
        rng = np.random.default_rng(7)
        obs = rng.normal(size=(30, 3))
        for flip in (1.0, -1.0):
            out = pca(obs * flip, k=3, standardize=True)
            for row in out.components:
                assert row[int(np.argmax(np.abs(row)))] > 0.0

    def test_json_holds_components_not_loadings(self):
        rng = np.random.default_rng(8)
        obs = rng.normal(size=(25, 4))
        out = pca(obs, k=2, standardize=True, variables=("a", "b", "c", "d"))
        assert out.components.shape == (2, 4)
        d = out.to_json_dict()
        assert d["variables"] == ["a", "b", "c", "d"]
        assert len(d["scores"]) == 25
        # a variable's loadings are its column of the components
        assert out.axes_json_dict() == {
            "variables": d["variables"], "components": out.components.tolist(),
            "explained": out.explained.tolist()}

    def test_rejects_bad_input(self):
        obs = np.arange(12.0).reshape(6, 2)
        with pytest.raises(BadK):
            pca(obs, k=0)
        with pytest.raises(BadK):
            pca(obs, k=3)
        with pytest.raises(TooFewPoints):
            pca(obs[:1], k=1)
        with pytest.raises(DomainError):
            pca(np.array([1.0, 2.0]), k=1)
        with pytest.raises(ZeroVariance):
            pca(np.column_stack([np.arange(5.0), np.ones(5)]), k=1, standardize=True)
        # without standardization a flat column is fine: variance 0
        out = pca(np.column_stack([np.arange(5.0), np.ones(5)]), k=2,
                  standardize=False)
        assert out.explained[1] == pytest.approx(0.0, abs=1e-12)
