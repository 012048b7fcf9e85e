"""Descriptive statistics: empirical CDFs, 2-D histograms, boxplots, PCA.

Plot-ready data only; nothing here renders. The PCA eigendecomposition
is LAPACK's symmetric solver (``np.linalg.eigh``) on the covariance or
correlation matrix. ``BivariateHist.to_json_dict`` and
``PcaResult.axes_json_dict`` are the ``bandwidth_sigma_hist`` and ``pca``
entries of a session's report.json; neither writes a value that another
one determines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadK, DomainError, EmptyData, LengthMismatch, TooFewPoints, ZeroVariance


def _finite_array(data, what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} must be finite")
    return arr


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous step function through the sorted sample."""

    points: np.ndarray  # sorted ascending

    def __post_init__(self) -> None:
        self.points.setflags(write=False)

    def __call__(self, x):
        n = len(self.points)
        idx = np.searchsorted(self.points, x, side="right")
        out = idx / n
        return float(out) if np.isscalar(x) else out

    def quantile(self, p) -> np.ndarray:
        """Inverse CDF: the smallest point x with F(x) >= p, per p in [0, 1]."""
        p = np.asarray(p, dtype=float)
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise DomainError("probabilities must lie in [0, 1]")
        return np.quantile(self.points, p, method="inverted_cdf")


def empirical_cdf(data) -> EmpiricalCdf:
    """Empirical CDF: value i/n at the i-th sorted point."""
    arr = _finite_array(data, "data")
    if arr.size == 0:
        raise EmptyData("empirical CDF needs at least one point")
    return EmpiricalCdf(points=np.sort(arr))


@dataclass(frozen=True)
class BivariateHist:
    """Equal-width 2-D histogram; counts conserve the input size."""

    x_edges: np.ndarray
    y_edges: np.ndarray
    counts: np.ndarray  # shape (nx, ny), integer

    def __post_init__(self) -> None:
        for a in (self.x_edges, self.y_edges, self.counts):
            a.setflags(write=False)

    def to_json_dict(self) -> dict:
        """The edges, then the non-empty cells in row-major (x, then y)
        order as parallel lists: cell ``(i[c], j[c])`` spans
        ``x_edges[i[c]:i[c] + 2]`` by ``y_edges[j[c]:j[c] + 2]`` and
        holds ``count[c]`` points."""
        ii, jj = np.nonzero(self.counts)
        return {
            "x_edges": self.x_edges.tolist(),
            "y_edges": self.y_edges.tolist(),
            "i": ii.tolist(),
            "j": jj.tolist(),
            "count": self.counts[ii, jj].tolist(),
        }


def _axis_edges(arr: np.ndarray, bins: int) -> np.ndarray:
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:  # degenerate axis: one unit-width bin around the value
        return np.array([lo - 0.5, lo + 0.5])
    return np.linspace(lo, hi, bins + 1)


def bivariate_hist(x, y, nx: int = 30, ny: int = 30) -> BivariateHist:
    """Joint histogram of two equal-length samples.

    Bins are equal-width over [min, max] per axis; the last edge is
    right-inclusive (a point at the maximum lands in the last bin). An
    axis with a single distinct value collapses to one bin.
    """
    xa = _finite_array(x, "x")
    ya = _finite_array(y, "y")
    if len(xa) != len(ya):
        raise LengthMismatch(f"|x|={len(xa)} but |y|={len(ya)}")
    if len(xa) == 0:
        raise EmptyData("histogram needs at least one point")
    if nx < 1 or ny < 1:
        raise DomainError("bin counts must be >= 1")
    x_edges = _axis_edges(xa, nx)
    y_edges = _axis_edges(ya, ny)
    counts, _, _ = np.histogram2d(xa, ya, bins=[x_edges, y_edges])
    return BivariateHist(x_edges=x_edges, y_edges=y_edges,
                         counts=counts.astype(int))


@dataclass(frozen=True)
class BoxplotStats:
    median: float
    q1: float
    q3: float
    iqr: float
    whisker_lo: float
    whisker_hi: float
    outliers: tuple
    label: str = ""
    unit: str = ""

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "unit": self.unit,
            "median": self.median,
            "q1": self.q1,
            "q3": self.q3,
            "iqr": self.iqr,
            "whisker_lo": self.whisker_lo,
            "whisker_hi": self.whisker_hi,
            "outliers": list(self.outliers),
        }


def boxplot_stats(data, label: str = "", unit: str = "") -> BoxplotStats:
    """Five-number summary with 1.5*iqr whiskers.

    Quartiles interpolate linearly at position p*(n-1)+1 of the sorted
    sample; whiskers sit on the most extreme points still within
    1.5*iqr of the box, everything beyond is an outlier.
    """
    arr = _finite_array(data, "data")
    if arr.size == 0:
        raise EmptyData("boxplot needs at least one point")
    q1, median, q3 = (float(v) for v in np.quantile(arr, [0.25, 0.5, 0.75]))
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = arr[(arr >= lo_fence) & (arr <= hi_fence)]
    outliers = arr[(arr < lo_fence) | (arr > hi_fence)]
    return BoxplotStats(
        median=median,
        q1=q1,
        q3=q3,
        iqr=iqr,
        whisker_lo=float(inside.min()),
        whisker_hi=float(inside.max()),
        outliers=tuple(sorted(float(v) for v in outliers)),
        label=label,
        unit=unit,
    )


@dataclass(frozen=True)
class PcaResult:
    components: np.ndarray  # shape (k, m), orthonormal rows
    explained: np.ndarray  # k eigenvalues, non-increasing
    scores: np.ndarray  # shape (n, k), projected observations
    variables: tuple = field(default=())

    def __post_init__(self) -> None:
        for a in (self.components, self.explained, self.scores):
            a.setflags(write=False)

    def axes_json_dict(self) -> dict:
        """The projection's axes: everything but the per-observation
        scores. A variable's loadings are its column of ``components``."""
        return {
            "variables": list(self.variables),
            "components": self.components.tolist(),
            "explained": self.explained.tolist(),
        }

    def to_json_dict(self) -> dict:
        return {**self.axes_json_dict(), "scores": self.scores.tolist()}


def pca(observations, k: int, standardize: bool = True,
        variables: tuple = ()) -> PcaResult:
    """Principal components of an n-observations x m-variables matrix.

    Centers every column, scales to unit variance when ``standardize``
    (the default: metric variables carry incommensurable units), and
    eigendecomposes the resulting covariance/correlation matrix. The
    largest-magnitude loading of each component is made positive so
    signs are reproducible.
    """
    obs = np.asarray(observations, dtype=float)
    if obs.ndim != 2:
        raise DomainError("observations must be a 2-D matrix")
    if not np.all(np.isfinite(obs)):
        raise DomainError("observations must be finite")
    n, m = obs.shape
    if n < 2:
        raise TooFewPoints(f"PCA needs >= 2 observations, got {n}")
    if not 1 <= k <= m:
        raise BadK(f"k must be in 1..{m}, got {k}")
    z = obs - obs.mean(axis=0)
    if standardize:
        sd = z.std(axis=0, ddof=1)
        dead = np.nonzero(sd == 0.0)[0]
        if dead.size:
            raise ZeroVariance(
                f"variable(s) {dead.tolist()} have zero variance; "
                "cannot standardize"
            )
        z = z / sd
    cov = z.T @ z / (n - 1)
    vals, vecs = np.linalg.eigh(cov)
    # covariance matrices are PSD; zero out the rounding-level negatives
    floor = -1e-9 * max(1.0, float(np.max(np.abs(vals))))
    vals = np.where((vals < 0.0) & (vals > floor), 0.0, vals)
    order = np.argsort(-vals, kind="stable")[:k]
    components = vecs[:, order].T.copy()
    for j in range(components.shape[0]):
        lead = int(np.argmax(np.abs(components[j])))
        if components[j, lead] < 0.0:
            components[j] = -components[j]
    return PcaResult(
        components=components,
        explained=vals[order].copy(),
        scores=z @ components.T,
        variables=tuple(variables),
    )
