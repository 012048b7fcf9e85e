"""Plot-ready descriptive statistics: CDF, boxplot, 2-D histogram, PCA.

Nothing here draws; every structure is the exact data a plotting layer
would consume (and what the analyze command exports as JSON/CSV).

Run:  python3 demos/05_descriptive_stats.py
"""

import numpy as np

from voipqos.stats import bivariate_hist, boxplot_stats, empirical_cdf, pca


def main() -> None:
    rng = np.random.default_rng(12)

    delays = rng.gamma(shape=4.0, scale=30.0, size=2000)
    cdf = empirical_cdf(delays)
    print("empirical CDF of 2000 delays:")
    for q in (50.0, 120.0, 250.0):
        print(f"  P(delay <= {q:5.1f} ms) = {cdf(q):.3f}")

    box = boxplot_stats(delays, label="delay", unit="ms")
    print(f"\nboxplot: median={box.median:.1f} "
          f"iqr=[{box.q1:.1f}, {box.q3:.1f}] "
          f"whiskers=[{box.whisker_lo:.1f}, {box.whisker_hi:.1f}] "
          f"outliers={len(box.outliers)}")

    # sigma_j degrades as bandwidth drops: make correlated columns
    bandwidth = rng.normal(80.0, 4.0, 2000)
    sigma_j = 12.0 - 0.1 * bandwidth + rng.normal(0.0, 0.4, 2000)
    hist = bivariate_hist(bandwidth, sigma_j, nx=6, ny=4)
    print(f"\n2-D histogram of bandwidth (kbps) x sigma_j (ms) "
          f"{hist.counts.shape}, "
          f"{int(hist.counts.sum())} points total:")
    for row in hist.counts.T[::-1]:
        print("   " + " ".join(f"{int(c):4d}" for c in row))

    observations = np.column_stack([
        bandwidth, sigma_j, delays, rng.normal(0.0, 1.0, 2000)])
    result = pca(observations, k=4,
                 variables=("bandwidth", "sigma_j", "delay", "noise"))
    share = result.explained / result.explained.sum() * 100.0
    print("\nPCA (standardized, top 2 of 4 components):")
    for i in range(2):
        loadings = ", ".join(
            f"{name} {result.components[i, j]:+.2f}"
            for j, name in enumerate(result.variables))
        print(f"  component {i + 1}: {share[i]:5.1f}% variance  [{loadings}]")


if __name__ == "__main__":
    main()
