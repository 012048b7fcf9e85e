"""The writers of earlier export layouts, kept as test references.

Verbatim copies of ``MetricSeries.to_csv`` and ``BivariateHist.to_csv``
from before every CSV went through the session-level writer, which
formats a shared time axis once, each distinct value once per block and
the rows a block at a time. The tests compare the package's text with
theirs. Only the function names are new: each takes the object its
method was bound to.

``pca_to_json`` is the pca.json writer of report schema version 2:
``PcaResult.axes_json_dict`` of that version, encoded as ``analyze``
encoded it. With ``hist_to_csv`` it rebuilds the two files that version
3 moved into report.json.
"""

from __future__ import annotations

import json

import numpy as np


def series_to_csv(self) -> str:
    """``t,value`` rows; the unit is fixed per name (UNIT_BY_NAME)."""
    lines = ["t,value"]
    lines += [f"{t!r},{v!r}" for t, v in zip(self.t.tolist(), self.v.tolist())]
    return "\n".join(lines) + "\n"


def hist_to_csv(self) -> str:
    """One row per non-empty cell, in row-major (x, then y) order."""
    xe, ye = self.x_edges.tolist(), self.y_edges.tolist()
    ii, jj = np.nonzero(self.counts)
    cells = zip(ii.tolist(), jj.tolist(), self.counts[ii, jj].tolist(),
                self.density[ii, jj].tolist())
    lines = ["x_lo,x_hi,y_lo,y_hi,count,density"]
    lines += [
        f"{xe[i]!r},{xe[i + 1]!r},{ye[j]!r},{ye[j + 1]!r},{c},{d!r}"
        for i, j, c, d in cells
    ]
    return "\n".join(lines) + "\n"


def pca_to_json(self) -> str:
    """The projection's axes: everything but the per-observation scores."""
    axes = {
        "variables": list(self.variables),
        "components": self.components.tolist(),
        "explained": self.explained.tolist(),
        "loadings": self.loadings.tolist(),
    }
    return json.dumps(axes, sort_keys=True, indent=2) + "\n"
