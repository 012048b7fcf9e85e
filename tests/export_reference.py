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

``csv_columns`` reads the per-axis CSVs of version 4, and
``v3_series_csvs`` rebuilds from them the per-series ``t,value`` files
of version 3, taking each series' non-empty cells verbatim next to their
``t`` cells.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def csv_columns(text: str) -> dict[str, tuple[list[str], list[str]]]:
    """``{series name: (t cells, value cells)}`` of a version-4 CSV: the
    rows where the series' cell is non-empty, as written. Every row has
    a cell per header name, and a series' cells are a suffix of the
    rows."""
    header, *rows = text.splitlines()
    t, *names = header.split(",")
    assert t == "t" and names and len(set(names)) == len(names), header
    cells = [row.split(",") for row in rows]
    assert all(len(row) == len(names) + 1 for row in cells)
    out = {}
    for k, name in enumerate(names, 1):
        column = [row[k] for row in cells]
        blanks = column.count("")
        assert column[:blanks] == [""] * blanks, name  # leading ones only
        out[name] = ([row[0] for row in cells[blanks:]], column[blanks:])
    return out


def v3_series_csvs(files: dict[str, str]) -> dict[str, str]:
    """Version 3's ``t,value`` text of each series in the version-4
    ``{file name: text}``."""
    out = {}
    for text in files.values():
        for name, (t, v) in csv_columns(text).items():
            assert name not in out, name
            out[name] = "t,value\n" + "".join(
                f"{a},{b}\n" for a, b in zip(t, v))
    return out


def read_column(path: Path, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Sample times and values of series ``name`` in the CSV at ``path``."""
    t, v = csv_columns(Path(path).read_text())[name]
    return np.array(t, dtype=float), np.array(v, dtype=float)


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
