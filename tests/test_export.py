"""Export layout (report schema version 4): each value is written once.

The session directory holds report.json and one CSV per time axis, with
a column per series on it; report.json holds the sparse
bandwidth-vs-sigma_j histogram and the PCA axes. Nothing dropped is
lost: these tests rebuild the dense histogram, the sigma_j/RTT quantiles
and the PCA scores from what is written, and compare them with the
library functions run on the decoded session. They also rebuild the
histogram CSV and pca.json of version 2 with that version's writers, and
the per-series CSVs of version 3 from the per-axis ones
(tests/export_reference.py). That CSV text is compared with the writer
it replaced and with the digests of the golden scenario's files.
"""

import hashlib
import json
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tests import export_reference
from voipqos import metrics
from voipqos.cli import entrypoint
from voipqos.errors import DomainError, EmptyData
from voipqos.ingest import assemble_sessions, parse_pcap, write_pcap
from voipqos.metrics import (
    UNIT_BY_NAME,
    MetricSeries,
    bandwidth_series,
    jitter_series,
    moving_std,
    rtt_series,
    series_csvs,
)
from voipqos.stats import BivariateHist, bivariate_hist, empirical_cdf, pca

from . import builders

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "voipqos" / "schemas"
     / "session_report.schema.json").read_text()
)
GRID = np.linspace(0.0, 1.0, 21)

# the scenario of acceptance criterion 10
SCENARIO = {
    "codec": "G711-A",
    "duration": 10.0,
    "interval": 0.02,
    "seed": 10,
    "loss_probability": 0.01,
    "jitter_model": {"xi": -0.125761, "sigma": 1.84636, "mu": 7.27644},
    "rtt_model": {"xi": 0.2077, "sigma": 12.0708, "mu": 123.9454},
    "xr_interval": 0.5,
    "scenario_tag": "golden",
    "call_id": "golden-1",
}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """(session directory, report, in-memory series of the session)."""
    tmp = tmp_path_factory.mktemp("export")
    scn = tmp / "scenario.json"
    scn.write_text(json.dumps(SCENARIO))
    cap = tmp / "capture.pcap"
    assert entrypoint(["synth", "--scenario", str(scn), "--out", str(cap)]) == 0
    assert entrypoint(["analyze", "--input", str(cap), "--out", str(tmp / "out"),
                       "--scenario", "golden"]) == 0
    session_dir = tmp / "out" / "golden-1"
    report = json.loads((session_dir / "report.json").read_text())

    (session,) = assemble_sessions(parse_pcap(cap.read_bytes())).sessions
    jitter = jitter_series(session.rtp_fwd, clock_rate=session.clock_rate)
    series = {
        "jitter": jitter,
        "sigma_j": moving_std(jitter, window=1.0),
        "bandwidth": bandwidth_series(session.rtp_fwd, window=1.0),
        "rtt": rtt_series(session.xr_blocks),
    }
    return session_dir, report, series


def read_column(session_dir: Path, report: dict, name: str):
    """Sample times and values of series ``name``, from the CSV that
    ``report`` names for it."""
    return export_reference.read_column(
        session_dir / report["metrics"][name]["csv"], name)


def xr_call_dir(tmp_path: Path, rtts: list[int]) -> Path:
    """The session directory that ``analyze`` writes for a 3-s call with
    RTP both ways and an XR report every 0.5 s of round-trip delay
    ``rtts[k]`` (0: not measured)."""
    records = builders.basic_dialog(invite_ts=0.0, ringing_ts=0.1,
                                    answer_ts=0.2, bye_ts=4.0, bye_ok_ts=4.1)
    for i in range(150):
        ts = 0.5 + 0.02 * i
        records.append(builders.rtp_record(ts, i, 160 * i))
        records.append(builders.rtp_record(ts + 0.003, i, 160 * i,
                                           ssrc=0x3333, reverse=True))
    records += [builders.xr_record(0.55 + 0.5 * k, round_trip_delay=rtt)
                for k, rtt in enumerate(rtts)]
    cap = tmp_path / "call.pcap"
    cap.write_bytes(write_pcap(sorted(records, key=lambda r: r.ts)))
    assert entrypoint(["analyze", "--input", str(cap),
                       "--out", str(tmp_path / "out")]) == 0
    return tmp_path / "out" / "call-1"


def v2_hist_csv(hist: dict, n: int) -> str:
    """Version 2's bandwidth_sigma_hist.csv, from a version-3 histogram
    entry and the number ``n`` of jitter samples: each cell's edges come
    from the edge lists, and its density is ``count / n``."""
    x_edges, y_edges = np.array(hist["x_edges"]), np.array(hist["y_edges"])
    counts = np.zeros((x_edges.size - 1, y_edges.size - 1), dtype=int)
    counts[hist["i"], hist["j"]] = hist["count"]
    return export_reference.hist_to_csv(SimpleNamespace(
        x_edges=x_edges, y_edges=y_edges, counts=counts, density=counts / n))


def v2_pca_json(projection: dict) -> str:
    """Version 2's pca.json, from a version-3 PCA entry: the loadings are
    the components transposed."""
    components = np.array(projection["components"])
    return export_reference.pca_to_json(SimpleNamespace(
        variables=projection["variables"], components=components,
        explained=np.array(projection["explained"]), loadings=components.T))


class TestLayout:
    def test_one_file_per_artifact(self, run):
        # report.json, and one CSV per time axis
        session_dir, report, _ = run
        assert report["bandwidth_sigma_hist"] is not None
        assert report["pca"] is not None
        assert {p.name for p in session_dir.iterdir()} == {
            "report.json", "bandwidth.csv", "rtt.csv"}
        header = {p.name: p.read_text().split("\n", 1)[0]
                  for p in session_dir.glob("*.csv")}
        assert header == {"bandwidth.csv": "t,bandwidth,jitter,sigma_j",
                          "rtt.csv": "t,rtt,r_factor,signal_level,sigma_sl"}
        for name, entry in report["metrics"].items():
            assert name in header[entry["csv"]].split(",")[1:]

    def test_jitter_cells_start_on_the_second_row(self, run):
        session_dir, _, series = run
        rows = (session_dir / "bandwidth.csv").read_text().splitlines()
        bw = series["bandwidth"]
        assert rows[1] == f"{float(bw.times()[0])!r},{float(bw.values()[0])!r},,"
        assert "" not in rows[2].split(",")

    def test_a_bidirectional_xr_session_writes_two_csvs(self, tmp_path):
        session_dir = xr_call_dir(tmp_path, [150 + k for k in range(6)])
        report = json.loads((session_dir / "report.json").read_text())
        assert report["session"]["rtp_rev"] == 150
        assert {p.name for p in session_dir.iterdir()} == {
            "report.json", "bandwidth.csv", "rtt.csv"}
        assert {m["csv"] for m in report["metrics"].values()} == {
            "bandwidth.csv", "rtt.csv"}

    def test_unmeasured_first_rtt_keeps_rtt_csv(self, tmp_path):
        # r_factor has one report more than rtt, so it is no suffix of
        # rtt's axis: rtt.csv keeps rtt in column 1, r_factor.csv starts
        session_dir = xr_call_dir(tmp_path, [0] + [150 + k for k in range(5)])
        report = json.loads((session_dir / "report.json").read_text())
        rtt_rows = (session_dir / "rtt.csv").read_text().splitlines()
        assert rtt_rows[0] == "t,rtt"
        assert [row.split(",")[1] for row in rtt_rows[1:]] == [
            f"{150 + k!r}.0" for k in range(5)]
        assert report["metrics"]["rtt"]["csv"] == "rtt.csv"
        assert {name: report["metrics"][name]["csv"] for name in
                ("r_factor", "signal_level", "sigma_sl")} == dict.fromkeys(
            ("r_factor", "signal_level", "sigma_sl"), "r_factor.csv")
        assert {p.name for p in session_dir.iterdir()} == {
            "report.json", "bandwidth.csv", "rtt.csv", "r_factor.csv"}

    def test_units_live_in_the_report(self, run):
        _, report, series = run
        for name, s in series.items():
            assert report["metrics"][name]["unit"] == s.unit


class TestInformationKept:
    def test_sparse_hist_rebuilds_dense_counts(self, run):
        _, report, series = run
        jitter_t = series["jitter"].times()
        bw = series["bandwidth"]
        hist = bivariate_hist(
            np.interp(jitter_t, bw.times(), bw.values()),
            series["sigma_j"].values(),
        )
        written = report["bandwidth_sigma_hist"]
        assert written["x_edges"] == hist.x_edges.tolist()
        assert written["y_edges"] == hist.y_edges.tolist()
        cells = list(zip(written["i"], written["j"]))
        assert cells == sorted(set(cells))  # row-major, each cell once
        dense = np.zeros_like(hist.counts)
        for (i, j), count in zip(cells, written["count"], strict=True):
            assert count > 0
            dense[i, j] = count
        assert np.array_equal(dense, hist.counts)
        assert sum(written["count"]) == report["metrics"]["jitter"]["count"]

    def test_v2_files_rebuild_from_the_report(self, run):
        # every value of version 2's bandwidth_sigma_hist.csv and pca.json
        # is in report.json with the same text, or recomputes exactly
        _, report, series = run
        text = v2_hist_csv(report["bandwidth_sigma_hist"],
                           report["metrics"]["jitter"]["count"])
        assert hashlib.sha256(text.encode()).hexdigest() == V2_HIST_CSV_SHA256

        t = series["jitter"].times()
        expected = pca(np.column_stack(
            [series["jitter"].values(), series["sigma_j"].values()]
            + [np.interp(t, series[n].times(), series[n].values())
               for n in ("bandwidth", "rtt")]
        ), k=4, variables=("jitter", "sigma_j", "bandwidth", "rtt"))
        # the version-2 PcaResult kept its loadings as components.T.copy()
        want = export_reference.pca_to_json(SimpleNamespace(
            variables=expected.variables, components=expected.components,
            explained=expected.explained,
            loadings=expected.components.T.copy()))
        assert v2_pca_json(report["pca"]) == want

    @pytest.mark.parametrize("name", ["sigma_j", "rtt"])
    def test_quantiles_are_inverted_cdf_of_the_csv(self, run, name):
        # the sorted non-empty cells of the series' column are its CDF
        session_dir, report, _ = run
        _, v = read_column(session_dir, report, name)
        want = np.quantile(v, GRID, method="inverted_cdf")
        assert report["metrics"][name]["quantiles"] == want.tolist()

    def test_pca_scores_rebuild_from_the_csvs(self, run):
        session_dir, report, series = run
        projection = report["pca"]
        assert set(projection) == {"variables", "components", "explained"}
        variables = projection["variables"]
        assert variables == ["jitter", "sigma_j", "bandwidth", "rtt"]

        csv = {name: read_column(session_dir, report, name)
               for name in variables}
        jitter_t = csv["jitter"][0]
        # bandwidth at the rows where jitter is non-empty: its last ones
        bw_t, bw = csv["bandwidth"]
        assert bw_t[-len(jitter_t):].tolist() == jitter_t.tolist()
        obs = np.column_stack([csv["jitter"][1], csv["sigma_j"][1],
                               bw[-len(jitter_t):],
                               np.interp(jitter_t, *csv["rtt"])])
        z = (obs - obs.mean(axis=0)) / obs.std(axis=0, ddof=1)
        rebuilt = z @ np.array(projection["components"]).T

        t = series["jitter"].times()
        expected = pca(np.column_stack(
            [series["jitter"].values(), series["sigma_j"].values()]
            + [np.interp(t, series[n].times(), series[n].values())
               for n in variables[2:]]
        ), k=len(variables))
        assert rebuilt.shape == expected.scores.shape
        assert np.max(np.abs(rebuilt - expected.scores)) <= 1e-9


class TestSchema:
    def test_schema_is_valid_draft_2020_12(self):
        jsonschema.Draft202012Validator.check_schema(SCHEMA)

    def test_accepts_the_written_report(self, run):
        _, report, _ = run
        assert report["schema_version"] == 4
        jsonschema.Draft202012Validator(SCHEMA).validate(report)

    def test_rejects_a_v1_report(self, run):
        _, report, _ = run
        v1 = json.loads(json.dumps(report))
        del v1["schema_version"]
        v1["exports"] = {
            "cdf": {"sigma_j": "sigma_j_cdf.json"},
            "bandwidth_sigma_hist": {
                "json": "bandwidth_sigma_hist.json",
                "csv": "bandwidth_sigma_hist.csv",
            },
        }
        validator = jsonschema.Draft202012Validator(SCHEMA)
        assert not validator.is_valid(v1)
        v3_with_cdf = json.loads(json.dumps(report))
        v3_with_cdf["cdf"] = {}
        assert not validator.is_valid(v3_with_cdf)
        v3_with_cdf.pop("cdf")
        v3_with_cdf["schema_version"] = 1
        assert not validator.is_valid(v3_with_cdf)

    def test_rejects_a_v2_report(self, run):
        _, report, _ = run
        validator = jsonschema.Draft202012Validator(SCHEMA)
        v2 = json.loads(json.dumps(report))
        v2["schema_version"] = 2
        assert not validator.is_valid(v2)
        # version 2's layout: an exports index, no histogram or PCA entry
        del v2["bandwidth_sigma_hist"], v2["pca"]
        v2["exports"] = {
            "series_csv": {name: m["csv"] for name, m in report["metrics"].items()},
            "bandwidth_sigma_hist": "bandwidth_sigma_hist.csv",
            "pca": "pca.json",
        }
        assert not validator.is_valid(v2)
        v2["schema_version"] = 3
        assert not validator.is_valid(v2)

    def test_rejects_a_v3_report(self, run):
        # version 3 wrote the same fields, with one CSV per series
        _, report, _ = run
        v3 = json.loads(json.dumps(report))
        v3["schema_version"] = 3
        for name, entry in v3["metrics"].items():
            entry["csv"] = f"{name}.csv"
        assert not jsonschema.Draft202012Validator(SCHEMA).is_valid(v3)

    def test_rejects_a_ranking_entry_with_its_gev_fit(self, run):
        _, report, _ = run
        validator = jsonschema.Draft202012Validator(SCHEMA)
        ranked = json.loads(json.dumps(report))
        fit = ranked["fits"]["jitter"]
        gev = dict(fit)
        entry = {"family": "GEV", "k": 3, "n": fit["n"],
                 "params": {k: fit[k] for k in ("xi", "sigma", "mu")},
                 "loglik": fit["loglik"], "bic": fit["bic"]}
        fit["ranking"] = [entry]
        assert validator.is_valid(ranked)
        entry["gev"] = gev
        assert not validator.is_valid(ranked)


class TestEmpiricalQuantile:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300))
    def test_matches_numpy_inverted_cdf(self, data):
        got = empirical_cdf(data).quantile(GRID)
        assert got.tolist() == np.quantile(data, GRID, method="inverted_cdf").tolist()

    def test_smallest_point_reaching_p(self):
        f = empirical_cdf([40.0, 10.0, 30.0, 20.0])
        assert f.quantile([0.0, 0.25, 0.26, 0.5, 1.0]).tolist() == [
            10.0, 10.0, 20.0, 20.0, 40.0]

    def test_rejects_probabilities_outside_unit_interval(self):
        with pytest.raises(DomainError):
            empirical_cdf([1.0]).quantile([1.5])


# sha256 of each CSV that synth + analyze write for SCENARIO with the
# arguments of acceptance criterion 10, recorded before the CSVs went
# through series_csvs, when each series had a ``t,value`` file of its
# own; pca.json was left out because LAPACK builds may differ in its
# last bits
GOLDEN_CSV_SHA256 = {
    "bandwidth.csv":
        "7e9757214c9c6e2d01a495edf17b3574ac052efc76afd47af856724986a80ac0",
    "jitter.csv":
        "ad50f11ef3735ede0c5cb3c8e8f2b64a5dae293925643383889e94d947d36ae7",
    "r_factor.csv":
        "71b08162965cd8a59657ae3eaa02a63a1ffbd8e4c0b249415c6d3ebe4ea133b7",
    "rtt.csv":
        "cb37deda7d5c2c78015e3f0a7fdd6d1b9033f638ba8e7f286c226f0ba845bdfd",
    "sigma_j.csv":
        "608094c2dffdaecfdb2c9956c915b837f6c65a2671aef6e846083dc97696a3ac",
    "sigma_sl.csv":
        "df62840bddcda8300c1a6bee2affa005640691572ee22d3a381ca2176235da25",
    "signal_level.csv":
        "bbfcff515f443e8b4278f52b0cdc86c9d725b42acc24c9a8ea2f8c22884cadb0",
}

# the same digest of bandwidth_sigma_hist.csv, which report schema
# version 2 wrote and version 3 folded into report.json
V2_HIST_CSV_SHA256 = (
    "604e30d5a1541e315aafb596b09794dd94dc83ab9c382498da9b55929d23d61a")

# signed zeros, subnormals, extremes and integral floats, drawn often
# enough that one column holds several of them
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                1e300, -1e300, 1.0, -7.0, 2.0 ** 53, 0.1)
_FLOATS = st.sampled_from(_EDGE_FLOATS) | st.floats(
    allow_nan=False, allow_infinity=False)
# strictly increasing: unique drops -0.0 next to 0.0
_AXES = st.lists(_FLOATS, unique=True, max_size=11).map(sorted)


@st.composite
def _column(draw, n):
    """``n`` values drawn mostly from a small pool, so they repeat."""
    pool = draw(st.lists(_FLOATS, min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool) | _FLOATS,
                         min_size=n, max_size=n))


@st.composite
def _session_series(draw):
    """One to four series whose axes equal, are suffixes of, have the
    length of, or are unrelated to one base axis."""
    base = draw(_AXES)
    names = draw(st.lists(st.sampled_from(sorted(UNIT_BY_NAME)),
                          min_size=1, max_size=4, unique=True))
    out = []
    for name in names:
        kind = draw(st.sampled_from(
            ("same", "suffix", "same_length", "zero_sign", "unrelated")))
        if kind == "same":
            t = base
        elif kind == "suffix":
            t = base[draw(st.integers(0, len(base))):]
        elif kind == "same_length":
            t = sorted(draw(st.lists(_FLOATS, unique=True, min_size=len(base),
                                     max_size=len(base))))
        elif kind == "zero_sign":  # equal as values, not as bits
            t = [-x if x == 0.0 else x for x in base]
        else:
            t = draw(_AXES)
        out.append(MetricSeries.create(name, t, draw(_column(len(t)))))
    return out


_series = MetricSeries.create


def _files_by_rule(series) -> dict[str, str]:
    """``{series name: file name}`` by the layout rule: in the order of
    UNIT_BY_NAME, a series joins the first earlier file whose axis ends
    with its times, bit for bit, or starts ``<name>.csv``."""
    owners, file_of = [], {}
    for s in sorted(series, key=lambda s: list(UNIT_BY_NAME).index(s.name)):
        bits = s.t.view(np.int64).tolist()
        owner = next((o for o in owners if len(s) <= len(o) and
                      o.t.view(np.int64).tolist()[len(o) - len(s):] == bits),
                     None)
        if owner is None:
            owners.append(s)
            owner = s
        file_of[s.name] = f"{owner.name}.csv"
    return file_of


def _old_hist_csv(hist: BivariateHist, n: int) -> str:
    """The old writer's text of ``hist`` with its old density field."""
    return export_reference.hist_to_csv(SimpleNamespace(
        x_edges=hist.x_edges, y_edges=hist.y_edges, counts=hist.counts,
        density=hist.counts / n))


class TestCsvText:
    @given(_session_series())
    @example([
        _series("bandwidth", [0.0, 1.0, 2.0, 3.0, 4.0],
                [1.6, 1.6, 3.2, 1.6, 0.0]),
        _series("jitter", [1.0, 2.0, 3.0, 4.0], [0.0, -0.0, 5e-324, 1e300]),
        _series("sigma_j", [1.0, 2.0, 3.0, 4.0], [-0.0, 0.0, -1e300, 2.0]),
        _series("rtt", [0.5, 1.5], [120.0, 120.0]),
        _series("r_factor", [], []),
    ])
    @example([_series("rtt", [-0.0, 1.0], [1.0, 2.0]),
              _series("r_factor", [0.0, 1.0], [3.0, 4.0])])
    def test_series_csvs_equal_the_old_writer(self, series):
        # an empty series is refused; the others' columns rebuild the
        # old writer's t,value text of each
        written = [s for s in series if len(s)]
        want = {s.name: export_reference.series_to_csv(s) for s in written}
        for block in (3, metrics.CSV_BLOCK_ROWS):
            with mock.patch.object(metrics, "CSV_BLOCK_ROWS", block):
                if len(written) < len(series):
                    with pytest.raises(EmptyData):
                        series_csvs(series)
                files, file_of = series_csvs(written)
                assert export_reference.v3_series_csvs(files) == want
                assert file_of == _files_by_rule(written)
                assert set(files) == set(file_of.values())
                for name, file_name in file_of.items():
                    header = files[file_name].split("\n", 1)[0]
                    assert name in header.split(",")

    @given(
        nx=st.integers(1, 4), ny=st.integers(1, 4),
        n=st.integers(1, 10**6), data=st.data(),
    )
    def test_hist_csv_equals_the_old_writer(self, nx, ny, n, data):
        # the old CSV rebuilds from the JSON text of the histogram
        hist = BivariateHist(
            x_edges=np.array(data.draw(_column(nx + 1))),
            y_edges=np.array(data.draw(_column(ny + 1))),
            counts=np.array(data.draw(st.lists(
                st.integers(0, 3), min_size=nx * ny, max_size=nx * ny,
            ))).reshape(nx, ny),
        )
        written = json.loads(json.dumps(hist.to_json_dict()))
        assert v2_hist_csv(written, n) == _old_hist_csv(hist, n)

    def test_binned_hist_csv_equals_the_old_writer(self):
        rng = np.random.default_rng(3)
        hist = bivariate_hist(rng.normal(size=500), rng.gamma(2.0, size=500))
        written = json.loads(json.dumps(hist.to_json_dict()))
        assert v2_hist_csv(written, 500) == _old_hist_csv(hist, 500)

    def test_series_names_must_be_distinct(self):
        a = _series("rtt", [1.0], [2.0])
        with pytest.raises(DomainError):
            series_csvs([a, a])

    def test_empty_series_is_refused(self):
        # an empty axis suffix would join any file; refusing it keeps
        # every column non-empty
        with pytest.raises(EmptyData):
            series_csvs([_series("rtt", [1.0], [2.0]),
                         _series("r_factor", [], [])])
        assert series_csvs([]) == ({}, {})

    def test_file_order_is_fixed(self):
        # a shorter r_factor joins rtt.csv; a longer one starts its own
        rtt = _series("rtt", [1.0, 2.0, 3.0], [120.0, 130.0, 125.0])
        short = _series("r_factor", [2.0, 3.0], [90.0, 91.0])
        files, file_of = series_csvs([short, rtt])
        assert files == {"rtt.csv": "t,rtt,r_factor\n1.0,120.0,\n"
                                    "2.0,130.0,90.0\n3.0,125.0,91.0\n"}
        assert file_of == {"rtt": "rtt.csv", "r_factor": "rtt.csv"}
        long = _series("r_factor", [0.0, 1.0, 2.0, 3.0], [1.0] * 4)
        files, file_of = series_csvs([long, rtt])
        assert list(files) == ["rtt.csv", "r_factor.csv"]
        assert files["r_factor.csv"].startswith("t,r_factor\n0.0,1.0\n")
        assert file_of == {"rtt": "rtt.csv", "r_factor": "r_factor.csv"}

    def test_csv_bytes_match_golden_digests(self, tmp_path):
        scn = tmp_path / "scenario.json"
        scn.write_text(json.dumps(SCENARIO))
        cap = tmp_path / "capture.pcap"
        assert entrypoint(["synth", "--scenario", str(scn),
                           "--out", str(cap)]) == 0
        assert entrypoint(["analyze", "--input", str(cap),
                           "--out", str(tmp_path / "out"),
                           "--scenario", "golden", "--seed", "5"]) == 0
        session_dir = tmp_path / "out" / "golden-1"
        files = {p.name: p.read_text() for p in session_dir.glob("*.csv")}
        got = {
            f"{name}.csv": hashlib.sha256(text.encode()).hexdigest()
            for name, text in export_reference.v3_series_csvs(files).items()
        }
        assert got == GOLDEN_CSV_SHA256
