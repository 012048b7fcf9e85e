"""Capture-to-report pipeline behind the ``analyze`` subcommand.

Report building is pure: ``build_session_report`` returns the report
dict plus every export file as text, and ``analyze_capture`` only then
touches the filesystem. Everything is deterministic for fixed inputs,
so two runs produce byte-identical output trees.

``analyze_capture`` fits the GEVs of every session in one
:func:`~voipqos.evt.fit_gev_batch` call after the session loop: each
report's ``fits`` entries wait in a list passed to
``build_session_report``, and the report.json files are written once
they are filled in. A fit comes out as ``fit_gev_batch`` gives it for
the sample alone, so a report built alone, which fits its own samples,
has the same bytes. With ``candidates``, ``select_model`` then ranks
each sample, taking its GEV fit from that call: ranked or not, a sample
is fitted once and its fit entry is the same.

Each value is written once (report schema version 4). A session
directory holds report.json and one CSV per time axis, with a column per
metric series on it: ``bandwidth.csv`` (bandwidth, jitter, sigma_j) and
``rtt.csv`` (rtt and the other XR series) for a call with RTP and RTCP XR.
``metrics[name].csv`` names the file of each series, and the header
names its column. report.json holds the units, the sigma_j/RTT
quantiles, the bandwidth-vs-sigma_j histogram and the PCA axes; the
CSVs hold the samples, which also rebuild the PCA scores.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import (
    BadRecord,
    DomainError,
    NotConverged,
    TooFewPoints,
    VoipQosError,
    ZeroVariance,
)
from ..evt import MIN_FIT_POINTS, check_families, fit_gev_batch, select_model
from ..evt import fit_gev_mle  # noqa: F401 (unused; perfbench/tracer.py wraps it)
from ..ingest.capture import Capture, parse_jsonl, parse_pcap
from ..ingest.codecs import load_codec_map
from ..ingest.sessions import CallSession, assemble_sessions
from ..metrics import (
    MetricSeries,
    bandwidth_series,
    jitter_series,
    loss_summary,
    moving_std,
    rtt_series,
    series_csvs,
    sip_delays,
    xr_metric_series,
)
from ..stats import bivariate_hist, empirical_cdf, pca

SCHEMA_VERSION = 4
#: p = 0, 0.05, ..., 1 for the sigma_j and RTT quantiles in report.json
QUANTILE_PROBS = np.linspace(0.0, 1.0, 21)


def json_text(doc) -> str:
    """``doc`` as every JSON document of the CLI is written: one line,
    keys sorted, then a newline."""
    return json.dumps(doc, sort_keys=True) + "\n"


def read_json(path: str | Path, error: type[VoipQosError], what: str):
    """The JSON document in the file ``path``. A file that cannot be read,
    is not UTF-8 or is not JSON raises ``error``, naming ``what`` and the
    file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # UnicodeDecodeError, JSONDecodeError
        raise error(f"cannot read {what} {path}: {exc}") from exc


@dataclass(frozen=True)
class AnalysisConfig:
    inputs: tuple
    out_dir: str = "voipqos-out"
    payload_type_map: dict = field(default_factory=load_codec_map)
    sigma_window: float = 1.0
    bandwidth_window: float = 1.0
    scenario_tag: str = ""
    candidates: tuple | None = None  # family names; None fits GEV only

    def __post_init__(self) -> None:
        if not self.inputs:
            raise DomainError("at least one input capture is required")
        if not self.sigma_window > 0 or not self.bandwidth_window > 0:
            raise DomainError("windows must be positive")
        check_families(self.candidates or ())


def read_records(path: str | Path) -> Capture:
    """Load packet records from one capture file, whatever its name.

    The file is line-delimited JSON when its first byte that is not ASCII
    whitespace is ``{``, or when it has no such byte, after an optional
    UTF-8 byte-order mark (no pcap magic starts with its ``EF``); any
    other file is a pcap, so an unknown magic is refused with
    ``BadMagic``. Every refusal names the file.
    """
    data = Path(path).read_bytes()
    try:
        if re.match(rb"(\xef\xbb\xbf)?\s*(\{|$)", data) is None:
            return parse_pcap(data)
        return parse_jsonl(data.decode("utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise BadRecord(f"{path}: a jsonl capture must be UTF-8 ({exc})") from None
    except VoipQosError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _series_summary(series: MetricSeries, csv: str) -> dict:
    """The report entry of ``series``, whose column is in the file ``csv``."""
    v = series.values()
    summary = {
        "unit": series.unit,
        "count": int(len(v)),
        "mean": float(np.mean(v)),
        "std": float(np.std(v, ddof=1)) if len(v) >= 2 else 0.0,
        "min": float(np.min(v)),
        "max": float(np.max(v)),
        "csv": csv,
    }
    if series.name in ("sigma_j", "rtt"):  # the CDF figures' metrics
        summary["quantiles"] = empirical_cdf(v).quantile(QUANTILE_PROBS).tolist()
    return summary


def _gev_entry(outcome) -> dict:
    """Report entry of a GEV fit, or of the error that fitting raised."""
    if isinstance(outcome, NotConverged):
        outcome = outcome.fit  # best iterate, reported with converged=false
    elif isinstance(outcome, (VoipQosError, ValueError)):
        return {"skipped": f"fit failed: {outcome}"}
    return outcome.to_json_dict()


def _fit_entry(values: np.ndarray, pending: list) -> dict:
    """The report entry of the GEV fit of ``values``: empty, while
    ``(entry, values)`` waits in ``pending`` until :func:`_fill_fits`."""
    if len(values) < MIN_FIT_POINTS:
        return {"skipped": f"need >= {MIN_FIT_POINTS} values, have {len(values)}"}
    entry: dict = {}
    pending.append((entry, values))
    return entry


def _fill_fits(pending: list, families: tuple | None) -> None:
    """Fit every ``(entry, values)`` of ``pending`` in one
    :func:`fit_gev_batch` call and fill the entries in.

    With ``families``, each entry also gets the ``ranking`` that
    :func:`select_model` makes of its sample with that GEV fit.
    """
    outcomes = fit_gev_batch([values for _, values in pending])
    for (entry, values), outcome in zip(pending, outcomes):
        entry.update(_gev_entry(outcome))
        if families is not None:
            # families positional: perfbench/tracer.py reads them as args[1]
            ranking = select_model(values, families, gev=outcome)
            entry["ranking"] = [f.to_json_dict() for f in ranking]


def _session_span(session: CallSession) -> tuple[float, float]:
    """First and last time seen; assembly keeps every list time-sorted."""
    columns = (session.rtp_fwd.capture_ts, session.rtp_rev.capture_ts,
               session.xr_blocks.report_ts)
    ends = [float(c[i]) for c in columns if len(c) for i in (0, -1)]
    dialog = session.sip_dialog
    ends += [m.capture_ts for m in dialog[:1] + dialog[-1:]]
    return (min(ends), max(ends)) if ends else (0.0, 0.0)


def build_session_report(
    session: CallSession, config: AnalysisConfig, pending: list | None = None
) -> tuple[dict, dict]:
    """Compute every metric and export for one session.

    Returns (report dict, {CSV filename: file text}); the report's
    ``metrics[name].csv`` name exactly the returned files. With
    ``pending``, the GEV fits and their rankings are left to the caller:
    each empty entry of ``report["fits"]`` is appended with its sample as
    ``(entry, values)``. Without it, :func:`_fill_fits` fits and ranks
    the session's samples here.
    """
    series_by_name: dict[str, MetricSeries] = {}

    # media metrics run on the forward (caller -> callee) stream; when a
    # capture only saw the reverse leg, that is the stream we have
    stream = session.rtp_fwd if len(session.rtp_fwd) >= 2 else session.rtp_rev

    jitter = None
    if len(stream) >= 2 and session.clock_rate:
        jitter = jitter_series(stream, clock_rate=session.clock_rate)
        sigma_j = moving_std(jitter, window=config.sigma_window)
        series_by_name["jitter"] = jitter
        series_by_name["sigma_j"] = sigma_j
    if stream:
        series_by_name["bandwidth"] = bandwidth_series(
            stream, window=config.bandwidth_window
        )
    rtt = rtt_series(session.xr_blocks)
    if len(rtt):
        series_by_name["rtt"] = rtt
    for which in ("r_factor", "signal_level"):
        xr_series = xr_metric_series(session.xr_blocks, which)
        if len(xr_series):
            series_by_name[which] = xr_series
    if "signal_level" in series_by_name:
        series_by_name["sigma_sl"] = moving_std(
            series_by_name["signal_level"], window=config.sigma_window
        )

    nonempty = [s for s in series_by_name.values() if len(s)]
    files, file_of = series_csvs(nonempty)
    metrics = {s.name: _series_summary(s, file_of[s.name]) for s in nonempty}

    hist = projection = None
    if jitter is not None:
        bw = series_by_name["bandwidth"]
        # jitter's times are bandwidth's from the second packet on
        bw_at_jitter = bw.values()[1:]
        hist = bivariate_hist(bw_at_jitter, sigma_j.values()).to_json_dict()

        columns = [
            ("jitter", jitter.values()),
            ("sigma_j", sigma_j.values()),
            ("bandwidth", bw_at_jitter),
        ]
        if len(rtt) >= 2:
            columns.append(
                ("rtt", np.interp(jitter.times(), rtt.times(), rtt.values()))
            )
        matrix = np.column_stack([c[1] for c in columns])
        try:
            # the CSVs rebuild the scores
            projection = pca(matrix, k=matrix.shape[1], standardize=True,
                             variables=tuple(c[0] for c in columns)
                             ).axes_json_dict()
        except (ZeroVariance, TooFewPoints):
            pass  # constant metric or too little data: no projection

    loss = None
    if stream:
        summary = loss_summary(stream)
        loss = {
            "expected": summary.expected,
            "received": summary.received,
            "loss_pct": summary.loss_pct,
        }

    delays = None
    if session.sip_dialog:
        d = sip_delays(session.sip_dialog)
        delays = {"csd": d.csd, "sdd": d.sdd}

    fits = {}
    waiting = [] if pending is None else pending
    for target in ("jitter", "rtt"):
        source = series_by_name.get(target)
        values = source.values() if source is not None else np.empty(0)
        fits[target] = _fit_entry(values, waiting)
    if pending is None:
        _fill_fits(waiting, config.candidates)

    start, end = _session_span(session)
    report = {
        "schema_version": SCHEMA_VERSION,
        "session": {
            "id": session.session_id,
            "codec": session.codec,
            "clock_rate": session.clock_rate,
            "scenario": config.scenario_tag,
            "rtp_fwd": len(session.rtp_fwd),
            "rtp_rev": len(session.rtp_rev),
            "xr_blocks": len(session.xr_blocks),
            "sip_messages": len(session.sip_dialog),
            "start": start,
            "end": end,
            "duration": end - start,
        },
        "metrics": metrics,
        "loss": loss,
        "sip_delays": delays,
        "fits": fits,
        "bandwidth_sigma_hist": hist,
        "pca": projection,
    }
    return report, files


def _safe_dir_name(session_id: str, taken: set) -> str:
    base = re.sub(r"[^-._a-zA-Z0-9]", "_", session_id) or "session"
    if not base.strip("."):  # "." or ".." would name --out or its parent
        base = base.replace(".", "_")
    name = base
    counter = 2
    while name in taken:
        name = f"{base}.{counter}"
        counter += 1
    taken.add(name)
    return name


def analyze_capture(config: AnalysisConfig) -> tuple[list, int, list]:
    """Run the full pipeline; returns (reports, set-aside record count,
    [(session id, reason)] for each session whose report failed and was
    skipped)."""
    sessions, residue = assemble_sessions(
        Capture.concat([read_records(p) for p in config.inputs]),
        config.payload_type_map,
    )
    set_aside = len(residue)
    del residue  # it views the capture buffer, which the reports do not need
    out_root = Path(config.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    written, failures, pending = [], [], []
    taken: set = set()
    for session in sessions:
        fits: list = []
        try:
            report, files = build_session_report(session, config, pending=fits)
        except VoipQosError as exc:
            failures.append((session.session_id, str(exc)))
            continue
        pending += fits
        dir_name = _safe_dir_name(report["session"]["id"], taken)
        report["session"]["directory"] = dir_name
        session_dir = out_root / dir_name
        session_dir.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            (session_dir / name).write_text(content)
        written.append((report, session_dir))
    _fill_fits(pending, config.candidates)
    for report, session_dir in written:
        (session_dir / "report.json").write_text(json_text(report))
    return [report for report, _ in written], set_aside, failures
