"""Cross-session comparison behind the ``report`` subcommand.

Takes per-session report.json files of the current schema version (or
directories containing them) and builds one merged document: a compact
row per session plus per-scenario aggregates, so two capture campaigns
can be compared side by side the way fixed and mobile access were.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import BadRecord, EmptyData, TooFewPoints, ZeroVariance
from ..stats import boxplot_stats, pca
from .analyze import SCHEMA_VERSION, read_json


def _collect(paths) -> list[dict]:
    reports = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            for rp in sorted(path.rglob("report.json")):
                if rp.is_file():  # a session directory may be named so
                    reports.append((rp, read_json(rp, BadRecord, "report")))
        else:
            reports.append((path, read_json(path, BadRecord, "report")))
    out = []
    for path, r in reports:
        if not isinstance(r, dict) or "session" not in r:
            raise BadRecord(f"{path} is not a session report")
        if r.get("schema_version") != SCHEMA_VERSION:
            raise BadRecord(
                f"{path} has report schema version "
                f"{r.get('schema_version')}, expected {SCHEMA_VERSION}"
            )
        out.append(r)
    return out


def _metric_mean(report: dict, name: str):
    entry = report.get("metrics", {}).get(name)
    return entry["mean"] if entry else None


def _session_row(report: dict) -> dict:
    loss = report.get("loss")
    delays = report.get("sip_delays") or {}
    fits = report.get("fits", {})
    rtt_fit = fits.get("rtt") or {}
    jitter_fit = fits.get("jitter") or {}
    return {
        "id": report["session"]["id"],
        "scenario": report["session"].get("scenario", ""),
        "codec": report["session"].get("codec"),
        "rtp_packets": report["session"].get("rtp_fwd", 0)
        + report["session"].get("rtp_rev", 0),
        "duration": report["session"].get("duration"),
        "loss_pct": loss["loss_pct"] if loss else None,
        "csd": delays.get("csd"),
        "sdd": delays.get("sdd"),
        "mean_jitter_ms": _metric_mean(report, "jitter"),
        "mean_sigma_j_ms": _metric_mean(report, "sigma_j"),
        "mean_bandwidth_kbps": _metric_mean(report, "bandwidth"),
        "mean_rtt_ms": _metric_mean(report, "rtt"),
        "jitter_xi": jitter_fit.get("xi"),
        "rtt_xi": rtt_fit.get("xi"),
    }


def _mean_of(rows: list[dict], key: str):
    vals = [r[key] for r in rows if r[key] is not None]
    return sum(vals) / len(vals) if vals else None


def _delay_boxplot(rows: list[dict], key: str):
    vals = [r[key] for r in rows if r[key] is not None]
    if not vals:
        return None
    return boxplot_stats(vals, label=key, unit="s").to_json_dict()


def merge_reports(paths) -> dict:
    """Merge session reports into one comparison document."""
    reports = _collect(paths)
    if not reports:
        raise EmptyData("no session reports found under the given paths")
    rows = sorted(
        (_session_row(r) for r in reports),
        key=lambda row: (row["scenario"], row["id"]),
    )

    by_scenario = {}
    for row in rows:
        by_scenario.setdefault(row["scenario"], []).append(row)
    scenarios = {}
    for tag, group in by_scenario.items():
        scenarios[tag] = {
            "sessions": [r["id"] for r in group],
            "csd_boxplot": _delay_boxplot(group, "csd"),
            "sdd_boxplot": _delay_boxplot(group, "sdd"),
            "mean_loss_pct": _mean_of(group, "loss_pct"),
            "mean_jitter_ms": _mean_of(group, "mean_jitter_ms"),
            "mean_sigma_j_ms": _mean_of(group, "mean_sigma_j_ms"),
            "mean_bandwidth_kbps": _mean_of(group, "mean_bandwidth_kbps"),
            "mean_rtt_ms": _mean_of(group, "mean_rtt_ms"),
        }

    # cross-session view of the metric space, when enough sessions carry
    # all four variables
    variables = (
        "mean_jitter_ms", "mean_sigma_j_ms", "mean_bandwidth_kbps", "mean_rtt_ms",
    )
    complete = [
        row for row in rows if all(row[v] is not None for v in variables)
    ]
    projection = None
    if len(complete) >= 2:
        matrix = [[row[v] for v in variables] for row in complete]
        try:
            projection = pca(
                matrix, k=len(variables), standardize=True, variables=variables
            ).to_json_dict()
            projection["sessions"] = [row["id"] for row in complete]
        except (ZeroVariance, TooFewPoints):
            projection = None

    return {
        "sessions": rows,
        "by_scenario": scenarios,
        "pca": projection,
    }
