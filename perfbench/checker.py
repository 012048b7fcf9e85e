"""Compare CLI outputs with the generator's ground truth.

An operation is one generated call (``analyze``) or one input sample
(``fit``). It fails when its output is missing or differs from the truth;
the callers also fail it when the command that produced it exited
non-zero.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema
import numpy as np

SCHEMA_PATH = (
    Path(__file__).resolve().parents[1]
    / "src/voipqos/schemas/session_report.schema.json"
)
DELAY_TOL_S = 1e-6
XI_TOL = 0.05


def _load_output(path: Path):
    """Parsed JSON output, or None when it is missing or malformed."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def report_validator(schema_path: Path = SCHEMA_PATH):
    schema = json.loads(schema_path.read_text())
    return jsonschema.Draft202012Validator(schema)


def _call_ok(call: dict, report: dict, tag: str, codec: str) -> bool:
    session = report["session"]
    loss = report["loss"] or {}
    delays = report["sip_delays"] or {}
    if (
        session["codec"] != codec
        or session["scenario"] != tag
        or session["rtp_fwd"] != call["rtp_fwd"]
        or session["rtp_rev"] != call["rtp_rev"]
        or session["xr_blocks"] != len(call["xr_delays"])
        or loss.get("expected") != call["expected"]
        or loss.get("received") != call["received"]
    ):
        return False
    for key in ("csd", "sdd"):
        got = delays.get(key)
        if got is None or abs(got - call[key]) > DELAY_TOL_S:
            return False
    if call["xr_delays"]:
        rtt = report["metrics"].get("rtt")
        want = float(np.mean(np.asarray(call["xr_delays"], dtype=float)))
        if rtt is None or rtt["mean"] != want:
            return False
    return True


def check_analyze(truth: dict, out_dir: Path, validator) -> set:
    """Call-IDs of the capture whose session report is missing or wrong.

    A session count other than the number of generated calls means calls
    were split or merged, so every call of the capture fails.
    """
    calls = {c["call_id"]: c for c in truth["calls"]}
    paths = sorted(Path(out_dir).glob("*/report.json"))
    if len(paths) != len(calls):
        return set(calls)
    reports = {}
    for path in paths:
        report = _load_output(path)
        if report is not None and validator.is_valid(report):
            reports[report["session"]["id"]] = report
    return {
        cid for cid, call in calls.items()
        if cid not in reports
        or not _call_ok(call, reports[cid], truth["tag"], truth["codec"])
    }


def check_merged(truths: list, path: Path) -> bool:
    """The merged report lists every call once, under its capture's tag."""
    want = {t["tag"]: sorted(c["call_id"] for c in t["calls"]) for t in truths}
    merged = _load_output(path)
    try:
        got = {tag: sorted(s["sessions"])
               for tag, s in merged["by_scenario"].items()}
        rows = len(merged["sessions"])
    except (KeyError, TypeError, AttributeError):
        return False
    return got == want and rows == sum(map(len, want.values()))


def check_fit(truth: dict, path: Path) -> bool:
    """The GEV shape is within ``XI_TOL`` of the truth, with its sign."""
    out = _load_output(path)
    if not isinstance(out, dict) or not out.get("ranking"):
        return False
    xi = (out.get("gev") or {}).get("xi")
    if not isinstance(xi, float) or not math.isfinite(xi):
        return False
    return abs(xi - truth["xi"]) <= XI_TOL and (xi < 0) == (truth["xi"] < 0)
