"""Command-line interface.

Subcommands:
  analyze  capture file(s) -> per-session metric/fit reports
  fit      values file -> ranked distribution fits
  synth    scenario JSON -> synthetic capture (closes the test loop)
  report   session reports -> one cross-scenario comparison document

Exit codes: 0 success, 1 fatal error (diagnostic on stderr), 2 partial
success (the capture held records that were set aside: unparsable,
unbound, or RTP packets repeating a capture time of their stream; or a
session's report failed and was skipped while every other session was
written; stderr names it and the reason).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from ..errors import VoipQosError
from ..evt import check_families, fit_gev_mle, select_model
from ..ingest.codecs import load_codec_map
from .analyze import AnalysisConfig, _gev_entry, analyze_capture, json_text
from .report import merge_reports
from .synth import load_scenario, synth_to_file

__all__ = [
    "AnalysisConfig",
    "analyze_capture",
    "build_parser",
    "entrypoint",
    "load_scenario",
    "merge_reports",
    "synth_to_file",
]


def _parse_candidates(text: str | None) -> tuple | None:
    if text is None:
        return None
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise VoipQosError("--candidates given but no family names found")
    return check_families(names)


def _cmd_analyze(args) -> int:
    config = AnalysisConfig(
        inputs=tuple(args.input),
        out_dir=args.out,
        payload_type_map=load_codec_map(args.codecs_map),
        sigma_window=args.sigma_window,
        bandwidth_window=args.bw_window,
        scenario_tag=args.scenario,
        candidates=_parse_candidates(args.candidates),
    )
    reports, residue, failures = analyze_capture(config)
    if not reports and not failures:
        print("warning: no call sessions found in the input", file=sys.stderr)
    print(f"wrote {len(reports)} session report(s) under {args.out}")
    for report in reports:
        meta = report["session"]
        print(f"  {meta['directory']}: codec={meta['codec']} "
              f"rtp={meta['rtp_fwd']}+{meta['rtp_rev']} xr={meta['xr_blocks']}")
    for session_id, reason in failures:
        print(f"warning: session {session_id} skipped: {reason}",
              file=sys.stderr)
    if residue:
        print(
            f"warning: {residue} record(s) set aside: not parseable as "
            "RTP/RTCP/SIP, not bound to a call, or an RTP packet repeating "
            "a capture time of its stream",
            file=sys.stderr,
        )
    return 2 if residue or failures else 0


def _read_values(path: str):
    """The numbers of a values file, one per line; blank lines are skipped.

    ``np.loadtxt`` parses the file in C when it holds one column of plain
    floats; anything else (``1_000``, a bad token, a line of two numbers)
    takes the line loop, which accepts exactly what ``float()`` does and
    names the first bad line.
    """
    import warnings

    import numpy as np

    try:
        with warnings.catch_warnings():
            # a file without numbers reads as empty, as in the loop
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(path, comments=None, ndmin=2)
        # ndmin=1 would flatten a one-line file of two numbers
        if values.shape[1] == 1:
            return values[:, 0]
    except (ValueError, OSError):
        pass
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise VoipQosError(f"{path}: not UTF-8 text ({exc})") from None
    values = []
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text:
            continue
        try:
            values.append(float(text))
        except ValueError:
            raise VoipQosError(
                f"{path}:{lineno}: not a number: {text!r}"
            ) from None
    return np.array(values)


def _cmd_fit(args) -> int:
    values = _read_values(args.input)
    families = _parse_candidates(args.candidates)
    try:
        gev = fit_gev_mle(values)
    except (VoipQosError, ValueError) as exc:
        gev = exc
    # families positional: perfbench/tracer.py reads them as args[1]
    ranking = select_model(values, families, gev=gev)
    report = {
        "target": args.target,
        "n": len(values),
        "ranking": [f.to_json_dict() for f in ranking],
        "gev": _gev_entry(gev),
    }
    return _emit(report, args.out, "fit report")


def _cmd_synth(args) -> int:
    spec = load_scenario(args.scenario)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    count = synth_to_file(spec, args.out)
    print(f"wrote {count} records to {args.out}")
    return 0


def _cmd_report(args) -> int:
    return _emit(merge_reports(args.input), args.out, "merged report")


def _emit(doc: dict, out: str | None, what: str) -> int:
    """Write ``doc`` as JSON to the file ``out``, or to stdout without one."""
    if out:
        Path(out).write_text(json_text(doc))
        print(f"wrote {what} to {out}")
    else:
        print(json_text(doc), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voipqos",
        description="Offline VoIP call quality analysis and modelling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="decode captures and report per call")
    pa.add_argument("--input", nargs="+", required=True,
                    help="capture file(s), pcap or jsonl (read from the bytes)")
    pa.add_argument("--out", default="voipqos-out",
                    help="output directory (default: voipqos-out)")
    pa.add_argument("--sigma-window", type=float, default=1.0,
                    help="moving-deviation window, seconds (default 1.0)")
    pa.add_argument("--bw-window", type=float, default=1.0,
                    help="bandwidth moving-average window, seconds (default 1.0)")
    pa.add_argument("--seed", type=int, default=0,
                    help="ignored: analyze draws no random numbers")
    pa.add_argument("--codecs-map", default=None,
                    help="JSON file mapping payload types to codec names")
    pa.add_argument("--candidates", default=None,
                    help="comma-separated families to rank alongside each fit")
    pa.add_argument("--scenario", default="",
                    help="scenario tag stored with every session")
    pa.set_defaults(func=_cmd_analyze)

    pf = sub.add_parser("fit", help="fit distributions to a values file")
    pf.add_argument("--input", required=True,
                    help="text file, one numeric value per line")
    pf.add_argument("--target", choices=["jitter", "rtt"], default="jitter",
                    help="what the values measure (labels the report)")
    pf.add_argument("--candidates", default=None,
                    help="comma-separated candidate families (default: all)")
    pf.add_argument("--out", default=None,
                    help="output JSON path (default: stdout)")
    pf.set_defaults(func=_cmd_fit)

    ps = sub.add_parser("synth", help="generate a synthetic call capture")
    ps.add_argument("--scenario", required=True, help="scenario JSON file")
    ps.add_argument("--out", required=True,
                    help="capture path to write: jsonl if it ends in .jsonl "
                    "or .json, else pcap")
    ps.add_argument("--seed", type=int, default=None,
                    help="override the scenario's seed")
    ps.set_defaults(func=_cmd_synth)

    pr = sub.add_parser("report", help="merge session reports for comparison")
    pr.add_argument("--input", nargs="+", required=True,
                    help="report.json files or directories holding them")
    pr.add_argument("--out", default=None,
                    help="output JSON path (default: stdout)")
    pr.set_defaults(func=_cmd_report)

    return parser


def entrypoint(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (VoipQosError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(entrypoint())
