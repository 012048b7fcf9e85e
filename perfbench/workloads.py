"""The benchmark's workloads: inputs from a seed, CLI commands, checks.

Each workload is run the way a user runs the ``voipqos`` CLI: a list of
``entrypoint`` argument vectors, executed in order. ``prepare`` writes the
inputs (never timed); ``check`` compares the outputs of the last
repetition with the generator's ground truth after the timed region.
``prepare(..., probe=True)`` writes small inputs of the same shape, on
which ``probe.py`` measures the first-call costs of the same commands.

- ``long_call``: one 10-minute G711-A call, forward leg only, 1% loss, XR
  every 0.5 s. Per-sample work dominates: the moving deviation, a large
  series export and the decode of one long stream. Session assembly has
  almost nothing to do.
- ``campaign``: the fixed-vs-mobile comparison. Two captures, ``wired``
  and ``mobile``, drawn from different jitter and RTT rows, each with 150
  overlapping 3-second bidirectional calls and XR every 1 s; each goes
  through ``analyze`` and ``report`` merges both trees. Session assembly,
  per-session fixed cost (small GEV fits, many small files) and record
  memory dominate.
- ``model_select``: ``fit`` with all ten families on twelve 3e4-value GEV
  samples, six each from the G711-A jitter and RTT rows. Nearly all the
  work is in the extreme-value layer; capture decode and the metric series
  are bypassed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

# Each input file gets its own seed, derived from the run seed, so the
# wired and mobile captures (and the fit samples) are independent.
_SEED_STRIDE = 1000

FIT_TARGETS = ("jitter", "rtt")
FIT_VALUES = 30_000
# GeneralizedPareto fitting alone takes 0.3-1.0 s per sample, depending on
# the draw; six samples per target keep the run's total steady across
# seeds (the spread of wall_ref over ten seeds was 0.12 with four).
FIT_SAMPLES = 6

# Probe inputs: a few short calls per capture, one short sample per target.
PROBE_CALLS = 3
PROBE_MEDIA_S = 2.0
PROBE_VALUES = 500


# The imports of capgen and checker stay inside the functions: the worker
# process imports this module for the command lines only, and its peak
# memory should be the CLI's alone.
@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[Path, int, bool], dict]
    commands: Callable[[Path, Path], list]
    check: Callable[[Path, Path, set], tuple]


def _long_call_spec():
    from capgen import JITTER_ROWS, RTT_ROWS, CaptureSpec

    return CaptureSpec(
        tag="long_call", calls=1, media_s=600.0, stagger_s=1.0,
        bidirectional=False, xr_interval_s=0.5, loss=0.01,
        jitter=JITTER_ROWS["G711-A"], rtt=RTT_ROWS["G711-A"], network=1,
    )


def _campaign_specs():
    from capgen import JITTER_ROWS, RTT_ROWS, CaptureSpec

    common = dict(calls=150, media_s=3.0, stagger_s=0.2, bidirectional=True,
                  xr_interval_s=1.0, loss=0.01)
    return (
        CaptureSpec(tag="wired", jitter=JITTER_ROWS["G711-A"],
                    rtt=RTT_ROWS["G711-A"], network=1, **common),
        CaptureSpec(tag="mobile", jitter=JITTER_ROWS["OPUS"],
                    rtt=RTT_ROWS["G729"], network=2, **common),
    )


def _prepare_captures(specs, inputs: Path, seed: int, probe: bool) -> dict:
    from capgen import write_capture

    if probe:
        specs = [replace(s, calls=min(s.calls, PROBE_CALLS),
                         media_s=PROBE_MEDIA_S) for s in specs]
    records = 0
    for k, spec in enumerate(specs):
        records += write_capture(
            spec, seed * _SEED_STRIDE + k,
            inputs / f"{spec.tag}.pcap", inputs / f"{spec.tag}.truth.json",
        )
    return {"items": records}


def _analyze(inputs: Path, out: Path, tag: str) -> list:
    return ["analyze", "--input", str(inputs / f"{tag}.pcap"),
            "--out", str(out / tag), "--scenario", tag]


def _check_captures(tags, inputs: Path, out: Path, failed_cmds: set,
                    report_cmd: int | None = None) -> tuple:
    from checker import check_analyze, check_merged, report_validator

    validator = report_validator()
    truths = [json.loads((inputs / f"{tag}.truth.json").read_text())
              for tag in tags]
    attempted = failed = 0
    merged_ok = True
    if report_cmd is not None:
        merged_ok = report_cmd not in failed_cmds and check_merged(
            truths, out / "report.json")
    for k, truth in enumerate(truths):
        bad = check_analyze(truth, out / truth["tag"], validator)
        n = len(truth["calls"])
        attempted += n
        if k in failed_cmds or not merged_ok:
            failed += n
        else:
            failed += len(bad)
    return attempted, failed


def _prepare_fit(inputs: Path, seed: int, probe: bool) -> dict:
    from capgen import JITTER_ROWS, RTT_ROWS, write_values

    rows = {"jitter": JITTER_ROWS["G711-A"], "rtt": RTT_ROWS["G711-A"]}
    per_target, n = (1, PROBE_VALUES) if probe else (FIT_SAMPLES, FIT_VALUES)
    # (sample name, target) for every ``fit`` input, in command order
    samples = [(f"{target}-{i}", target)
               for target in FIT_TARGETS for i in range(per_target)]
    for k, (name, target) in enumerate(samples):
        write_values(rows[target], n, seed * _SEED_STRIDE + k,
                     inputs / f"{name}.txt")
    truth = {t: {"xi": r.xi, "sigma": r.sigma, "mu": r.mu} for t, r in rows.items()}
    truth["samples"] = samples
    (inputs / "truth.json").write_text(json.dumps(truth, sort_keys=True) + "\n")
    return {"items": n * len(samples)}


def _fit_samples(inputs: Path) -> list:
    return json.loads((inputs / "truth.json").read_text())["samples"]


def _fit_commands(inputs: Path, out: Path) -> list:
    return [
        ["fit", "--input", str(inputs / f"{name}.txt"), "--target", target,
         "--out", str(out / f"{name}.json")]
        for name, target in _fit_samples(inputs)
    ]


def _check_fit(inputs: Path, out: Path, failed_cmds: set) -> tuple:
    from checker import check_fit

    truth = json.loads((inputs / "truth.json").read_text())
    samples = truth["samples"]
    failed = sum(
        k in failed_cmds or not check_fit(truth[target], out / f"{name}.json")
        for k, (name, target) in enumerate(samples)
    )
    return len(samples), failed


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="long_call",
            prepare=lambda inputs, seed, probe: _prepare_captures(
                (_long_call_spec(),), inputs, seed, probe),
            commands=lambda inputs, out: [_analyze(inputs, out, "long_call")],
            check=lambda inputs, out, failed_cmds: _check_captures(
                ("long_call",), inputs, out, failed_cmds),
        ),
        Workload(
            name="campaign",
            prepare=lambda inputs, seed, probe: _prepare_captures(
                _campaign_specs(), inputs, seed, probe),
            commands=lambda inputs, out: [
                _analyze(inputs, out, "wired"),
                _analyze(inputs, out, "mobile"),
                ["report", "--input", str(out / "wired"), str(out / "mobile"),
                 "--out", str(out / "report.json")],
            ],
            check=lambda inputs, out, failed_cmds: _check_captures(
                ("wired", "mobile"), inputs, out, failed_cmds, report_cmd=2),
        ),
        Workload(
            name="model_select",
            prepare=_prepare_fit,
            commands=_fit_commands,
            check=_check_fit,
        ),
    )
}
