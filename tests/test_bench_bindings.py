"""The traced benchmark's bindings still exist in the package.

``perfbench/tracer.py`` wraps package functions at the module attributes
their callers read (``voipqos.ingest.sessions.parse_rtp``, for one). A
refactor that removes or renames such a binding, or stops calling
through it, silently breaks the traced benchmark; these tests catch it
here instead.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
from pathlib import Path

import pytest

from tests import builders
from voipqos.cli import entrypoint
from voipqos.evt import GevParams, gev_sample
from voipqos.ingest import PacketRecord, assemble_sessions, parse_pcap

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def _bindings(tracer):
    return [(importlib.import_module(m), attr) for m, attr, _, _ in tracer.LAYERS]


def test_install_wraps_every_binding_and_restore_undoes_it(tracer):
    originals = [getattr(module, attr) for module, attr in _bindings(tracer)]
    t = tracer.Tracer()
    try:
        tracer.install(t)
        wrapped = [getattr(module, attr) for module, attr in _bindings(tracer)]
    finally:
        t.restore()
    assert all(w is not o for w, o in zip(wrapped, originals))
    restored = [getattr(module, attr) for module, attr in _bindings(tracer)]
    assert all(r is o for r, o in zip(restored, originals))


def _csrc_rtp(ts: float, seq: int) -> PacketRecord:
    """An RTP packet of the builders' default stream with one CSRC."""
    plain = builders.rtp_record(ts, seq, seq * 160)
    payload = b"\x81" + plain.payload[1:12] + b"\x00\x00\x00\x07" \
        + plain.payload[12:]
    return dataclasses.replace(plain, payload=payload)


def test_assembly_parses_through_traced_bindings(tracer):
    records = builders.basic_dialog()
    records += [builders.rtp_record(20.0 + i * 0.02, i, i * 160) for i in range(4)]
    records += [_csrc_rtp(20.08, 4)]
    records += [builders.xr_record(21.0)]
    t = tracer.Tracer()
    try:
        tracer.install(t)
        result = assemble_sessions(records)
    finally:
        t.restore()
    assert len(result.sessions) == 1 and result.residue == []
    assert len(result.sessions[0].rtp_fwd) == 5
    assert result.sessions[0].rtp_fwd[4].header_len == 16
    assert len(result.sessions[0].xr_blocks) == 1
    assert t.counts["sessions.parse_sip.calls"] == 5
    # CSRC lists and XR blocks are decoded in columns too: no RTP or RTCP
    # packet is parsed alone
    assert t.counts["sessions.parse_rtp.calls"] == 0
    assert t.counts["sessions.parse_rtcp_xr.calls"] == 0


def _synth_capture(tmp_path) -> Path:
    """A 4-s G711-A call, synthesized to a pcap."""
    scenario = tmp_path / "scn.json"
    scenario.write_text(json.dumps({
        "codec": "G711-A", "duration": 4.0, "interval": 0.02, "seed": 3,
        "loss_probability": 0.0, "xr_interval": 0.5, "call_id": "call-1",
        "jitter_model": {"xi": -0.1, "sigma": 1.8, "mu": 7.3},
        "rtt_model": {"xi": 0.2, "sigma": 12.0, "mu": 124.0},
    }))
    capture = tmp_path / "call.pcap"
    assert entrypoint(["synth", "--scenario", str(scenario),
                       "--out", str(capture)]) == 0
    return capture


def test_traced_analyze_counts_decode_and_assembly(tracer, tmp_path):
    capture = _synth_capture(tmp_path)
    udp_records = len(parse_pcap(capture.read_bytes()))
    t = tracer.Tracer()
    try:
        tracer.install(t)
        assert entrypoint(["analyze", "--input", str(capture),
                           "--out", str(tmp_path / "out")]) == 0
    finally:
        t.restore()
    seconds = t.self_times()
    assert seconds["capture.parse"] > 0 and seconds["sessions.assemble"] > 0
    assert t.counts["capture.records"] == udp_records > 200


def test_traced_fit_starts_near_the_optimum(tracer, tmp_path):
    # one model_select input: 3e4 G711-A jitter draws, written by capgen
    capgen = importlib.import_module("capgen")
    values = tmp_path / "jitter.txt"
    capgen.write_values(capgen.JITTER_ROWS["G711-A"], 30_000, 7000, values)
    t = tracer.Tracer()
    try:
        tracer.install(t)
        assert entrypoint(["fit", "--input", str(values),
                           "--out", str(tmp_path / "fit.json")]) == 0
    finally:
        t.restore()
    assert t.counts["evt.fit_gev_mle.calls"] == 1
    # the probability-weighted-moment start leaves a few Newton steps
    assert t.counts["evt.gev_iterations"] <= 4
    assert json.loads((tmp_path / "fit.json").read_text())["n"] == 30_000


def _traced(tracer, argv):
    t = tracer.Tracer()
    try:
        tracer.install(t)
        assert entrypoint(argv) == 0
    finally:
        t.restore()
    return t


def test_traced_fit_attempts_every_family_by_default(tracer, tmp_path):
    values = tmp_path / "vals.txt"
    sample = gev_sample(GevParams(0.1, 2.0, 30.0), 500, seed=4)
    values.write_text("".join(f"{v!r}\n" for v in sample.tolist()))
    t = _traced(tracer, ["fit", "--input", str(values),
                         "--out", str(tmp_path / "fit.json")])
    assert t.counts["evt.families_attempted"] == 10


def test_traced_analyze_attempts_the_named_families(tracer, tmp_path):
    capture = _synth_capture(tmp_path)
    t = _traced(tracer, ["analyze", "--input", str(capture),
                         "--out", str(tmp_path / "out"),
                         "--candidates", "GEV,Normal,Exponential"])
    calls = sum(1 for span in t.spans if span[2] == "evt.select_model")
    assert calls >= 1
    assert t.counts["evt.families_attempted"] == 3 * calls


def test_traced_analyze_renders_each_session_once(tracer, tmp_path):
    # the GEV fits run after the session loop, outside every render span
    capture = _synth_capture(tmp_path)
    t = _traced(tracer, ["analyze", "--input", str(capture),
                         "--out", str(tmp_path / "out")])
    renders = {span[0] for span in t.spans if span[2] == "export.render"}
    written = list((tmp_path / "out").rglob("report.json"))
    assert len(renders) == len(written) == 1
    parents = {span[0]: span[1] for span in t.spans}
    for span in t.spans:
        if span[2] == "evt.fit_gev_mle":
            at = span[1]
            while at is not None:
                assert at not in renders
                at = parents[at]
