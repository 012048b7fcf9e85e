"""Tests of the benchmark's own parts: generator, checker and tracer."""

from __future__ import annotations

import json
import types

import pytest

from capgen import JITTER_ROWS, RTT_ROWS, CaptureSpec, write_capture
from checker import check_analyze, report_validator
from tracer import Tracer
from voipqos.cli import entrypoint

TINY = CaptureSpec(
    tag="tiny", calls=3, media_s=1.0, stagger_s=0.2, bidirectional=True,
    xr_interval_s=0.5, loss=0.05, jitter=JITTER_ROWS["G711-A"],
    rtt=RTT_ROWS["G711-A"], network=1,
)


def _write(tmp_path, name, seed):
    pcap, truth = tmp_path / f"{name}.pcap", tmp_path / f"{name}.truth.json"
    write_capture(TINY, seed, pcap, truth)
    return pcap, truth


def test_same_seed_gives_identical_capture_and_sidecar(tmp_path):
    a = _write(tmp_path, "a", seed=5)
    b = _write(tmp_path, "b", seed=5)
    c = _write(tmp_path, "c", seed=6)
    for x, y in zip(a, b):
        assert x.read_bytes() == y.read_bytes()
    assert a[0].read_bytes() != c[0].read_bytes()


@pytest.fixture
def analyzed(tmp_path):
    pcap, truth_path = _write(tmp_path, "cap", seed=3)
    out = tmp_path / "out"
    rc = entrypoint(["analyze", "--input", str(pcap), "--out", str(out),
                     "--scenario", TINY.tag])
    assert rc == 0
    return json.loads(truth_path.read_text()), out


def test_checker_accepts_faithful_reports(analyzed):
    truth, out = analyzed
    assert len(truth["calls"]) == TINY.calls
    assert check_analyze(truth, out, report_validator()) == set()


def test_checker_fails_call_with_mutated_rtp_fwd(analyzed):
    truth, out = analyzed
    victim = truth["calls"][1]["call_id"]
    path = out / victim / "report.json"
    report = json.loads(path.read_text())
    report["session"]["rtp_fwd"] += 1
    path.write_text(json.dumps(report))
    assert check_analyze(truth, out, report_validator()) == {victim}


def test_tracer_self_times_on_nested_calls():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.span("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.span("outer", body)()
    # outer spans ticks 0..5, the two inner calls 1..2 and 3..4
    assert tracer.self_times() == {"outer": 3, "inner": 2}
    assert [(s[1], s[2]) for s in tracer.spans] == [
        (None, "outer"), (0, "inner"), (0, "inner")]


def test_tracer_patch_count_and_restore():
    def work(x):
        if x < 0:
            raise ValueError(x)
        return x

    module = types.SimpleNamespace(work=work, leaf=abs)
    tracer = Tracer()
    seen = []
    tracer.patch(module, "work", tracer.span(
        "layer", module.work,
        lambda counts, args, result, exc: seen.append((result, type(exc)))))
    tracer.patch(module, "leaf", tracer.count("leaf.calls", module.leaf))
    assert module.work(2) == 2
    with pytest.raises(ValueError):
        module.work(-1)
    module.leaf(-3)
    module.leaf(4)
    assert seen == [(2, type(None)), (None, ValueError)]
    assert len(tracer.spans) == 2 and all(s[4] is not None for s in tracer.spans)
    assert tracer.counts["leaf.calls"] == 2
    tracer.reset()
    module.leaf(1)
    assert tracer.counts["leaf.calls"] == 1 and tracer.spans == []
    tracer.restore()
    assert module.work is work and module.leaf is abs
