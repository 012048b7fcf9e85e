"""The traced benchmark's bindings still exist in the package.

``perfbench/tracer.py`` wraps package functions at the module attributes
their callers read (``voipqos.ingest.sessions.parse_rtp``, for one). A
refactor that removes or renames such a binding, or stops calling
through it, silently breaks the traced benchmark; these tests catch it
here instead.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from tests import builders
from voipqos.ingest import assemble_sessions

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


def test_assembly_parses_through_traced_bindings(tracer):
    records = builders.basic_dialog()
    records += [builders.rtp_record(20.0 + i * 0.02, i, i * 160) for i in range(4)]
    records += [builders.xr_record(21.0)]
    t = tracer.Tracer()
    try:
        tracer.install(t)
        result = assemble_sessions(records)
    finally:
        t.restore()
    assert len(result.sessions) == 1 and result.residue == []
    assert t.counts["sessions.parse_sip.calls"] == 5
    assert t.counts["sessions.parse_rtp.calls"] == 4
    assert t.counts["sessions.parse_rtcp_xr.calls"] == 1
