"""The whole output of a multi-session run, pinned against a manifest.

One small capture is built from the package's own wire writers with a
fixed seed: 20 SIP calls of 3 s (G711-A and G729, some with loss), one
of them with only its reverse leg and one with only its forward leg;
XR blocks bound by SSRC and, where they report an SSRC no stream has,
by the SDP port + 1 rule, both with and without an SDP address; two
RTP-only sessions, one a mirrored pair and one a lone stream with XR;
and records that stay unbound: an XR packet on unrelated ports, a
payload no parser takes, and an RTP packet repeating its stream's
capture time.

The capture goes through ``analyze``, ``analyze --candidates`` with all
ten families and ``report``; ``fit`` ranks a 60-value GEV sample whose
Newton run takes ridge-shifted steps (``tests/test_fit_batch.py``'s
"ridge steps" sample). Every file written, and the capture itself, must
match the sha256 in ``tests/pinned_output.json``.

Numbers that pass through LAPACK can differ in their last bits between
builds, and OpenBLAS's kernels for other processors move them here: the
PCA axes (a symmetric eigensolver), and every GEV and ranked fit (3x3
solves), which the merged report's rows quote. So the top-level JSON
members :data:`BY_VALUE` are taken out of each document before it is
hashed, and pinned by value: strings, integers, booleans and keys
exactly, floats within :data:`TOL`.

A change that moves a digest on purpose rewrites the manifest with
``PYTHONPATH=src python -m tests.test_pinned_output`` and names each
moved file, and why, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from tests.builders import with_sdp_address
from tests.gev_models import JITTER_MODELS, RTT_MODELS
from voipqos.cli import entrypoint
from voipqos.evt import GevParams, default_candidates, gev_sample
from voipqos.ingest import (
    PacketRecord,
    VoipMetricsBlock,
    encode_rtp,
    encode_xr_packet,
    format_sip_request,
    format_sip_response,
    write_pcap,
)

MANIFEST = Path(__file__).with_name("pinned_output.json")
#: top-level JSON members pinned by value rather than by digest: the
#: PCA axes, the fits, and the merged report's rows, which carry each xi
BY_VALUE = ("pca", "fits", "gev", "ranking", "sessions")
#: relative and absolute tolerance on each float pinned by value
TOL = 1e-9

SEED = 2026
CALLS = 20
PACKETS = 150  # 3 s of 20-ms packets
CALLEE = "10.200.0.1"
# payload type, samples per 20-ms packet, media bytes
G711A = (8, 160, bytes(160))
G729 = (18, 160, bytes(20))
JITTER = GevParams(*JITTER_MODELS["G711-A"][:3])
RTT = GevParams(*RTT_MODELS["G711-A"][:3])


def _record(ts, src, sport, dst, dport, payload) -> PacketRecord:
    # whole microseconds, the resolution of the classic pcap format
    return PacketRecord(ts=round(ts * 1e6) / 1e6, src_addr=src, dst_addr=dst,
                        src_port=sport, dst_port=dport, transport="udp",
                        payload=payload)


def _leg(rng, records, t0, ends, ssrc, codec, loss, n=PACKETS):
    pt, step, media = codec
    jitter_ms = gev_sample(JITTER, n, seed=int(rng.integers(2**32)))
    seq0, ts0 = int(rng.integers(2**16)), int(rng.integers(2**32))
    for k in np.flatnonzero(rng.random(n) >= loss).tolist():
        records.append(_record(
            t0 + 0.02 * k + 0.05 + jitter_ms[k] / 1e3, *ends,
            encode_rtp(pt, seq0 + k, ts0 + k * step, ssrc, media)))


def _xr(rng, records, t0, ends, sender, source, count, interval=0.125):
    rtt_ms = gev_sample(RTT, count, seed=int(rng.integers(2**32)))
    for j, delay in enumerate(np.clip(np.round(rtt_ms), 1, 0xFFFF).tolist()):
        block = VoipMetricsBlock(source_ssrc=source,
                                 round_trip_delay=int(delay),
                                 r_factor=int(rng.integers(60, 94)),
                                 signal_level=-12)
        records.append(_record(t0 + (j + 1) * interval, *ends,
                               encode_xr_packet(sender, [block])))


def _call(rng, records, i, fwd_ssrc, rev_ssrc):
    call_id = f"pin-{i:02d}"
    caller = f"10.7.0.{i + 1}"
    cport, eport = 20000 + 4 * i, 30000 + 4 * i
    codec = G729 if i % 4 == 3 else G711A
    loss = 0.05 if i % 5 == 2 else 0.0
    invite = 1.0 + 0.4 * i + 0.2 * rng.random()
    ringing = invite + rng.uniform(0.1, 0.8)
    answer = ringing + rng.uniform(0.2, 0.6)
    bye = answer + 0.02 * PACKETS + 0.1
    bye_ok = bye + rng.uniform(0.02, 0.3)
    uri = f"sip:callee@{CALLEE}"
    dialog = [
        (invite, True, format_sip_request("INVITE", uri, call_id, 1,
                                          media_port=cport)),
        (ringing, False, format_sip_response(180, "Ringing", call_id, 1,
                                             "INVITE")),
        (answer, False, format_sip_response(200, "OK", call_id, 1, "INVITE",
                                            media_port=eport)),
        (bye, True, format_sip_request("BYE", uri, call_id, 2)),
        (bye_ok, False, format_sip_response(200, "OK", call_id, 2, "BYE")),
    ]
    for ts, from_caller, payload in dialog:
        src, dst = (caller, CALLEE) if from_caller else (CALLEE, caller)
        record = _record(ts, src, 5060, dst, 5060, payload)
        # odd calls name their media hosts in the SDP, even ones 0.0.0.0
        records.append(with_sdp_address(record, src) if i % 2 else record)

    forward, reverse = (caller, cport, CALLEE, eport), (CALLEE, eport, caller, cport)
    if i != 4:  # call 4 carries its reverse leg only
        _leg(rng, records, answer, forward, fwd_ssrc, codec, loss)
    if i != 9:  # call 9 carries its forward leg only
        _leg(rng, records, answer, reverse, rev_ssrc, codec, loss)
    if i == 7:
        return  # a call without XR
    # even calls report a stream of their own and bind by SSRC; odd ones
    # report an SSRC no stream has and bind by their RTCP port
    source = (rev_ssrc if i == 4 else fwd_ssrc) if i % 2 == 0 else 0xDEAD0000 + i
    _xr(rng, records, answer, (CALLEE, eport + 1, caller, cport + 1),
        rev_ssrc, source, 24)


def build_capture(seed: int = SEED) -> bytes:
    """The pinned capture's bytes."""
    rng = np.random.default_rng(seed)
    ssrcs = rng.choice(2**31, size=2 * CALLS + 3, replace=False).tolist()
    records: list[PacketRecord] = []
    for i in range(CALLS):
        _call(rng, records, i, ssrcs[2 * i], ssrcs[2 * i + 1])
    # RTP-only: a mirrored pair, and a lone stream that XR reports on
    pair = ("10.9.0.1", 50000, "10.9.0.2", 50002)
    _leg(rng, records, 2.5, pair, ssrcs[-3], G711A, 0.0)
    _leg(rng, records, 2.5, (*pair[2:], *pair[:2]), ssrcs[-2], G711A, 0.0)
    lone = ("10.9.0.3", 50010, "10.9.0.4", 50012)
    _leg(rng, records, 4.0, lone, ssrcs[-1], G711A, 0.02, n=120)
    _xr(rng, records, 4.0, ("10.9.0.4", 50013, "10.9.0.3", 50011), 0x5EED,
        ssrcs[-1], 21, interval=0.1)
    # left unbound: XR on ports no session declares, and a payload no
    # parser takes
    _xr(rng, records, 6.0, ("10.9.9.9", 7001, "10.9.9.8", 7003), 0xBAD,
        0xBAD0, 2)
    records.append(_record(6.5, "10.9.9.9", 7100, "10.9.9.8", 7102,
                           b"\xff not a voice packet"))
    records.sort(key=lambda r: r.ts)
    # an RTP packet repeating its stream's capture time is set aside
    rtp = next(r for r in records if r.src_addr == "10.9.0.1")
    records.insert(records.index(rtp) + 1, rtp)
    return write_pcap(records)


def ridge_sample() -> np.ndarray:
    """``tests/test_fit_batch.py``'s "ridge steps" sample."""
    return gev_sample(GevParams(-0.7, 2.0, 10.0), 60, seed=3)


def run_pipeline(root: Path) -> dict:
    """Build the inputs under ``root``, run every command, and return the
    exit codes; the outputs are every file under ``root``."""
    cap = root / "capture.pcap"
    cap.write_bytes(build_capture())
    values = root / "values.txt"
    values.write_text("".join(f"{v!r}\n" for v in ridge_sample().tolist()))
    every = ",".join(default_candidates())
    return {
        "analyze": entrypoint(["analyze", "--input", str(cap), "--out",
                               str(root / "analyze"), "--scenario", "pinned"]),
        "candidates": entrypoint(["analyze", "--input", str(cap), "--out",
                                  str(root / "candidates"), "--candidates",
                                  every]),
        "report": entrypoint(["report", "--input", str(root / "analyze"),
                              "--out", str(root / "report.json")]),
        "fit": entrypoint(["fit", "--input", str(values), "--target", "jitter",
                           "--out", str(root / "fit.json")]),
    }


def digest(root: Path) -> tuple[dict, dict]:
    """Each output file's sha256, and the :data:`BY_VALUE` members of each
    JSON document that has them; a JSON document is hashed without them."""
    hashes, values = {}, {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        name = path.relative_to(root).as_posix()
        data = path.read_bytes()
        if path.suffix == ".json":
            doc = json.loads(data)
            pinned = {k: doc.pop(k) for k in BY_VALUE if k in doc}
            if pinned:
                values[name] = pinned
                data = json.dumps(doc, sort_keys=True, indent=2).encode()
        hashes[name] = hashlib.sha256(data).hexdigest()
    return hashes, values


def _leaves(value) -> list:
    """The keys and leaves of ``value``, depth first, keys sorted."""
    if isinstance(value, dict):
        return [x for k in sorted(value) for x in [k, *_leaves(value[k])]]
    if isinstance(value, list):
        return [len(value), *(x for v in value for x in _leaves(v))]
    return [value]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    codes = run_pipeline(root)
    return (root, codes, *digest(root), json.loads(MANIFEST.read_text()))


def test_exit_codes(outputs):
    _, codes, *_ = outputs
    # the unbound records make both analyze runs partial successes
    assert codes == {"analyze": 2, "candidates": 2, "report": 0, "fit": 0}


def test_every_file_matches_its_digest(outputs):
    _, _, hashes, _, manifest = outputs
    assert sorted(hashes) == sorted(manifest["sha256"])
    moved = [name for name, h in hashes.items() if manifest["sha256"][name] != h]
    assert moved == []


def test_fits_and_pca_match_within_tolerance(outputs):
    *_, values, manifest = outputs
    assert sorted(values) == sorted(manifest["by_value"])
    for name, doc in values.items():
        got, want = _leaves(doc), _leaves(manifest["by_value"][name])
        assert len(got) == len(want), name
        for a, b in zip(got, want):
            if isinstance(b, float):
                assert isinstance(a, float), name
                assert math.isclose(a, b, rel_tol=TOL, abs_tol=TOL), name
            else:
                assert a == b, name


def test_the_capture_holds_every_shape_named(outputs):
    root = outputs[0]
    sessions = {p.parent.name: json.loads(p.read_text())["session"]
                for p in (root / "analyze").glob("*/report.json")}
    assert len(sessions) == CALLS + 2
    rtp_only = [s for name, s in sessions.items() if name.startswith("rtp-")]
    assert sorted((s["rtp_fwd"] > 0, s["rtp_rev"] > 0, s["xr_blocks"] > 0)
                  for s in rtp_only) == [(True, False, True), (True, True, False)]
    assert (sessions["pin-04"]["rtp_fwd"], sessions["pin-09"]["rtp_rev"]) == (0, 0)
    # XR bound by SSRC (even calls) and by port (odd calls); call 7 has none
    assert [i for i in range(CALLS) if not sessions[f"pin-{i:02d}"]["xr_blocks"]] == [7]


def write_manifest(root: Path) -> None:
    run_pipeline(root)
    hashes, values = digest(root)
    MANIFEST.write_text(json.dumps({"sha256": hashes, "by_value": values},
                                   sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_manifest(Path(tmp))
    print(f"wrote {MANIFEST}", file=sys.stderr)
