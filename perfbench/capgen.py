"""Seeded multi-call capture generator with a ground-truth sidecar.

Each capture holds scripted SIP dialogs, RTP legs and RTCP-XR reports for
many calls at once. Every call gets its own caller address, media ports,
SSRCs and Call-ID, so session assembly has to tell the calls apart and XR
blocks bind by SSRC to the call they report on. The sidecar records what
the analyzer must find: received RTP per leg, expected/received sequence
counts of the forward leg, the scripted call setup and disconnect delays
(CSD/SDD) and the round-trip delays carried in the XR blocks.

Everything is built with the package's public wire encoders and drawn
from one ``numpy`` generator per capture, so the same seed gives the same
bytes. Event times are whole microseconds, the resolution of the classic
pcap format, so CSD and SDD survive the round trip to within float error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from voipqos.evt import GevParams, gev_sample
from voipqos.ingest import (
    PacketRecord,
    VoipMetricsBlock,
    encode_rtp,
    encode_xr_packet,
    format_sip_request,
    format_sip_response,
    write_pcap,
)

# Fitted reference rows (xi, sigma, mu), ms; the same values as the test
# suite's tests/gev_models.py.
JITTER_ROWS = {
    "G711-A": GevParams(xi=-0.125761, sigma=1.84636, mu=7.27644),
    "OPUS": GevParams(xi=-0.321161, sigma=2.45704, mu=6.84896),
}
RTT_ROWS = {
    "G711-A": GevParams(xi=0.2727, sigma=13.8707, mu=120.5886),
    "G729": GevParams(xi=0.1945, sigma=50.1967, mu=176.0254),
}

CODEC = "G711-A"
PAYLOAD_TYPE = 8  # static G711-A
CLOCK_RATE = 8000
INTERVAL_US = 20_000  # 20 ms packetization
SAMPLES_PER_PACKET = CLOCK_RATE * INTERVAL_US // 1_000_000
MEDIA = bytes(160)  # 64 kbps for 20 ms
BASE_US = 10_000_000  # first call starts 10 s into the capture
BASE_DELAY_US = 50_000  # constant one-way transit
SIP_PORT = 5060
CALLEE_ADDR = "10.200.0.1"
CALLER_PORT_BASE = 16384
CALLEE_PORT_BASE = 32768


@dataclass(frozen=True)
class CaptureSpec:
    """Shape of one generated capture; every call shares it."""

    tag: str
    calls: int
    media_s: float  # seconds of media per call
    stagger_s: float  # mean spacing of call starts
    bidirectional: bool
    xr_interval_s: float
    loss: float  # per-packet Bernoulli drop on each leg
    jitter: GevParams
    rtt: GevParams
    network: int  # second octet of the caller addresses


def _caller_addr(spec: CaptureSpec, i: int) -> str:
    return f"10.{spec.network}.{i // 250}.{i % 250 + 1}"


def _distinct_ssrcs(rng: np.random.Generator, n: int) -> list[int]:
    out: list[int] = []
    seen: set[int] = set()
    while len(out) < n:
        ssrc = int(rng.integers(1, 2**32))
        if ssrc not in seen:
            seen.add(ssrc)
            out.append(ssrc)
    return out


def _leg(rng, spec, n, answer_us, src, dst, sport, dport, ssrc, records):
    """Append one RTP leg; returns the indices of the packets sent."""
    jitter_ms = gev_sample(spec.jitter, n, seed=int(rng.integers(2**32)))
    kept = np.flatnonzero(rng.random(n) >= spec.loss)
    seq0 = int(rng.integers(2**16))
    ts0 = int(rng.integers(2**32))
    for k in kept.tolist():
        arrival_us = (
            answer_us + k * INTERVAL_US + BASE_DELAY_US
            + int(round(jitter_ms[k] * 1000.0))
        )
        records.append(PacketRecord(
            ts=arrival_us / 1e6, src_addr=src, dst_addr=dst,
            src_port=sport, dst_port=dport, transport="udp",
            payload=encode_rtp(
                payload_type=PAYLOAD_TYPE,
                seq=(seq0 + k) % 2**16,
                rtp_ts=(ts0 + k * SAMPLES_PER_PACKET) % 2**32,
                ssrc=ssrc,
                media=MEDIA,
            ),
        ))
    return kept


def _call(rng, spec: CaptureSpec, i: int, ssrcs, records) -> dict:
    call_id = f"{spec.tag}-{i:05d}"
    caller = _caller_addr(spec, i)
    caller_port = CALLER_PORT_BASE + 4 * i
    callee_port = CALLEE_PORT_BASE + 4 * i
    fwd_ssrc, rev_ssrc = ssrcs

    invite = BASE_US + int(round((i + rng.random()) * spec.stagger_s * 1e6))
    ringing = invite + int(rng.integers(200_000, 2_500_000))
    answer = ringing + int(rng.integers(500_000, 1_500_000))
    n = int(round(spec.media_s * 1e6)) // INTERVAL_US
    bye = answer + n * INTERVAL_US + 200_000
    bye_ok = bye + int(rng.integers(20_000, 400_000))

    def sip(ts_us, payload, from_caller):
        src, dst = (caller, CALLEE_ADDR) if from_caller else (CALLEE_ADDR, caller)
        records.append(PacketRecord(
            ts=ts_us / 1e6, src_addr=src, dst_addr=dst, src_port=SIP_PORT,
            dst_port=SIP_PORT, transport="udp", payload=payload,
        ))

    uri = f"sip:callee@{CALLEE_ADDR}"
    sip(invite, format_sip_request("INVITE", uri, call_id, 1,
                                   media_port=caller_port), True)
    sip(ringing, format_sip_response(180, "Ringing", call_id, 1, "INVITE"), False)
    sip(answer, format_sip_response(200, "OK", call_id, 1, "INVITE",
                                    media_port=callee_port), False)
    sip(bye, format_sip_request("BYE", uri, call_id, 2), True)
    sip(bye_ok, format_sip_response(200, "OK", call_id, 2, "BYE"), False)

    fwd = _leg(rng, spec, n, answer, caller, CALLEE_ADDR, caller_port,
               callee_port, fwd_ssrc, records)
    rev_count = 0
    if spec.bidirectional:
        rev_count = len(_leg(rng, spec, n, answer, CALLEE_ADDR, caller,
                             callee_port, caller_port, rev_ssrc, records))

    xr_step_us = int(round(spec.xr_interval_s * 1e6))
    n_xr = n * INTERVAL_US // xr_step_us
    rtt_ms = gev_sample(spec.rtt, n_xr, seed=int(rng.integers(2**32)))
    delays = np.clip(np.round(rtt_ms), 1, 0xFFFF).astype(int).tolist()
    for j, delay in enumerate(delays):
        block = VoipMetricsBlock(
            source_ssrc=fwd_ssrc, round_trip_delay=delay,
            r_factor=93, signal_level=-12,
        )
        records.append(PacketRecord(
            ts=(answer + (j + 1) * xr_step_us) / 1e6,
            src_addr=CALLEE_ADDR, dst_addr=caller,
            src_port=callee_port + 1, dst_port=caller_port + 1,
            transport="udp", payload=encode_xr_packet(rev_ssrc, [block]),
        ))

    return {
        "call_id": call_id,
        "rtp_fwd": len(fwd),
        "rtp_rev": rev_count,
        # loss is reported on the forward leg from its unrolled sequence span
        "expected": int(fwd[-1] - fwd[0] + 1) if len(fwd) else 0,
        "received": len(fwd),
        "csd": (ringing - invite) / 1e6,
        "sdd": (bye_ok - bye) / 1e6,
        "xr_delays": delays,
    }


def generate_capture(spec: CaptureSpec, seed: int) -> tuple[bytes, dict]:
    """Render every call of ``spec``; returns (pcap bytes, ground truth)."""
    rng = np.random.default_rng(seed)
    ssrcs = _distinct_ssrcs(rng, 2 * spec.calls)
    records: list[PacketRecord] = []
    calls = [
        _call(rng, spec, i, ssrcs[2 * i : 2 * i + 2], records)
        for i in range(spec.calls)
    ]
    records.sort(key=lambda r: r.ts)
    truth = {
        "tag": spec.tag,
        "codec": CODEC,
        "seed": seed,
        "records": len(records),
        "calls": calls,
    }
    return write_pcap(records), truth


def write_capture(spec: CaptureSpec, seed: int, pcap: Path, sidecar: Path) -> int:
    """Write the capture and its sidecar; returns the record count."""
    data, truth = generate_capture(spec, seed)
    pcap.write_bytes(data)
    sidecar.write_text(json.dumps(truth, sort_keys=True, indent=1) + "\n")
    return truth["records"]


def write_values(row: GevParams, n: int, seed: int, path: Path) -> None:
    """Write ``n`` GEV draws, one per line, for the ``fit`` command."""
    values = gev_sample(row, n, seed=seed)
    path.write_text("".join(f"{v!r}\n" for v in values.tolist()))
