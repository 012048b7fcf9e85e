"""Synthetic call generator: closes the generate -> analyze -> fit loop.

A scenario JSON file declares one call:

    {
      "codec": "G711-A",            // catalogue name
      "duration": 60.0,             // seconds of media
      "interval": 0.02,             // packetization interval, seconds
      "loss_probability": 0.01,     // per-packet Bernoulli drop
      "seed": 0,                    // drives every random stream
      "jitter_model": {"xi": -0.32, "sigma": 2.46, "mu": 6.85},  // ms, or null
      "rtt_model":    {"xi": 0.21,  "sigma": 12.07, "mu": 123.9},// ms, or null
      "xr_interval": 5.0,           // seconds between XR reports
      "base_delay": 0.05,           // constant one-way transit, seconds
      "payload_type": 8,            // optional; static codecs have defaults
      "scenario_tag": "mobile",     // free-form label
      "call_id": "synth-1",
      "sip": {"invite": 1.0, "ringing": 2.392, "answer": 3.0,
              "bye": 64.0, "bye_ok": 64.1981}   // optional, absolute seconds
    }

Jitter is injected as GEV-distributed one-way transit perturbations, so
the receiver-side J_n series is a difference process whose distribution
is NOT the injected model; round-trip delay is carried verbatim in XR
blocks (quantized to the wire's integer milliseconds) and is directly
recoverable. Identical scenario + seed yields identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from ..errors import BadSpec, DomainError
from ..evt import GevParams, gev_sample
from ..ingest.capture import PacketRecord, write_jsonl, write_pcap
from ..ingest.codecs import CODECS, STATIC_PAYLOAD_TYPES
from ..ingest.rtcp_xr import VoipMetricsBlock, encode_xr_packet
from ..ingest.rtp import encode_rtp
from ..ingest.sip import format_sip_request, format_sip_response
from .analyze import read_json

CALLER_ADDR = "10.0.0.1"
CALLEE_ADDR = "10.0.0.2"
CALLER_MEDIA_PORT = 40000
CALLEE_MEDIA_PORT = 42000
SIP_PORT = 5060
FWD_SSRC = 0xA0000001
XR_SENDER_SSRC = 0xB0000001


@dataclass(frozen=True)
class SipTimes:
    invite: float
    ringing: float
    answer: float
    bye: float
    bye_ok: float

    def __post_init__(self) -> None:
        order = (self.invite, self.ringing, self.answer, self.bye, self.bye_ok)
        if any(not math.isfinite(t) or t < 0 for t in order):
            raise BadSpec("SIP event times must be finite and >= 0")
        if sorted(order) != list(order):
            raise BadSpec("SIP event times must be non-decreasing")


@dataclass(frozen=True)
class ScenarioSpec:
    codec: str
    duration: float
    interval: float
    seed: int = 0
    loss_probability: float = 0.0
    jitter_model: GevParams | None = None
    rtt_model: GevParams | None = None
    xr_interval: float = 5.0
    base_delay: float = 0.05
    payload_type: int | None = None
    payload_bytes: int | None = None
    scenario_tag: str = ""
    call_id: str = "synth-1"
    sip: SipTimes | None = None

    def __post_init__(self) -> None:
        if self.codec not in CODECS:
            raise BadSpec(
                f"unknown codec {self.codec!r}; catalogue: {sorted(CODECS)}"
            )
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise BadSpec("duration must be > 0 seconds")
        if not (math.isfinite(self.interval) and self.interval > 0):
            raise BadSpec("packetization interval must be > 0 seconds")
        if not 0.0 <= self.loss_probability < 1.0:
            raise BadSpec("loss_probability must be in [0, 1)")
        if not (math.isfinite(self.xr_interval) and self.xr_interval > 0):
            raise BadSpec("xr_interval must be > 0 seconds")
        if not (math.isfinite(self.base_delay) and self.base_delay >= 0):
            raise BadSpec("base_delay must be >= 0 seconds")

    def resolved_payload_type(self) -> int:
        if self.payload_type is not None:
            if not 0 <= self.payload_type <= 127:
                raise BadSpec(f"payload_type {self.payload_type} outside 0..127")
            return self.payload_type
        static = {name: pt for pt, name in STATIC_PAYLOAD_TYPES.items()}
        if self.codec in static:
            return static[self.codec]
        raise BadSpec(
            f"codec {self.codec!r} has no static payload type; "
            "set \"payload_type\" in the scenario"
        )

    def samples_per_packet(self) -> int:
        clock = CODECS[self.codec].clock_rate
        exact = self.interval * clock
        if abs(exact - round(exact)) > 1e-9 or round(exact) < 1:
            raise BadSpec(
                f"interval {self.interval}s is not a whole number of "
                f"{clock} Hz clock ticks"
            )
        return int(round(exact))

    def resolved_payload_bytes(self) -> int:
        if self.payload_bytes is not None:
            if self.payload_bytes < 0:
                raise BadSpec("payload_bytes must be >= 0")
            return self.payload_bytes
        rate = CODECS[self.codec].bitrate_kbps
        if rate is None:
            raise BadSpec(
                f"codec {self.codec!r} is variable-bitrate; "
                "set \"payload_bytes\" in the scenario"
            )
        exact = rate * 1000.0 / 8.0 * self.interval
        return max(1, int(round(exact)))

    def sip_times(self) -> SipTimes:
        if self.sip is not None:
            return self.sip
        answer = 3.0
        bye = answer + self.duration + 1.0
        return SipTimes(
            invite=1.0, ringing=2.392, answer=answer, bye=bye,
            bye_ok=bye + 0.1981,
        )


def _gev_from_json(obj, what: str) -> GevParams | None:
    if obj is None:
        return None
    if not isinstance(obj, dict) or set(obj) != {"xi", "sigma", "mu"}:
        raise BadSpec(f"{what} must be an object with keys xi, sigma, mu")
    try:
        return GevParams(
            xi=float(obj["xi"]), sigma=float(obj["sigma"]), mu=float(obj["mu"])
        )
    except (TypeError, ValueError, DomainError) as exc:
        raise BadSpec(f"bad {what}: {exc}") from exc


def _sip_from_json(obj) -> SipTimes | None:
    if obj is None:
        return None
    need = {f.name for f in fields(SipTimes)}
    if not isinstance(obj, dict) or set(obj) != need:
        raise BadSpec(f"sip must be an object of the event times {sorted(need)}")
    try:
        return SipTimes(**{k: float(v) for k, v in obj.items()})
    except (TypeError, ValueError) as exc:
        raise BadSpec(f"bad sip time: {exc}") from exc


def _bad_value(key: str, value, kind: str) -> BadSpec:
    return BadSpec(f"bad scenario value: {key} must be {kind}, "
                   f"got {json.dumps(value)}")


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise _bad_value(key, value, "a string")
    return value


def _number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad_value(key, value, "a number")
    return float(value)


def _integer(value, key: str, kind: str = "an integer") -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad_value(key, value, kind)
    return value


#: how a scenario value is read, by the type of its ScenarioSpec field;
#: a value of another JSON type is refused, never converted
_READERS = {
    "str": _string,
    "float": _number,
    "int": _integer,
    "int | None": lambda value, key: None if value is None
    else _integer(value, key, "an integer or null"),
    "GevParams | None": _gev_from_json,
    "SipTimes | None": lambda value, key: _sip_from_json(value),
}


def load_scenario(source: str | Path | dict) -> ScenarioSpec:
    """Parse and validate a scenario file (or pre-parsed dict)."""
    if isinstance(source, (str, Path)):
        raw = read_json(source, BadSpec, "scenario")
    else:
        raw = source
    if not isinstance(raw, dict):
        raise BadSpec("scenario must be a JSON object")
    spec_fields = fields(ScenarioSpec)
    unknown = set(raw) - {f.name for f in spec_fields}
    if unknown:
        raise BadSpec(f"unknown scenario keys: {sorted(unknown)}")
    for f in spec_fields:
        if f.default is MISSING and f.name not in raw:
            raise BadSpec(f"scenario is missing required key {f.name!r}")
    # the keys given only, so that the others take ScenarioSpec's defaults
    return ScenarioSpec(**{f.name: _READERS[f.type](raw[f.name], f.name)
                           for f in spec_fields if f.name in raw})


def _sip_record(ts: float, payload: bytes, from_caller: bool) -> PacketRecord:
    src, dst = (
        (CALLER_ADDR, CALLEE_ADDR) if from_caller else (CALLEE_ADDR, CALLER_ADDR)
    )
    return PacketRecord(
        ts=ts, src_addr=src, dst_addr=dst, src_port=SIP_PORT, dst_port=SIP_PORT,
        transport="udp", payload=payload,
    )


def generate_records(spec: ScenarioSpec) -> list[PacketRecord]:
    """Render one scripted call as time-ordered packet records."""
    times = spec.sip_times()
    cid = spec.call_id
    records = [
        _sip_record(
            times.invite,
            format_sip_request(
                "INVITE", "sip:b@remote", cid, 1, media_port=CALLER_MEDIA_PORT
            ),
            from_caller=True,
        ),
        _sip_record(
            times.ringing,
            format_sip_response(180, "Ringing", cid, 1, "INVITE"),
            from_caller=False,
        ),
        _sip_record(
            times.answer,
            format_sip_response(
                200, "OK", cid, 1, "INVITE", media_port=CALLEE_MEDIA_PORT
            ),
            from_caller=False,
        ),
        _sip_record(
            times.bye,
            format_sip_request("BYE", "sip:b@remote", cid, 2),
            from_caller=True,
        ),
        _sip_record(
            times.bye_ok,
            format_sip_response(200, "OK", cid, 2, "BYE"),
            from_caller=False,
        ),
    ]

    pt = spec.resolved_payload_type()
    samples = spec.samples_per_packet()
    payload = bytes(spec.resolved_payload_bytes())
    n = int(round(spec.duration / spec.interval))
    jitter_ms = (
        gev_sample(spec.jitter_model, n, seed=spec.seed + 1)
        if spec.jitter_model is not None
        else np.zeros(n)
    )
    drop = np.random.default_rng(spec.seed + 2).random(n)
    for k in range(n):
        if drop[k] < spec.loss_probability:
            continue  # the sequence number still advances: a real loss
        send = times.answer + k * spec.interval
        arrival = send + spec.base_delay + jitter_ms[k] / 1000.0
        records.append(
            PacketRecord(
                ts=arrival,
                src_addr=CALLER_ADDR,
                dst_addr=CALLEE_ADDR,
                src_port=CALLER_MEDIA_PORT,
                dst_port=CALLEE_MEDIA_PORT,
                transport="udp",
                payload=encode_rtp(
                    payload_type=pt,
                    seq=k % 65536,
                    rtp_ts=(k * samples) % 2**32,
                    ssrc=FWD_SSRC,
                    media=payload,
                ),
            )
        )

    if spec.rtt_model is not None:
        n_xr = int(spec.duration / spec.xr_interval)
        rtt_ms = gev_sample(spec.rtt_model, n_xr, seed=spec.seed + 3)
        for j in range(n_xr):
            ts = times.answer + (j + 1) * spec.xr_interval
            delay = int(np.clip(np.round(rtt_ms[j]), 0, 0xFFFF))
            block = VoipMetricsBlock(
                source_ssrc=FWD_SSRC,
                round_trip_delay=delay,
                r_factor=93,
                signal_level=-12,
            )
            records.append(
                PacketRecord(
                    ts=ts,
                    src_addr=CALLEE_ADDR,
                    dst_addr=CALLER_ADDR,
                    src_port=CALLEE_MEDIA_PORT + 1,
                    dst_port=CALLER_MEDIA_PORT + 1,
                    transport="udp",
                    payload=encode_xr_packet(XR_SENDER_SSRC, [block]),
                )
            )

    records.sort(key=lambda r: r.ts)
    return records


def synth_to_file(spec: ScenarioSpec, out_path: str | Path) -> int:
    """Generate and write the capture; returns the record count.

    The capture is jsonl when ``out_path`` ends in ``.jsonl`` or ``.json``
    (any case), and a pcap otherwise.
    """
    records = generate_records(spec)
    out = Path(out_path)
    if out.suffix.lower() in (".jsonl", ".json"):
        out.write_text(write_jsonl(records))
    else:
        out.write_bytes(write_pcap(records))
    return len(records)
