"""RTCP Extended Reports: the VoIP Metrics report block.

Wire layout, all big-endian. An XR packet is an RTCP packet of type 207:

    byte 0        V=2 P X(5 bits reserved)
    byte 1        packet type 207
    bytes 2-3     length in 32-bit words minus one
    bytes 4-7     sender SSRC

followed by report blocks. A VoIP Metrics block is a 4-byte block header
(block type 7, reserved byte, block length 8 words) plus eight 32-bit
body words:

    word 0   source SSRC of the stream being reported on
    word 1   loss rate | discard rate | burst density | gap density
    word 2   burst duration (ms)      | gap duration (ms)
    word 3   round trip delay (ms)    | end system delay (ms)
    word 4   signal level | noise level | RERL | Gmin   (levels signed)
    word 5   R factor | ext. R factor | MOS-LQ | MOS-CQ
    word 6   rx config | reserved     | JB nominal (ms)
    word 7   JB maximum (ms)          | JB absolute max (ms)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields

from ..errors import BadVersion, DomainError, Truncated

XR_PACKET_TYPE = 207
VOIP_METRICS_BLOCK_TYPE = 7
VOIP_METRICS_BLOCK_WORDS = 8

#: r_factor values are scores 0..100; 127 marks "unavailable".
UNAVAILABLE = 127

_BODY = struct.Struct(">IBBBBHHHHbbBBBBBBBBHHH")


@dataclass(frozen=True)
class VoipMetricsBlock:
    source_ssrc: int
    loss_rate: int = 0
    discard_rate: int = 0
    burst_density: int = 0
    gap_density: int = 0
    burst_duration: int = 0
    gap_duration: int = 0
    round_trip_delay: int = 0
    end_system_delay: int = 0
    signal_level: int = UNAVAILABLE
    noise_level: int = UNAVAILABLE
    rerl: int = UNAVAILABLE
    gmin: int = 16
    r_factor: int = UNAVAILABLE
    ext_r_factor: int = UNAVAILABLE
    mos_lq: int = UNAVAILABLE
    mos_cq: int = UNAVAILABLE
    rx_config: int = 0
    reserved: int = 0
    jb_nominal: int = 0
    jb_maximum: int = 0
    jb_abs_max: int = 0
    report_ts: float = 0.0  # capture time of the enclosing packet

    def __post_init__(self) -> None:
        if not 0 <= self.source_ssrc <= 0xFFFFFFFF:
            raise DomainError("source_ssrc outside 32-bit range")
        for name in (
            "loss_rate", "discard_rate", "burst_density", "gap_density",
            "rerl", "gmin", "ext_r_factor", "mos_lq", "mos_cq",
            "rx_config", "reserved",
        ):
            v = getattr(self, name)
            if not 0 <= v <= 255:
                raise DomainError(f"{name}={v} outside unsigned 8-bit range")
        for name in (
            "burst_duration", "gap_duration", "round_trip_delay",
            "end_system_delay", "jb_nominal", "jb_maximum", "jb_abs_max",
        ):
            v = getattr(self, name)
            if not 0 <= v <= 0xFFFF:
                raise DomainError(f"{name}={v} outside unsigned 16-bit range")
        for name in ("signal_level", "noise_level"):
            v = getattr(self, name)
            if not -128 <= v <= 127:
                raise DomainError(f"{name}={v} outside signed 8-bit range")
        if not (0 <= self.r_factor <= 100 or self.r_factor == UNAVAILABLE):
            raise DomainError(
                f"r_factor={self.r_factor} must be in 0..100 or 127 (unavailable)"
            )

    def wire_fields(self) -> tuple:
        return (
            self.source_ssrc,
            self.loss_rate, self.discard_rate,
            self.burst_density, self.gap_density,
            self.burst_duration, self.gap_duration,
            self.round_trip_delay, self.end_system_delay,
            self.signal_level, self.noise_level, self.rerl, self.gmin,
            self.r_factor, self.ext_r_factor, self.mos_lq, self.mos_cq,
            self.rx_config, self.reserved,
            self.jb_nominal, self.jb_maximum, self.jb_abs_max,
        )


def encode_voip_metrics(block: VoipMetricsBlock) -> bytes:
    """Encode one block: 4-byte block header + 32-byte body."""
    header = struct.pack(
        ">BBH", VOIP_METRICS_BLOCK_TYPE, 0, VOIP_METRICS_BLOCK_WORDS
    )
    return header + _BODY.pack(*block.wire_fields())


# the block's wire fields, in _BODY order: every field but report_ts
_WIRE_NAMES = tuple(f.name for f in fields(VoipMetricsBlock))[:-1]


def _decode_voip_metrics(body: bytes, report_ts: float) -> VoipMetricsBlock:
    return VoipMetricsBlock(**dict(zip(_WIRE_NAMES, _BODY.unpack(body))),
                            report_ts=report_ts)


def encode_xr_packet(sender_ssrc: int, blocks: list[VoipMetricsBlock]) -> bytes:
    """Wrap blocks in one RTCP XR packet."""
    if not 0 <= sender_ssrc <= 0xFFFFFFFF:
        raise DomainError("sender_ssrc outside 32-bit range")
    body = b"".join(encode_voip_metrics(b) for b in blocks)
    length_words = (8 + len(body)) // 4 - 1
    return struct.pack(">BBHI", 0x80, XR_PACKET_TYPE, length_words, sender_ssrc) + body


def parse_rtcp_xr(payload: bytes, capture_ts: float) -> list[VoipMetricsBlock]:
    """Extract VoIP Metrics blocks from an RTCP compound packet.

    Non-XR packets in the compound and XR blocks of other types are
    skipped; a declared length that overruns the input raises Truncated.
    """
    blocks: list[VoipMetricsBlock] = []
    off = 0
    n = len(payload)
    while off < n:
        if off + 4 > n:
            raise Truncated("RTCP packet header cut short")
        b0, pt, length_words = struct.unpack(">BBH", payload[off : off + 4])
        if b0 >> 6 != 2:
            raise BadVersion(f"RTCP version must be 2, got {b0 >> 6}")
        pkt_len = (length_words + 1) * 4
        if off + pkt_len > n:
            raise Truncated("RTCP packet extends past end of payload")
        if pt == XR_PACKET_TYPE and pkt_len >= 8:
            blocks.extend(_parse_xr_blocks(payload[off + 8 : off + pkt_len], capture_ts))
        off += pkt_len
    return blocks


def _parse_xr_blocks(data: bytes, capture_ts: float) -> list[VoipMetricsBlock]:
    blocks: list[VoipMetricsBlock] = []
    off = 0
    n = len(data)
    while off < n:
        if off + 4 > n:
            raise Truncated("XR block header cut short")
        bt, _reserved, block_words = struct.unpack(">BBH", data[off : off + 4])
        span = 4 + block_words * 4
        if off + span > n:
            raise Truncated("XR block extends past end of packet")
        if bt == VOIP_METRICS_BLOCK_TYPE and block_words == VOIP_METRICS_BLOCK_WORDS:
            blocks.append(
                _decode_voip_metrics(data[off + 4 : off + span], capture_ts)
            )
        off += span
    return blocks
