"""Hand-rolled record builders shared by the ingest and metrics tests."""

from __future__ import annotations

import dataclasses

from voipqos.ingest import (
    PacketRecord,
    VoipMetricsBlock,
    encode_rtp,
    encode_xr_packet,
    format_sip_request,
    format_sip_response,
)

A_ADDR, B_ADDR = "10.0.0.1", "10.0.0.2"
A_PORT, B_PORT = 40000, 42000


def rtp_record(
    ts: float,
    seq: int,
    rtp_ts: int,
    *,
    ssrc: int = 0x1111,
    pt: int = 8,
    media: bytes = b"\x00" * 160,
    reverse: bool = False,
    hosts: tuple[str, str] = (A_ADDR, B_ADDR),
) -> PacketRecord:
    """One RTP packet from the caller host to the callee host, or back."""
    src, dst = hosts[::-1] if reverse else hosts
    sport, dport = (B_PORT, A_PORT) if reverse else (A_PORT, B_PORT)
    return PacketRecord(
        ts=ts,
        src_addr=src,
        dst_addr=dst,
        src_port=sport,
        dst_port=dport,
        transport="udp",
        payload=encode_rtp(pt, seq, rtp_ts, ssrc, media),
    )


def xr_record(
    ts: float,
    *,
    source_ssrc: int = 0x1111,
    round_trip_delay: int = 150,
    r_factor: int = 90,
    signal_level: int = -12,
    sender_ssrc: int = 0x2222,
) -> PacketRecord:
    block = VoipMetricsBlock(
        source_ssrc=source_ssrc,
        round_trip_delay=round_trip_delay,
        r_factor=r_factor,
        signal_level=signal_level,
        report_ts=ts,
    )
    return PacketRecord(
        ts=ts,
        src_addr=B_ADDR,
        dst_addr=A_ADDR,
        src_port=B_PORT + 1,
        dst_port=A_PORT + 1,
        transport="udp",
        payload=encode_xr_packet(sender_ssrc, [block]),
    )


def sip_record(ts: float, payload: bytes, *, from_caller: bool = True) -> PacketRecord:
    src, dst = (A_ADDR, B_ADDR) if from_caller else (B_ADDR, A_ADDR)
    return PacketRecord(
        ts=ts,
        src_addr=src,
        dst_addr=dst,
        src_port=5060,
        dst_port=5060,
        transport="udp",
        payload=payload,
    )


def basic_dialog(
    call_id: str = "call-1",
    *,
    invite_ts: float = 10.0,
    ringing_ts: float = 11.392,
    answer_ts: float = 12.0,
    bye_ts: float = 100.0,
    bye_ok_ts: float = 100.1981,
    caller_port: int = A_PORT,
    callee_port: int = B_PORT,
    hosts: tuple[str, str] | None = None,
) -> list[PacketRecord]:
    """INVITE -> 180 -> 200 (SDP both ways) ... BYE -> 200.

    With ``hosts`` = (caller, callee) addresses, each SDP ``c=`` line
    names its sender's host instead of 0.0.0.0.
    """
    records = [
        sip_record(
            invite_ts,
            format_sip_request(
                "INVITE", "sip:b@remote", call_id, 1, media_port=caller_port
            ),
        ),
        sip_record(
            ringing_ts,
            format_sip_response(180, "Ringing", call_id, 1, "INVITE"),
            from_caller=False,
        ),
        sip_record(
            answer_ts,
            format_sip_response(
                200, "OK", call_id, 1, "INVITE", media_port=callee_port
            ),
            from_caller=False,
        ),
        sip_record(bye_ts, format_sip_request("BYE", "sip:b@remote", call_id, 2)),
        sip_record(
            bye_ok_ts,
            format_sip_response(200, "OK", call_id, 2, "BYE"),
            from_caller=False,
        ),
    ]
    if hosts is None:
        return records
    caller, callee = hosts
    return [with_sdp_address(r, caller if r.src_addr == A_ADDR else callee)
            for r in records]


def with_sdp_address(record: PacketRecord, address: str) -> PacketRecord:
    """``record`` with its SDP ``c=`` line, if any, naming ``address``
    instead of 0.0.0.0."""
    return dataclasses.replace(record, payload=record.payload.replace(
        b"c=IN IP4 0.0.0.0", b"c=IN IP4 " + address.encode()))
