"""Indexed session assembly against the scan-based reference.

``assemble_sessions`` binds streams, dialogs and XR reports through
lookups built once; ``tests/sessions_reference.py`` keeps the earlier
implementation that rescanned every stream and session. Both must give
equal results (same sessions in the same order, same residue) on record
lists built so that every binding rule and tie-break is exercised:
shared ports, SSRCs and Call-IDs, SIP with and without SDP, SDP
addresses of the hosts, of other hosts or unusable, XR for known and
unknown SSRCs on media ports and port + 1, mirrored RTP-only
pairs, equal capture times, and exact duplicates. XR arrives in RTCP
compounds, valid or not, reporting known or unknown SSRCs. A second
property feeds RTP headers with CSRC lists and extensions, cut anywhere,
to check the columnar header decode against ``parse_rtp``, which the
reference calls packet by packet. Two more check ``rtp_header_columns``
against ``parse_rtp`` and ``xr_block_columns`` against ``parse_rtcp_xr``
payload by payload.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tests import builders, sessions_reference
from voipqos.errors import BadVersion, DomainError, TooShort, Truncated
from voipqos.ingest import (
    PacketRecord,
    VoipMetricsBlock,
    assemble_sessions,
    encode_rtp,
    encode_xr_packet,
    format_sip_request,
    format_sip_response,
    parse_rtcp_xr,
    parse_rtp,
)
from voipqos.ingest.rtcp_xr import XrBlocks, xr_block_columns
from voipqos.ingest.rtp import RtpStream, rtp_header_columns

ADDRS = ("10.0.0.1", "10.0.0.2")
PORTS = (40000, 40001, 40002, 42000)
SSRCS = (0x11, 0x22, 0x33)
CALL_IDS = ("call-a", "call-b", "call-c")

# a coarse time grid, so capture times tie and ordering rules matter
times = st.integers(0, 30).map(lambda k: k * 0.25)
addrs = st.sampled_from(ADDRS)
ports = st.sampled_from(PORTS)
ssrcs = st.sampled_from(SSRCS)
# SDP c= addresses: the hosts, one that sends nothing, and ones that
# leave the port alone to bind (0.0.0.0, not IPv4); None keeps 0.0.0.0
sdp_addrs = st.sampled_from(ADDRS + ("10.0.0.3", "0.0.0.0", "999.0.0.1")) \
    | st.none()


def _record(ts, src, sport, dst, dport, payload) -> PacketRecord:
    return PacketRecord(ts, src, dst, sport, dport, "udp", payload)


@st.composite
def rtp_flow(draw, ends):
    """One to three RTP packets of one SSRC on the endpoints ``ends``."""
    src, sport, dst, dport = ends
    ssrc, pt = draw(ssrcs), draw(st.sampled_from((0, 8, 96)))
    seqs = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
    return [
        _record(draw(times), src, sport, dst, dport,
                encode_rtp(pt, seq, seq * 160, ssrc, b"\x00" * 20))
        for seq in seqs
    ]


@st.composite
def rtp_chunk(draw):
    """A one-way flow, or a flow plus one on the mirrored endpoints."""
    ends = draw(st.tuples(addrs, ports, addrs, ports))
    out = draw(rtp_flow(ends))
    if draw(st.booleans()):
        src, sport, dst, dport = ends
        out += draw(rtp_flow((dst, dport, src, sport)))
    return out


@st.composite
def xr_block(draw, source_ssrcs):
    """A VoIP Metrics block with any field bytes (r_factor mostly valid),
    or a block of another type or length."""
    kind = draw(st.sampled_from(("voip", "voip", "words", "type")))
    if kind == "voip":
        block_type, words = 7, 8
        r = draw(st.integers(0, 100) | st.just(127) | st.integers(101, 255))
        body = (draw(source_ssrcs).to_bytes(4, "big")
                + draw(st.binary(min_size=16, max_size=16)) + bytes([r])
                + draw(st.binary(min_size=11, max_size=11)))
    else:
        block_type = 7 if kind == "words" else draw(
            st.integers(0, 255).filter(lambda t: t != 7))
        words = draw(st.integers(0, 10).filter(
            lambda w: kind == "type" or w != 8))
        body = draw(st.binary(min_size=4 * words, max_size=4 * words))
    return (bytes([block_type, draw(st.integers(0, 255))])
            + words.to_bytes(2, "big") + body)


@st.composite
def rtcp_compound(draw, source_ssrcs=st.integers(0, 2**32 - 1)):
    """An RTCP compound packet, cut anywhere or whole: XR packets of
    blocks, other RTCP packets, type 207 shorter than 8 bytes, versions
    other than 2 and length words off by one."""
    packets = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("xr", "xr", "other", "short")))
        if kind == "xr":
            pt, body = 207, draw(st.binary(min_size=4, max_size=4)) + b"".join(
                draw(st.lists(xr_block(source_ssrcs), max_size=3)))
        elif kind == "other":
            pt = draw(st.sampled_from((200, 201, 202, 203, 204, 205, 208)))
            body = draw(st.integers(0, 3).flatmap(
                lambda w: st.binary(min_size=4 * w, max_size=4 * w)))
        else:
            pt, body = 207, b""
        words = max(0, len(body) // 4 + draw(st.sampled_from((0, 0, 0, -1, 1))))
        version = draw(st.sampled_from((2, 2, 2, 2, 0, 1, 3)))
        packets.append(bytes([version << 6 | draw(st.integers(0, 63)), pt])
                       + words.to_bytes(2, "big") + body)
    payload = b"".join(packets)
    return payload[:draw(st.integers(0, len(payload)) | st.just(len(payload)))]


@st.composite
def xr_chunk(draw):
    """An XR packet reporting known or unknown SSRCs, or none at all, or
    a compound of XR and other RTCP packets, valid or not."""
    src, sport, dst, dport = draw(st.tuples(addrs, ports, addrs, ports))
    if draw(st.booleans()):
        payload = draw(rtcp_compound(st.sampled_from(SSRCS + (0x99,))))
    else:
        payload = encode_xr_packet(0x77, [
            VoipMetricsBlock(source_ssrc=ssrc, round_trip_delay=100,
                             r_factor=90, signal_level=-10)
            for ssrc in draw(st.lists(st.sampled_from(SSRCS + (0x99,)),
                                      max_size=2))
        ])
    return [_record(draw(times), src, sport, dst, dport, payload)]


@st.composite
def sip_chunk(draw):
    """One SIP message; INVITEs and 200s carry SDP or not."""
    kind = draw(st.sampled_from(
        ("INVITE", "BYE", (180, "INVITE"), (200, "INVITE"), (200, "BYE"))
    ))
    call_id, cseq = draw(st.sampled_from(CALL_IDS)), draw(st.integers(1, 2))
    media_port = draw(st.none() | ports)
    if kind == "INVITE":
        payload = format_sip_request(
            "INVITE", "sip:b@remote", call_id, cseq, media_port=media_port
        )
    elif kind == "BYE":
        payload = format_sip_request("BYE", "sip:b@remote", call_id, cseq)
    else:
        status, method = kind
        payload = format_sip_response(
            status, "X", call_id, cseq, method, media_port=media_port
        )
    record = _record(draw(times), draw(addrs), 5060, draw(addrs), 5060, payload)
    address = draw(sdp_addrs)
    return [record if address is None
            else builders.with_sdp_address(record, address)]


junk_chunk = st.builds(
    lambda ts, src, sport: [_record(ts, src, sport, ADDRS[0], 9, b"junk")],
    times, addrs, ports,
)


@st.composite
def record_lists(draw):
    chunks = draw(st.lists(
        st.one_of(rtp_chunk(), xr_chunk(), sip_chunk(), junk_chunk),
        max_size=12,
    ))
    records = [rec for chunk in chunks for rec in chunk]
    if records:  # exact duplicates of drawn records, anywhere in the list
        for i in draw(st.lists(st.integers(0, len(records) - 1), max_size=4)):
            records.insert(draw(st.integers(0, len(records))), records[i])
    return draw(st.permutations(records))


@st.composite
def rtp_headers(draw):
    """Version-2 RTP packets with CC 0..15, X and an extension length word,
    cut anywhere from 2 bytes to past the whole header."""
    records = []
    for _ in range(draw(st.integers(1, 6))):
        cc, ext = draw(st.integers(0, 15)), draw(st.booleans())
        words = draw(st.integers(0, 3) | st.just(0xFFFF))
        padding, marker = draw(st.booleans()), draw(st.booleans())
        first = 0x80 | 0x20 * padding | 0x10 * ext | cc
        fixed = encode_rtp(draw(st.sampled_from((0, 8, 96))), draw(
            st.integers(0, 6)), 0, draw(ssrcs), b"")
        header = (bytes([first, fixed[1] | 0x80 * marker]) + fixed[2:]
                  + bytes(range(4 * cc)))
        if ext:
            header += b"\xbe\xde" + words.to_bytes(2, "big")
            header += b"\x11" * 4 * min(words, 3)
        full = len(header)
        cut = draw(st.integers(2, full - 1) | st.integers(full, full + 8))
        records.append(_record(draw(times), ADDRS[0], PORTS[0], ADDRS[1],
                               PORTS[3], (header + b"\x00" * 8)[:cut]))
    return records


def _mirrored_calls(n: int) -> list[PacketRecord]:
    """``n`` RTP-only calls whose two legs mirror each other's endpoints."""
    out = []
    for call in range(n):
        a, b = 20000 + 2 * call, 30000 + 2 * call
        for k in range(3):
            ts = call * 0.1 + k * 0.02
            out.append(_record(ts, ADDRS[0], a, ADDRS[1], b,
                               encode_rtp(8, k, k * 160, 2 * call, b"")))
            out.append(_record(ts + 0.01, ADDRS[1], b, ADDRS[0], a,
                               encode_rtp(8, k, k * 160, 2 * call + 1, b"")))
    return out


@given(records=record_lists())
@settings(max_examples=600)
def test_indexed_assembly_equals_reference(records):
    assert assemble_sessions(records) == sessions_reference.assemble_sessions(
        records
    )


@given(records=rtp_headers())
@settings(max_examples=1000)
def test_columnar_rtp_headers_equal_reference(records):
    assert assemble_sessions(records) == sessions_reference.assemble_sessions(
        records
    )


def test_mirrored_pairs_form_one_session_each():
    result = assemble_sessions(_mirrored_calls(5))
    assert [s.session_id for s in result.sessions] == [
        f"rtp-{2 * c:08x}" for c in range(5)
    ]
    assert all(len(s.rtp_fwd) == len(s.rtp_rev) == 3 for s in result.sessions)
    assert result.residue == []


def _in_one_buffer(payloads: list[bytes]):
    """``(u8, pos, length)`` of the payloads in one buffer, each after a
    filler byte."""
    buf = b"".join(b"\xff" + p for p in payloads)
    length = np.array([len(p) for p in payloads], dtype=np.int64)
    return np.frombuffer(buf, dtype=np.uint8), np.cumsum(length + 1) - length, length


def _reference_header(payload: bytes) -> tuple | None:
    try:
        p = parse_rtp(payload, 0.0)
    except TooShort:
        return None
    return p.seq, p.rtp_ts, p.ssrc, p.payload_type, p.header_len


def _column_headers(payloads: list[bytes]) -> list[tuple | None]:
    """Each payload's header fields through ``rtp_header_columns``; None
    if refused."""
    ok, *columns = rtp_header_columns(*_in_one_buffer(payloads))
    names = [name for name, _ in RtpStream._COLUMNS[:4]] + ["header_len"]
    assert [c.dtype for c in columns] == [dict(RtpStream._COLUMNS)[n]
                                          for n in names]
    assert all(len(c) == ok.sum() for c in columns)
    rows = zip(*(c.tolist() for c in columns))
    return [next(rows) if k else None for k in ok.tolist()]


def _version2(payload: bytes) -> bytes:
    """The payload with RTP version 2, as the classifier hands it over."""
    return bytes([0x80 | payload[0] & 0x3F]) + payload[1:] if payload else b""


@given(payloads=st.lists(st.binary(max_size=40).map(_version2), min_size=1,
                         max_size=8))
@settings(max_examples=500)
def test_rtp_header_columns_equal_reference(payloads):
    assert _column_headers(payloads) == [_reference_header(p) for p in payloads]


def test_rtp_header_columns_every_cut_equals_reference():
    csrc = encode_rtp(96, 0xFFFF, 2**32 - 1, 0xDEADBEEF, b"\x01" * 5)
    csrc = bytes([0x82, 0xE0]) + csrc[2:12] + bytes(range(8)) + csrc[12:]
    ext = encode_rtp(8, 7, 700, 0xABC, b"\x02" * 3)
    ext = bytes([0x91]) + ext[1:12] + b"\x00\x00\x00\x09" \
        + b"\xbe\xde\x00\x02" + bytes(8) + ext[12:]
    empty_ext = b"\x90" + encode_rtp(0, 1, 2, 3, b"")[1:] + b"\x10\x00\x00\x00"
    full_cc = b"\x8f" + encode_rtp(0, 1, 2, 3, b"\x04")[1:12] + bytes(60) + b"\x04"
    packets = (csrc, ext, empty_ext, full_cc)
    assert [_reference_header(p)[-1] for p in packets] == [20, 28, 16, 72]
    payloads = [p[:cut] for p in packets for cut in range(len(p) + 1)]
    want = [_reference_header(p) for p in payloads]
    assert _column_headers(payloads) == want
    # each alone, so no read may run past the end of the buffer
    assert [_column_headers([p])[0] for p in payloads] == want


def _reference_blocks(payload: bytes) -> list[VoipMetricsBlock]:
    try:
        return parse_rtcp_xr(payload, 0.0)
    except (Truncated, BadVersion, DomainError):
        return []


def _column_blocks(payloads: list[bytes]) -> list[list[VoipMetricsBlock]]:
    """Each payload's blocks through ``xr_block_columns``; [] if refused."""
    ok, row, body = xr_block_columns(*_in_one_buffer(payloads))
    assert sorted(set(row.tolist())) == np.flatnonzero(ok).tolist()
    blocks = XrBlocks(*(body[name] for name in body.dtype.names),
                      np.zeros(len(row)))
    out = [[] for _ in payloads]
    for k, block in zip(row.tolist(), blocks):
        out[k].append(block)
    return out


@given(payloads=st.lists(rtcp_compound(), min_size=1, max_size=5))
@settings(max_examples=500)
def test_xr_block_columns_equal_reference(payloads):
    assert _column_blocks(payloads) == [_reference_blocks(p) for p in payloads]


def test_xr_block_columns_every_cut_equals_reference():
    rr = bytes([0x81, 201, 0, 1]) + bytes(4)
    other = bytes([4, 0, 0, 2]) + bytes(8)
    blocks = [VoipMetricsBlock(source_ssrc=0x11, signal_level=-40,
                               noise_level=-128, r_factor=100),
              VoipMetricsBlock(source_ssrc=0x22, round_trip_delay=0xFFFF)]
    xr = encode_xr_packet(0x77, blocks[:1])
    xr2 = encode_xr_packet(0x77, blocks[1:])
    xr2 = xr2[:2] + (int.from_bytes(xr2[2:4], "big") + 3).to_bytes(2, "big") \
        + xr2[4:8] + other + xr2[8:]
    compound = rr + xr + xr2 + rr
    payloads = [compound[:cut] for cut in range(len(compound) + 1)]
    got = _column_blocks(payloads)
    assert got == [_reference_blocks(p) for p in payloads]
    assert [b.source_ssrc for b in got[-1]] == [0x11, 0x22]
