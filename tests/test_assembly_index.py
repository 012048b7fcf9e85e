"""Indexed session assembly against the scan-based reference.

``assemble_sessions`` binds streams, dialogs and XR reports through
lookups built once; ``tests/sessions_reference.py`` keeps the earlier
implementation that rescanned every stream and session. Both must give
equal results (same sessions in the same order, same residue) on record
lists built so that every binding rule and tie-break is exercised:
shared ports, SSRCs and Call-IDs, SIP with and without SDP, XR for
known and unknown SSRCs on media ports and port + 1, mirrored RTP-only
pairs, equal capture times, and exact duplicates. A second property
feeds RTP headers with CSRC lists and extensions, cut anywhere, to check
the columnar header decode against ``parse_rtp``, which the reference
calls packet by packet.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from tests import sessions_reference
from voipqos.ingest import (
    PacketRecord,
    VoipMetricsBlock,
    assemble_sessions,
    encode_rtp,
    encode_xr_packet,
    format_sip_request,
    format_sip_response,
)

ADDRS = ("10.0.0.1", "10.0.0.2")
PORTS = (40000, 40001, 40002, 42000)
SSRCS = (0x11, 0x22, 0x33)
CALL_IDS = ("call-a", "call-b", "call-c")

# a coarse time grid, so capture times tie and ordering rules matter
times = st.integers(0, 30).map(lambda k: k * 0.25)
addrs = st.sampled_from(ADDRS)
ports = st.sampled_from(PORTS)
ssrcs = st.sampled_from(SSRCS)


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
def xr_chunk(draw):
    """An XR packet reporting known or unknown SSRCs, or none at all."""
    blocks = [
        VoipMetricsBlock(source_ssrc=ssrc, round_trip_delay=100, r_factor=90,
                         signal_level=-10, report_ts=draw(times))
        for ssrc in draw(st.lists(st.sampled_from(SSRCS + (0x99,)),
                                  max_size=2))
    ]
    src, sport, dst, dport = draw(st.tuples(addrs, ports, addrs, ports))
    return [_record(draw(times), src, sport, dst, dport,
                    encode_xr_packet(0x77, blocks))]


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
    return [_record(draw(times), draw(addrs), 5060, draw(addrs), 5060, payload)]


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
