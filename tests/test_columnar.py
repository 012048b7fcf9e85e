"""Columnar ingest against the per-packet object path it replaced.

``parse_pcap`` decodes into columns, ``assemble_sessions`` reads the RTP
header in place and groups streams by one sort, and the metric series
read an RtpStream's arrays. ``tests/ingest_reference.py`` keeps the
record-by-record decoder and the list-based metrics, and
``tests/sessions_reference.py`` the object-based assembly. On the same
capture bytes both paths must give equal records, equal sessions and
residue, and byte-identical session reports.
"""

from __future__ import annotations

import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests import builders, ingest_reference, sessions_reference
from voipqos.cli import analyze
from voipqos.cli.analyze import AnalysisConfig, build_session_report
from voipqos.errors import VoipQosError
from voipqos.ingest import (
    Capture,
    PacketRecord,
    RtpStream,
    VoipMetricsBlock,
    XrBlocks,
    assemble_sessions,
    encode_rtp,
    encode_xr_packet,
    parse_pcap,
    parse_rtcp_xr,
    parse_rtp,
    write_pcap,
)
from voipqos.metrics import unroll

addrs = st.integers(0, 2**32 - 1).map(
    lambda a: ".".join(str(b) for b in a.to_bytes(4, "big"))
)
records = st.builds(
    PacketRecord,
    ts=st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 999_999)).map(
        lambda su: su[0] + su[1] / 1e6
    ),
    src_addr=addrs,
    dst_addr=addrs,
    src_port=st.integers(0, 65535),
    dst_port=st.integers(0, 65535),
    transport=st.just("udp"),
    payload=st.binary(max_size=40),
)


def _outcome(parse, data):
    try:
        return parse(data)
    except VoipQosError as exc:
        return type(exc)


@given(
    recs=st.lists(records, max_size=6),
    edits=st.lists(st.tuples(st.integers(20), st.integers(0, 255)),
                   max_size=4),
)
@settings(max_examples=400)
def test_decode_equals_reference(recs, edits):
    # edits land anywhere after the magic: link type, record headers and
    # every Ethernet, IPv4 and UDP header field
    data = bytearray(write_pcap(recs))
    for pos, value in edits:
        data[pos % len(data)] = value
    data = bytes(data)
    got = _outcome(parse_pcap, data)
    want = _outcome(ingest_reference.parse_pcap, data)
    if isinstance(want, type):
        assert got is want
    else:
        assert isinstance(got, Capture) and got == want


# what follows the fixed header: a CSRC list (CC = 1) or a one-word
# header extension (X set), both decoded in columns like a plain header
_HEADER_TAILS = {"plain": (0x80, b""), "csrc": (0x81, b"\x00\x00\x00\x09"),
                 "ext": (0x90, b"\xbe\xde\x00\x01\x11\x22\x33\x44")}


def _rtp(ts, seq, rtp_ts, ssrc, ends, tail="plain"):
    src, sport, dst, dport = ends
    first, extra = _HEADER_TAILS[tail]
    fixed = encode_rtp(8, seq, rtp_ts, ssrc, b"")
    payload = bytes([first]) + fixed[1:] + extra + b"\x00" * 20
    return PacketRecord(ts, src, dst, sport, dport, "udp", payload)


@st.composite
def call(draw, k):
    """A call ``k``: dialog or not, one or two streams, XR reports.

    Capture times sit on a 10 ms grid with random steps of 0 to 3 grid
    units, so a stream holds gaps, reorderings against the RTP clock
    and ties. Sequence numbers and RTP timestamps start near their wrap.
    """
    caller, callee = 40000 + 10 * k, 42000 + 10 * k
    a, b = builders.A_ADDR, builders.B_ADDR
    t0 = 10.0 + k
    out = []
    if draw(st.booleans()):
        out += builders.basic_dialog(
            f"call-{k}", invite_ts=t0 - 1.0, ringing_ts=t0 - 0.6,
            answer_ts=t0 - 0.2, bye_ts=t0 + 9.0, bye_ok_ts=t0 + 9.1,
            caller_port=caller, callee_port=callee,
        )
    legs = [(0x100 + k, (a, caller, b, callee))]
    if draw(st.booleans()):
        legs.append((0x200 + k, (b, callee, a, caller)))
    for ssrc, ends in legs:
        seq0 = draw(st.integers(65500, 65535))
        ts0 = draw(st.integers(2**32 - 3000, 2**32 - 1))
        steps = draw(st.lists(st.integers(0, 3), min_size=1, max_size=60))
        seqs = np.cumsum([0] + draw(st.lists(
            st.integers(0, 2), min_size=len(steps), max_size=len(steps))))
        tails = draw(st.dictionaries(
            st.integers(0, len(steps) - 1), st.sampled_from(("csrc", "ext")),
            max_size=2))
        grid = np.cumsum(steps)
        for i, g in enumerate(grid.tolist()):
            seq = int(seq0 + seqs[i]) & 0xFFFF
            rtp_ts = (ts0 + 80 * i) % 2**32
            out.append(_rtp(round(t0 + 0.01 * g, 2), seq, rtp_ts, ssrc, ends,
                            tails.get(i, "plain")))
        for r in draw(st.lists(st.integers(0, 9), max_size=3)):
            block = VoipMetricsBlock(
                source_ssrc=ssrc, round_trip_delay=100 + r, r_factor=80 + r,
                signal_level=-r, report_ts=t0 + 0.5 * r,
            )
            out.append(PacketRecord(t0 + 0.5 * r + 0.001, ends[2], ends[0],
                                    ends[3] + 1, ends[1] + 1, "udp",
                                    encode_xr_packet(0x77, [block])))
    return out


@st.composite
def capture_bytes(draw):
    recs = [r for k in range(draw(st.integers(1, 3))) for r in draw(call(k))]
    if draw(st.booleans()):
        recs.sort(key=lambda r: r.ts)
    else:
        recs = draw(st.permutations(recs))
    for i in draw(st.lists(st.integers(0, len(recs) - 1), max_size=3)):
        recs.insert(draw(st.integers(0, len(recs))), recs[i])  # duplicates
    return write_pcap(recs)


def _report_bytes(session):
    report, files = build_session_report(
        session, AnalysisConfig(inputs=("capture.pcap",))
    )
    return json.dumps(report, sort_keys=True, indent=2), files


@given(data=capture_bytes())
@settings(max_examples=150, deadline=None)
def test_sessions_and_reports_equal_reference(data):
    got = assemble_sessions(parse_pcap(data))
    want = sessions_reference.assemble_sessions(
        ingest_reference.parse_pcap(data)
    )
    assert got == want
    assert all(isinstance(s.rtp_fwd, RtpStream) for s in got.sessions)
    object_metrics = {
        name: getattr(ingest_reference, name)
        for name in ("jitter_series", "bandwidth_series", "loss_summary")
    }
    for new, old in zip(got.sessions, want.sessions):
        expected = _report_bytes(new)
        # the session span reads its times from the package's columns;
        # the object metrics still take the streams packet by packet
        old = dataclasses.replace(
            old,
            rtp_fwd=RtpStream.from_rows(old.rtp_fwd),
            rtp_rev=RtpStream.from_rows(old.rtp_rev),
            xr_blocks=XrBlocks.from_rows(old.xr_blocks),
        )
        with mock.patch.multiple(analyze, **object_metrics):
            assert _report_bytes(old) == expected


@given(data=capture_bytes(),
       edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)),
                      min_size=1, max_size=8),
       cut=st.none() | st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_mutated_capture_raises_only_package_errors(data, edits, cut):
    # bytes overwritten anywhere past the global header, and the capture
    # maybe cut short: each stage refuses it with a VoipQosError or goes on
    buf = bytearray(data)
    for at, value in edits:
        buf[24 + at % (len(buf) - 24)] = value
    if cut is not None:
        del buf[cut % (len(buf) + 1):]
    try:
        sessions = assemble_sessions(parse_pcap(bytes(buf))).sessions
    except VoipQosError:
        return
    for candidates in (None, ("GEV", "Normal")):
        config = AnalysisConfig(inputs=("capture.pcap",), candidates=candidates)
        for session in sessions:
            try:
                build_session_report(session, config)
            except VoipQosError:
                pass


@given(values=st.lists(st.integers(0, 2**32 - 1), max_size=50),
       modulus=st.sampled_from((2**16, 2**32)))
def test_unroll_equals_reference(values, modulus):
    values = [v % modulus for v in values]
    assert unroll(values, modulus) == ingest_reference.unroll(values, modulus)


def test_capture_from_rows_round_trips_and_concatenates():
    recs = [builders.rtp_record(1.0, 1, 0), builders.xr_record(2.5),
            builders.sip_record(3.0, b"")]
    one = Capture.from_rows(recs[:2])
    two = Capture.from_rows(recs[2:])
    joined = Capture.concat([one, two])
    assert joined == recs and list(joined) == recs
    assert Capture.concat([one]) is one


def _builder_rows(table):
    """Four rows of ``table``'s row type, from the record builders."""
    if table is Capture:
        return [builders.rtp_record(1.0, 1, 0), builders.xr_record(2.5),
                builders.sip_record(3.0, b"INVITE"),
                builders.rtp_record(3.5, 2, 160, reverse=True)]
    if table is RtpStream:
        return [parse_rtp(r.payload, r.ts) for r in (
            builders.rtp_record(1.0 + 0.02 * k, k, 160 * k, media=b"x" * k)
            for k in range(4))]
    return [block for ts in (1.0, 2.0, 3.0, 4.0) for block in parse_rtcp_xr(
        builders.xr_record(ts, round_trip_delay=int(100 * ts)).payload, ts)]


@pytest.mark.parametrize("table", (Capture, RtpStream, XrBlocks),
                         ids=lambda t: t.__name__)
def test_table_protocol(table):
    rows = _builder_rows(table)
    t = table.from_rows(rows)
    assert type(t) is table and len(t) == len(rows)
    assert table.from_rows(list(t)) == t and table.from_rows(t) is t

    assert t[0] == rows[0] and t[-1] == rows[-1] and t[-4] == rows[0]
    for i in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            t[i]

    part = t[1:3]
    assert type(part) is table and part == rows[1:3] and t[::-2] == rows[::-2]
    for name, _ in table._COLUMNS:
        assert np.shares_memory(getattr(part, name), getattr(t, name))
    for name in table._SHARED:
        assert getattr(part, name) is getattr(t, name)
    assert t.take([2, 0]) == [rows[2], rows[0]]
    assert t.take([]) == []

    assert t == rows and t == tuple(rows) and rows == t
    assert t != rows[:-1] and t != rows[::-1] and t != []
    for other in ("", b"", "abcd", b"abcd"):
        assert t != other and not t == other
    assert repr(t) == f"{table.__name__}(4 rows)"

    for name, _ in table._COLUMNS:
        column = getattr(t, name)
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = column[1]
    columns = table._columns_of(rows)
    assert table(**columns) == rows
    missing = dict(columns)
    del missing[table._COLUMNS[-1][0]]
    with pytest.raises(TypeError):
        table(**missing)
    with pytest.raises(TypeError):
        table(**columns, extra=columns[table._COLUMNS[0][0]])
    with pytest.raises(TypeError):
        table(*[[]] * (len(columns) + 1))
