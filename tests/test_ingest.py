"""Wire formats and session assembly."""

import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voipqos import ingest
from voipqos.errors import (
    BadMagic,
    BadRecord,
    BadVersion,
    DomainError,
    MissingHeader,
    NotSip,
    TooShort,
    Truncated,
    UnsupportedLinkType,
)
from voipqos.ingest import (
    UNAVAILABLE,
    PacketRecord,
    RtpPacket,
    VoipMetricsBlock,
    assemble_sessions,
    encode_rtp,
    encode_voip_metrics,
    encode_xr_packet,
    load_codec_map,
    parse_jsonl,
    parse_pcap,
    parse_rtcp_xr,
    parse_rtp,
    parse_sip,
    write_jsonl,
    write_pcap,
)
from tests import builders, sessions_reference


def hand_built_pcap(ts_sec=100, ts_frac=500_000, payload=b"hi", endian="<",
                    magic=0xA1B2C3D4, linktype=1, frag=0):
    """Assemble a one-packet capture byte-by-byte, independent of write_pcap.

    ``frag`` is the IPv4 flags / fragment-offset field.
    """
    ip_src, ip_dst = bytes([10, 0, 0, 1]), bytes([10, 0, 0, 2])
    udp = struct.pack(">HHHH", 1111, 2222, 8 + len(payload), 0) + payload
    ip = struct.pack(
        ">BBHHHBBH4s4s", 0x45, 0, 20 + len(udp), 0, frag, 64, 17, 0, ip_src,
        ip_dst
    )
    eth = b"\x00" * 12 + b"\x08\x00"
    frame = (eth if linktype == 1 else b"") + ip + udp
    head = struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, linktype)
    rec = struct.pack(endian + "IIII", ts_sec, ts_frac, len(frame), len(frame))
    return head + rec + frame


def compact_headers(payload: bytes) -> bytes:
    """The same SIP message with compact Call-ID, From and To headers."""
    return (payload.replace(b"Call-ID:", b"i:")
            .replace(b"From:", b"f:").replace(b"To:", b"t:"))


class TestPcap:
    def test_hand_built_single_packet(self):
        records = parse_pcap(hand_built_pcap())
        assert len(records) == 1
        r = records[0]
        assert r.ts == 100.5
        assert (r.src_addr, r.dst_addr) == ("10.0.0.1", "10.0.0.2")
        assert (r.src_port, r.dst_port) == (1111, 2222)
        assert r.payload == b"hi"

    def test_byte_swapped_magic(self):
        data = hand_built_pcap(endian=">")
        assert data[:4] == bytes.fromhex("a1b2c3d4")  # big-endian on the wire
        records = parse_pcap(data)
        assert records[0].ts == 100.5
        assert records[0].payload == b"hi"

    @pytest.mark.parametrize("endian", ["<", ">"])
    def test_nanosecond_magic(self, endian):
        data = hand_built_pcap(ts_frac=123_456_789, endian=endian,
                               magic=0xA1B23C4D)
        assert data[:4] == bytes.fromhex(
            "4d3cb2a1" if endian == "<" else "a1b23c4d")
        (record,) = parse_pcap(data)
        assert record.ts == 100 + 123_456_789 / 1e9
        assert record.payload == b"hi"

    def test_non_first_fragment_skipped(self):
        # offset 185 * 8 bytes: what follows the IP header is the middle
        # of a datagram, not a UDP header (RFC 791)
        assert parse_pcap(hand_built_pcap(frag=185)) == []
        assert parse_pcap(hand_built_pcap(frag=0x2000 | 185)) == []
        # a first fragment (more-fragments set, offset 0) keeps its header
        (record,) = parse_pcap(hand_built_pcap(frag=0x2000))
        assert (record.src_port, record.payload) == (1111, b"hi")

    def test_link_types(self):
        (record,) = parse_pcap(hand_built_pcap(linktype=101))  # raw IPv4
        assert (record.dst_addr, record.payload) == ("10.0.0.2", b"hi")
        with pytest.raises(UnsupportedLinkType, match="link type 113"):
            parse_pcap(hand_built_pcap(linktype=113))  # Linux SLL

    def test_empty_after_global_header(self):
        head = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
        assert parse_pcap(head) == []

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            parse_pcap(b"\x00\x01\x02\x03" + b"\x00" * 40)

    def test_truncated_record(self):
        data = hand_built_pcap()
        with pytest.raises(Truncated):
            parse_pcap(data[:-5])
        with pytest.raises(Truncated):
            parse_pcap(data[: 24 + 7])  # half a record header

    def test_non_udp_skipped(self):
        data = bytearray(hand_built_pcap())
        # protocol byte of the IPv4 header: offset 24+16+14+9
        data[24 + 16 + 14 + 9] = 6  # TCP
        # patching breaks the checksum, which the reader does not verify
        assert parse_pcap(bytes(data)) == []

    @given(
        recs=st.lists(
            st.tuples(
                st.integers(0, 2**31 - 1),  # sec
                st.integers(0, 999_999),  # usec
                st.integers(0, 65535),
                st.integers(0, 65535),
                st.binary(max_size=300),
            ),
            max_size=15,
        )
    )
    @settings(max_examples=50)
    def test_write_read_identity(self, recs):
        records = [
            PacketRecord(
                # compose exactly as the parser does; multiplication by
                # 1e-6 is not correctly rounded for every usec value
                ts=sec + usec / 1e6,
                src_addr="192.168.1.10",
                dst_addr="192.168.1.20",
                src_port=sport,
                dst_port=dport,
                transport="udp",
                payload=payload,
            )
            for sec, usec, sport, dport, payload in recs
        ]
        assert parse_pcap(write_pcap(records)) == records

    def test_write_refuses_what_a_record_cannot_hold(self):
        # the IPv4 total length (16 bits) covers 28 header bytes; the
        # record's seconds are 32 bits, after rounding to microseconds
        def record(ts, size):
            return PacketRecord(ts, "10.0.0.1", "10.0.0.2", 1, 2, "udp",
                                bytes(size))

        edge = [record(2.0**32 - 1, 65507), record(2.0**32 - 2e-6, 0)]
        data = write_pcap(edge)
        assert [len(r.payload) for r in parse_pcap(data)] == [65507, 0]
        # the classic format requires incl_len <= snaplen
        (snaplen,) = struct.unpack_from("<I", data, 16)
        (incl_len,) = struct.unpack_from("<I", data, 24 + 8)
        assert incl_len == 14 + 20 + 8 + 65507 <= snaplen
        for bad, says in ((record(1.0, 65508), "65508-byte payload"),
                          (record(2.0**32 - 0.4e-6, 0), "32-bit seconds")):
            with pytest.raises(DomainError, match=f"^record 1: .*{says}"):
                write_pcap([edge[0], bad])


class TestJsonl:
    def test_round_trip(self):
        records = [
            builders.rtp_record(1.0, 1, 0),
            builders.xr_record(2.5),
        ]
        assert parse_jsonl(write_jsonl(records)) == records

    def test_blank_lines_skipped(self):
        text = write_jsonl([builders.rtp_record(1.0, 1, 0)]) + "\n\n"
        assert len(parse_jsonl(text)) == 1

    def test_bad_json_line(self):
        with pytest.raises(BadRecord, match="line 1"):
            parse_jsonl("{not json\n")

    def test_missing_key(self):
        line = json.dumps({"ts": 1.0, "src": "a"})
        with pytest.raises(BadRecord, match="missing keys"):
            parse_jsonl(line)

    def test_bad_hex(self):
        obj = {
            "ts": 1.0, "src": "a", "dst": "b", "sport": 1, "dport": 2,
            "proto": "udp", "payload_hex": "zz",
        }
        with pytest.raises(BadRecord, match="hex"):
            parse_jsonl(json.dumps(obj))

    def test_non_udp_skipped(self):
        obj = {
            "ts": 1.0, "src": "a", "dst": "b", "sport": 1, "dport": 2,
            "proto": "tcp", "payload_hex": "00",
        }
        assert parse_jsonl(json.dumps(obj)) == []

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-1.0"])
    def test_bad_timestamp_names_its_line(self, token):
        good = json.loads(write_jsonl([builders.rtp_record(1.0, 1, 0)]))
        bad = json.dumps(good).replace('"ts": 1.0', f'"ts": {token}')
        assert token in bad
        with pytest.raises(BadRecord, match="line 2: capture timestamp"):
            parse_jsonl(json.dumps(good) + "\n" + bad + "\n")


class TestRtp:
    def test_hand_assembled_header(self):
        payload = bytes.fromhex("80 00 00 01 00 00 00 A0 DE AD BE EF".replace(" ", ""))
        payload += b"\x00" * 160
        pkt = parse_rtp(payload, capture_ts=5.0)
        assert pkt.seq == 1
        assert pkt.rtp_ts == 160
        assert pkt.ssrc == 0xDEADBEEF
        assert pkt.payload_len == 160
        assert pkt.header_len == 12
        assert pkt.capture_ts == 5.0

    def test_version_1_rejected(self):
        with pytest.raises(BadVersion):
            parse_rtp(b"\x40" + b"\x00" * 11, 0.0)

    def test_too_short(self):
        with pytest.raises(TooShort):
            parse_rtp(b"\x80" * 11, 0.0)

    def test_csrc_and_extension_extend_header(self):
        # CC=2 and X=1: 12 + 8 CSRC + 4 ext header + 8 ext body = 32
        head = struct.pack(">BBHII", 0x92, 8, 7, 700, 0xABC)
        csrc = struct.pack(">II", 1, 2)
        ext = struct.pack(">HH", 0xBEDE, 2) + b"\x00" * 8
        pkt = parse_rtp(head + csrc + ext + b"\x11" * 20, 0.0)
        assert pkt.header_len == 32
        assert pkt.payload_len == 20

    @pytest.mark.parametrize("name, low, high", [
        ("payload_type", 0, 127), ("seq", 0, 2**16 - 1),
        ("rtp_ts", 0, 2**32 - 1), ("ssrc", 0, 2**32 - 1),
    ])
    def test_header_field_range(self, name, low, high):
        """One past either end of a header field is refused, naming the
        field, by RtpPacket and by encode_rtp (which wraps seq and
        rtp_ts instead); both ends survive the wire."""
        fields = dict(payload_type=8, seq=1, rtp_ts=2, ssrc=3)
        for v in (low - 1, high + 1):
            with pytest.raises(DomainError, match=f"^{name}={v} "):
                RtpPacket(version=2, payload_len=0, capture_ts=0.0,
                          header_len=12, **{**fields, name: v})
            if name in ("payload_type", "ssrc"):
                with pytest.raises(DomainError, match=f"^{name}={v} "):
                    encode_rtp(media=b"", **{**fields, name: v})
        for v in (low, high):
            pkt = parse_rtp(encode_rtp(media=b"", **{**fields, name: v}), 0.0)
            assert getattr(pkt, name) == v

    def test_encode_parse_identity(self):
        wire = encode_rtp(9, 4660, 1_000_000, 0xFEED, b"\x55" * 80)
        pkt = parse_rtp(wire, 1.25)
        assert (pkt.payload_type, pkt.seq, pkt.rtp_ts, pkt.ssrc) == (
            9, 4660, 1_000_000, 0xFEED,
        )
        assert pkt.payload_len == 80


def random_block_strategy():
    u8 = st.integers(0, 255)
    u16 = st.integers(0, 65535)
    s8 = st.integers(-128, 127)
    return st.builds(
        VoipMetricsBlock,
        source_ssrc=st.integers(0, 2**32 - 1),
        loss_rate=u8, discard_rate=u8,
        burst_density=u8, gap_density=u8,
        burst_duration=u16, gap_duration=u16,
        round_trip_delay=u16, end_system_delay=u16,
        signal_level=s8, noise_level=s8,
        rerl=u8, gmin=u8,
        r_factor=st.one_of(st.integers(0, 100), st.just(127)),
        ext_r_factor=u8, mos_lq=u8, mos_cq=u8,
        rx_config=u8, reserved=u8,
        jb_nominal=u16, jb_maximum=u16, jb_abs_max=u16,
        report_ts=st.just(3.5),
    )


# RFC 3611 section 4.7 wire type of each VoIP Metrics field, in wire order
XR_WIRE_TYPES = dict(zip(
    [f.name for f in dataclasses.fields(VoipMetricsBlock)][:-1],
    ["u4"] + ["u1"] * 4 + ["u2"] * 4 + ["i1"] * 2 + ["u1"] * 8 + ["u2"] * 3,
))


class TestRtcpXr:
    def test_golden_round_trip_delay_bytes(self):
        block = VoipMetricsBlock(source_ssrc=0x11223344, round_trip_delay=150)
        wire = encode_xr_packet(0x99, [block])
        # round_trip_delay lives in body word 3: packet header 8 + block
        # header 4 + 12 bytes into the body
        off = 8 + 4 + 12
        assert wire[off : off + 2] == b"\x00\x96"
        got = parse_rtcp_xr(wire, capture_ts=3.5)
        assert len(got) == 1
        assert got[0].round_trip_delay == 150

    @given(block=random_block_strategy())
    @settings(max_examples=200)
    def test_encode_decode_identity(self, block):
        wire = encode_xr_packet(0xABCD, [block])
        got = parse_rtcp_xr(wire, capture_ts=3.5)
        assert got == [block]

    def test_receiver_report_only_yields_nothing(self):
        rr = struct.pack(">BBHI", 0x80, 201, 1, 0x42)
        assert parse_rtcp_xr(rr, 0.0) == []

    def test_other_block_types_skipped(self):
        loss_rle = struct.pack(">BBHIHH", 1, 0, 2, 0x42, 0, 0)
        packet = struct.pack(">BBHI", 0x80, 207, 1 + 3, 0x99) + loss_rle
        assert parse_rtcp_xr(packet, 0.0) == []

    def test_truncated_block(self):
        block = VoipMetricsBlock(source_ssrc=1)
        wire = encode_xr_packet(2, [block])
        with pytest.raises(Truncated):
            parse_rtcp_xr(wire[:-4], 0.0)

    def test_compound_with_rr_then_xr(self):
        rr = struct.pack(">BBHI", 0x80, 201, 1, 0x42)
        xr = encode_xr_packet(0x99, [VoipMetricsBlock(source_ssrc=7)])
        got = parse_rtcp_xr(rr + xr, 0.0)
        assert [b.source_ssrc for b in got] == [7]

    def test_field_validation(self):
        with pytest.raises(DomainError):
            VoipMetricsBlock(source_ssrc=1, r_factor=101)
        with pytest.raises(DomainError):
            VoipMetricsBlock(source_ssrc=1, signal_level=130)
        with pytest.raises(DomainError):
            VoipMetricsBlock(source_ssrc=1, round_trip_delay=-1)

    @pytest.mark.parametrize("name", list(XR_WIRE_TYPES))
    def test_wire_field_range(self, name):
        """One past either end of a field's wire type is refused, naming
        the field; both ends survive the wire (r_factor: 0 and 127)."""
        info = np.iinfo(XR_WIRE_TYPES[name])
        for v in (int(info.min) - 1, int(info.max) + 1):
            with pytest.raises(DomainError, match=f"^{name}={v} "):
                VoipMetricsBlock(**{"source_ssrc": 1, name: v})
        top = UNAVAILABLE if name == "r_factor" else int(info.max)
        for v in (int(info.min), top):
            block = VoipMetricsBlock(**{"source_ssrc": 1, name: v})
            wire = encode_xr_packet(2, [block])
            assert wire[8:] == encode_voip_metrics(block)
            assert parse_rtcp_xr(wire, 0.0) == [block]


class TestSip:
    def test_invite_request(self):
        msg = parse_sip(
            b"INVITE sip:b@x SIP/2.0\r\nCall-ID: 7\r\nCSeq: 1 INVITE\r\n\r\n", 1.0
        )
        assert msg.kind == "request"
        assert msg.method_or_status == "INVITE"
        assert msg.call_id == "7"
        assert msg.cseq == 1 and msg.cseq_method == "INVITE"

    def test_ringing_response(self):
        msg = parse_sip(
            b"SIP/2.0 180 Ringing\r\nCall-ID: 7\r\nCSeq: 1 INVITE\r\n\r\n", 2.0
        )
        assert msg.kind == "response"
        assert msg.method_or_status == 180

    def test_http_rejected(self):
        with pytest.raises(NotSip):
            parse_sip(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n", 0.0)

    def test_missing_call_id(self):
        with pytest.raises(MissingHeader):
            parse_sip(b"INVITE sip:b@x SIP/2.0\r\nCSeq: 1 INVITE\r\n\r\n", 0.0)

    def test_missing_cseq(self):
        with pytest.raises(MissingHeader):
            parse_sip(b"INVITE sip:b@x SIP/2.0\r\nCall-ID: 7\r\n\r\n", 0.0)

    def test_headers_case_insensitive(self):
        msg = parse_sip(
            b"BYE sip:b@x SIP/2.0\r\ncall-id: abc\r\ncseq: 2 BYE\r\n\r\n", 0.0
        )
        assert msg.call_id == "abc"
        assert msg.cseq == 2

    def test_media_endpoint(self):
        raw = builders.format_sip_request(
            "INVITE", "sip:b@x", "c1", 1, media_port=4444
        )
        msg = parse_sip(raw, 0.0)
        assert (msg.media_addr, msg.media_port) == ("0.0.0.0", 4444)

    @pytest.mark.parametrize("audio_conn, want", [
        ("", "10.0.0.9"),  # the session-level address
        ("c=IN IP4 10.0.0.7/127\r\n", "10.0.0.7"),  # media-level overrides
        ("c=IN IP6 ::1\r\n", None),  # and is not IPv4
    ])
    def test_media_level_connection_overrides_session_level(
        self, audio_conn, want
    ):
        raw = ("INVITE sip:b@x SIP/2.0\r\nCall-ID: c1\r\nCSeq: 1 INVITE\r\n"
               "\r\nv=0\r\nc=IN IP4 10.0.0.9\r\nm=video 5000 RTP/AVP 31\r\n"
               "c=IN IP4 10.0.0.8\r\nm=audio 4444 RTP/AVP 8\r\n" + audio_conn
               + "m=video 6000 RTP/AVP 31\r\nc=IN IP4 10.0.0.6\r\n")
        msg = parse_sip(raw, 0.0)
        assert (msg.media_addr, msg.media_port) == (want, 4444)

    def test_compact_headers(self):
        long_form = ingest.format_sip_request(
            "INVITE", "sip:b@remote", "c-9", 1, media_port=40000
        )
        compact = compact_headers(long_form)
        assert b"Call-ID" not in compact
        assert parse_sip(compact, 1.0) == parse_sip(long_form, 1.0)
        assert parse_sip(compact, 1.0).call_id == "c-9"

    def test_status_code_bounds(self):
        with pytest.raises(NotSip):
            parse_sip(b"SIP/2.0 042 Odd\r\nCall-ID: 7\r\nCSeq: 1 X\r\n\r\n", 0.0)


class TestAssembly:
    def test_dialog_with_two_streams(self):
        records = builders.basic_dialog()
        records += [
            builders.rtp_record(20.0 + i * 0.02, i, i * 160, ssrc=0xAAAA)
            for i in range(10)
        ]
        records += [
            builders.rtp_record(
                20.01 + i * 0.02, i, i * 160, ssrc=0xBBBB, reverse=True
            )
            for i in range(8)
        ]
        result = assemble_sessions(records)
        assert len(result.sessions) == 1
        s = result.sessions[0]
        assert s.session_id == "call-1"
        assert len(s.rtp_fwd) == 10 and len(s.rtp_rev) == 8
        assert s.rtp_fwd[0].ssrc == 0xAAAA  # toward the callee port
        assert s.rtp_rev[0].ssrc == 0xBBBB
        assert s.codec == "G711-A" and s.clock_rate == 8000
        assert len(s.sip_dialog) == 5
        assert result.residue == []

    def test_compact_header_dialog_binds_like_long_form(self):
        media = [
            builders.rtp_record(20.0 + i * 0.02, i, i * 160, ssrc=0xAAAA)
            for i in range(6)
        ] + [
            builders.rtp_record(
                20.01 + i * 0.02, i, i * 160, ssrc=0xBBBB, reverse=True
            )
            for i in range(6)
        ]
        dialog = builders.basic_dialog()
        want = assemble_sessions(dialog + media)
        got = assemble_sessions([
            dataclasses.replace(r, payload=compact_headers(r.payload))
            for r in dialog
        ] + media)
        assert [s.session_id for s in got.sessions] == ["call-1"]
        assert got.sessions == want.sessions
        assert got.residue == want.residue == []

    def test_rtp_only_session(self):
        records = [builders.rtp_record(i * 0.02, i, i * 160) for i in range(5)]
        result = assemble_sessions(records)
        assert len(result.sessions) == 1
        s = result.sessions[0]
        assert s.sip_dialog == []
        assert len(s.rtp_fwd) == 5 and s.rtp_rev == []

    def test_two_interleaved_calls_conserve_counts(self):
        a = builders.basic_dialog("call-a", invite_ts=1.0)
        b = builders.basic_dialog(
            "call-b", invite_ts=1.5, caller_port=50000, callee_port=52000
        )
        rtp_a = [
            builders.rtp_record(2.0 + i * 0.02, i, i * 160, ssrc=0xA) for i in range(6)
        ]
        rtp_b = [
            PacketRecord(
                ts=2.01 + i * 0.02,
                src_addr=builders.A_ADDR,
                dst_addr=builders.B_ADDR,
                src_port=50000,
                dst_port=52000,
                transport="udp",
                payload=builders.encode_rtp(8, i, i * 160, 0xB, b"\x00" * 160),
            )
            for i in range(7)
        ]
        mixed = []
        for group in (a, b, rtp_a, rtp_b):
            mixed.extend(group)
        mixed.sort(key=lambda r: r.ts)
        result = assemble_sessions(mixed)
        assert len(result.sessions) == 2
        by_id = {s.session_id: s for s in result.sessions}
        assert by_id["call-a"].rtp_count == 6
        assert by_id["call-b"].rtp_count == 7
        total = sum(s.rtp_count + len(s.sip_dialog) for s in result.sessions)
        assert total + len(result.residue) == len(mixed)

    def test_calls_on_shared_ports_bind_by_sdp_address(self):
        # both calls declare ports 40000/42000; call-b's media is seen first
        hosts = {"call-a": ("10.0.0.1", "10.0.0.2"),
                 "call-b": ("10.0.0.3", "10.0.0.4")}
        records = builders.basic_dialog("call-a", invite_ts=1.0,
                                        hosts=hosts["call-a"])
        records += builders.basic_dialog("call-b", invite_ts=1.5,
                                         hosts=hosts["call-b"])
        for n, (call, ssrc) in enumerate((("call-b", 0xB0), ("call-a", 0xA0))):
            for i in range(6):
                t = 20.0 + n * 0.001 + i * 0.02
                records.append(builders.rtp_record(
                    t, i, i * 160, ssrc=ssrc, hosts=hosts[call]))
                records.append(builders.rtp_record(
                    t + 0.01, i, i * 160, ssrc=ssrc + 1, hosts=hosts[call],
                    reverse=True))
        result = assemble_sessions(records)
        by_id = {s.session_id: s for s in result.sessions}
        assert sorted(by_id) == ["call-a", "call-b"]
        assert result.residue == []
        for call_id, ssrc in (("call-a", 0xA0), ("call-b", 0xB0)):
            s = by_id[call_id]
            assert len(s.rtp_fwd) == len(s.rtp_rev) == 6
            assert (s.rtp_fwd[0].ssrc, s.rtp_rev[0].ssrc) == (ssrc, ssrc + 1)

    def test_xr_binds_by_source_ssrc(self):
        records = builders.basic_dialog()
        records += [builders.rtp_record(20.0 + i * 0.02, i, i * 160) for i in range(4)]
        records += [builders.xr_record(21.0, source_ssrc=0x1111)]
        result = assemble_sessions(records)
        s = result.sessions[0]
        assert len(s.xr_blocks) == 1
        assert s.xr_blocks[0].round_trip_delay == 150
        assert result.residue == []

    @pytest.mark.parametrize("hosts, owner", [
        ((("10.0.0.1", "10.0.0.2"), ("10.0.0.3", "10.0.0.4")), "call-b"),
        ((None, None), "call-a"),  # c=0.0.0.0: the first dialog on the port
    ])
    def test_xr_port_fallback_matches_sdp_address(self, hosts, owner):
        # both calls declare ports 40000/42000, and no session owns 0x9999
        records = builders.basic_dialog("call-a", invite_ts=1.0,
                                        hosts=hosts[0])
        records += builders.basic_dialog("call-b", invite_ts=1.5,
                                         hosts=hosts[1])
        xr = builders.xr_record(30.0, source_ssrc=0x9999)
        records.append(dataclasses.replace(xr, src_addr="10.0.0.4",
                                           dst_addr="10.0.0.3"))
        result = assemble_sessions(records)
        assert {s.session_id: len(s.xr_blocks) for s in result.sessions} \
            == {"call-a": owner == "call-a", "call-b": owner == "call-b"}
        assert result.residue == []
        if hosts[0] is None:
            assert result == sessions_reference.assemble_sessions(records)

    def test_junk_lands_in_residue(self):
        junk = PacketRecord(
            ts=1.0, src_addr="1.2.3.4", dst_addr="5.6.7.8",
            src_port=9, dst_port=10, transport="udp", payload=b"\xff\x00garbage",
        )
        result = assemble_sessions([junk])
        assert result.sessions == []
        assert result.residue == [junk]

    @given(payloads=st.lists(st.binary(max_size=64), max_size=20))
    @settings(max_examples=100)
    def test_total_over_fuzz(self, payloads):
        records = [
            PacketRecord(
                ts=float(i), src_addr="1.1.1.1", dst_addr="2.2.2.2",
                src_port=1000, dst_port=2000, transport="udp", payload=p,
            )
            for i, p in enumerate(payloads)
        ]
        result = assemble_sessions(records)  # must never raise
        kept = sum(s.rtp_count + len(s.sip_dialog) for s in result.sessions)
        # random bytes never form a full VoIP metrics block, so every
        # record is accounted for as RTP, SIP, or residue
        assert kept + len(result.residue) == len(records)


class TestCodecMap:
    def test_static_defaults(self):
        table = load_codec_map(None)
        assert table[8] == "G711-A"
        assert table[9] == "G722"
        assert table[18] == "G729"
        assert table[3] == "GSM"

    def test_dynamic_overlay(self):
        table = load_codec_map({"96": "OPUS", 97: "SPX-16"})
        assert table[96] == "OPUS"
        assert table[97] == "SPX-16"
        assert table[8] == "G711-A"

    def test_unknown_codec_rejected(self):
        from voipqos.errors import DomainError

        with pytest.raises(DomainError):
            load_codec_map({"96": "EVS"})

    def test_catalogue_clock_rates(self):
        from voipqos.ingest import CODECS

        assert CODECS["G711-A"].clock_rate == 8000
        assert CODECS["G722"].clock_rate == 16000
        assert CODECS["OPUS"].clock_rate == 48000
        assert CODECS["SPX-16"].clock_rate == 16000
        assert {c.algorithm for c in CODECS.values()} == {
            "PCM", "ADPCM", "CS-ACELP", "RPE-LTP", "CELP", "LP-MDTC",
        }
