"""The per-packet object path that columnar ingest replaced.

Verbatim copies of the record-by-record pcap decoder and of the metric
functions that rebuilt arrays from lists of RtpPacket, kept so the tests
can compare the columnar path against them. The copied decoder differs
in three places: it skips IPv4 non-first fragments, as the package now
does (RFC 791), it refuses a link type other than Ethernet or raw IPv4
with UnsupportedLinkType before walking the records, as the package
does, and it names its result types from the package. Session
assembly's reference is ``tests/sessions_reference.py``.
"""

from __future__ import annotations

import struct

import numpy as np

from voipqos.errors import (
    BadMagic,
    DomainError,
    TooFewPackets,
    Truncated,
    UnsupportedLinkType,
)
from voipqos.ingest.capture import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW_IPV4,
    MAGIC,
    PacketRecord,
)
from voipqos.ingest.rtp import RtpPacket
from voipqos.metrics import (
    DEFAULT_OVERHEAD_BYTES,
    LossSummary,
    MetricSeries,
)

_GLOBAL_HEADER = struct.Struct("IHHiIII")  # magic, vmaj, vmin, zone, figs, snap, link
_RECORD_HEADER = struct.Struct("IIII")  # ts_sec, ts_usec, incl_len, orig_len


def _parse_ipv4(ts: float, data: bytes) -> PacketRecord | None:
    if len(data) < 20:
        return None
    first = data[0]
    if first >> 4 != 4:
        return None
    ihl = (first & 0x0F) * 4
    if ihl < 20 or len(data) < ihl + 8:
        return None
    proto = data[9]
    if proto != 17:  # not UDP
        return None
    if int.from_bytes(data[6:8], "big") & 0x1FFF:  # non-first fragment
        return None
    src = ".".join(str(b) for b in data[12:16])
    dst = ".".join(str(b) for b in data[16:20])
    sport, dport, udp_len, _ = struct.unpack(">HHHH", data[ihl : ihl + 8])
    end = ihl + max(udp_len, 8)
    payload = bytes(data[ihl + 8 : min(end, len(data))])
    return PacketRecord(
        ts=ts, src_addr=src, dst_addr=dst,
        src_port=sport, dst_port=dport, transport="udp", payload=payload,
    )


def parse_pcap(data: bytes) -> list[PacketRecord]:
    """Decode a classic capture file into UDP packet records, in order.

    Raises BadMagic when the first four bytes are not the classic magic
    in either byte order, UnsupportedLinkType for a link type other than
    Ethernet or raw IPv4, and Truncated when a record header or body
    extends past the end of the input.
    """
    if len(data) < 4:
        raise BadMagic("input shorter than a capture magic")
    (magic_le,) = struct.unpack("<I", data[:4])
    if magic_le == MAGIC:
        endian = "<"
    elif magic_le == 0xD4C3B2A1:
        endian = ">"
    else:
        raise BadMagic(f"not a classic capture file (magic {magic_le:#010x})")
    if len(data) < 24:
        raise Truncated("global header cut short")
    header = struct.Struct(endian + _GLOBAL_HEADER.format)
    _, _, _, _, _, _, linktype = header.unpack(data[:24])
    if linktype not in (LINKTYPE_ETHERNET, LINKTYPE_RAW_IPV4):
        raise UnsupportedLinkType(f"link type {linktype} is not supported")
    rec_header = struct.Struct(endian + _RECORD_HEADER.format)

    records: list[PacketRecord] = []
    off = 24
    while off < len(data):
        if off + 16 > len(data):
            raise Truncated("record header cut short")
        sec, usec, incl, _orig = rec_header.unpack(data[off : off + 16])
        off += 16
        if off + incl > len(data):
            raise Truncated("record body extends past end of file")
        frame = data[off : off + incl]
        off += incl
        ts = sec + usec / 1e6  # division is correctly rounded, multiplication by 1e-6 is not
        if linktype == LINKTYPE_ETHERNET:
            if len(frame) < 14 or frame[12:14] != b"\x08\x00":
                continue  # not IPv4
            rec = _parse_ipv4(ts, frame[14:])
        else:
            rec = _parse_ipv4(ts, frame)
        if rec is not None:
            records.append(rec)
    return records


def unroll(values, modulus: int) -> list[int]:
    """Undo modular wrap-around by accumulating signed deltas."""
    it = iter(values)
    try:
        first = next(it)
    except StopIteration:
        return []
    half = modulus // 2
    out = [int(first)]
    for v in it:
        delta = ((int(v) - out[-1] + half) % modulus) - half
        out.append(out[-1] + delta)
    return out


def jitter_series(
    stream: list[RtpPacket], clock_rate: float, rfc3550: bool = False
) -> MetricSeries:
    """Per-packet jitter in ms; one sample per packet from the second on.

    With ``rfc3550`` set, applies the classic running estimator
    J <- J + (|D| - J)/16 instead of reporting |D| directly.
    """
    if not clock_rate > 0:
        raise DomainError(f"clock rate must be positive, got {clock_rate}")
    if len(stream) < 2:
        raise TooFewPackets(f"jitter needs >= 2 packets, got {len(stream)}")
    send_ts = np.array(unroll((p.rtp_ts for p in stream), 2**32), dtype=float)
    t_t = send_ts / float(clock_rate)
    t_r = np.array([p.capture_ts for p in stream], dtype=float)
    transit = t_r - t_t
    diffs = np.abs(np.diff(transit)) * 1000.0
    if rfc3550:
        j = 0.0
        smoothed = []
        for d in diffs:
            j += (d - j) / 16.0
            smoothed.append(j)
        diffs = smoothed
    return MetricSeries.create("jitter", t_r[1:], diffs)


def bandwidth_series(
    stream: list[RtpPacket],
    window: float = 1.0,
    overhead_bytes: int = DEFAULT_OVERHEAD_BYTES,
) -> MetricSeries:
    """Moving-average consumed bandwidth in kbps at each packet time.

    Each packet contributes payload + RTP header + ``overhead_bytes``
    (defaults to IPv4+UDP) to the window sum.
    """
    if not window > 0:
        raise DomainError(f"window must be positive, got {window}")
    if overhead_bytes < 0:
        raise DomainError("overhead_bytes must be >= 0")
    t = np.array([p.capture_ts for p in stream], dtype=float)
    size = np.array(
        [p.payload_len + p.header_len + overhead_bytes for p in stream], dtype=float
    )
    # window (t - window, t] holds packets lo..i; sizes are integers, so
    # the cumulative sums and their differences are exact
    lo = np.searchsorted(t, t - window, side="right")
    cum = np.concatenate(([0.0], np.cumsum(size)))
    acc = cum[1:] - cum[lo]
    return MetricSeries.create("bandwidth", t, acc * 8.0 / window / 1000.0)


def loss_summary(stream: list[RtpPacket]) -> LossSummary:
    """Packet loss from the unrolled sequence-number span."""
    if not stream:
        raise TooFewPackets("loss needs at least one packet")
    seqs = unroll((p.seq for p in stream), 2**16)
    expected = max(seqs) - min(seqs) + 1
    received = len(set(seqs))
    loss_pct = max(0.0, 100.0 * (expected - received) / expected)
    return LossSummary(expected=expected, received=received, loss_pct=loss_pct)
