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

``parse_rtcp_xr`` decodes one compound packet into VoipMetricsBlock
objects; it is the reference decoder. ``xr_block_columns`` decodes the
blocks of many compound packets at once, with the same refusal rules,
and ``XrBlocks`` is the ``capture.Table`` of VoipMetricsBlock rows.
``_BODY`` declares the body layout once: the numpy record, the column
types and each field's range check derive from it. ``_HEAD`` declares
the 4-byte header that RTCP packets and XR blocks share.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields

import numpy as np

from ..errors import BadVersion, DomainError, Truncated
from .capture import Table, check_ranges, field_ranges, gather, struct_dtype

XR_PACKET_TYPE = 207
VOIP_METRICS_BLOCK_TYPE = 7
VOIP_METRICS_BLOCK_WORDS = 8

#: r_factor values are scores 0..100; 127 marks "unavailable".
UNAVAILABLE = 127

_BODY = struct.Struct(">IBBBBHHHHbbBBBBBBBBHHH")
#: byte 0 | byte 1 | 32-bit words after it: a packet's V and type in
#: byte 0's top bits and byte 1, a block's type in byte 0
_HEAD = struct.Struct(">BBH")
_HEAD_DTYPE = struct_dtype(_HEAD, ("byte0", "byte1", "words"))


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
        if not (0 <= self.r_factor <= 100 or self.r_factor == UNAVAILABLE):
            raise DomainError(
                f"r_factor={self.r_factor} must be in 0..100 or 127 (unavailable)"
            )
        check_ranges(_WIRE_RANGES, (getattr(self, n) for n in _WIRE_NAMES))


# the block's wire fields, in _BODY order: every field but report_ts
_WIRE_NAMES = tuple(f.name for f in fields(VoipMetricsBlock))[:-1]
#: the block body as a numpy record, laid out as _BODY
_BODY_DTYPE = struct_dtype(_BODY, _WIRE_NAMES)
_WIRE_RANGES = field_ranges(_BODY_DTYPE)


def encode_voip_metrics(block: VoipMetricsBlock) -> bytes:
    """Encode one block: 4-byte block header + 32-byte body."""
    header = _HEAD.pack(VOIP_METRICS_BLOCK_TYPE, 0, VOIP_METRICS_BLOCK_WORDS)
    return header + _BODY.pack(*(getattr(block, n) for n in _WIRE_NAMES))


def encode_xr_packet(sender_ssrc: int, blocks: list[VoipMetricsBlock]) -> bytes:
    """Wrap blocks in one RTCP XR packet."""
    if not 0 <= sender_ssrc <= 0xFFFFFFFF:
        raise DomainError("sender_ssrc outside 32-bit range")
    body = b"".join(encode_voip_metrics(b) for b in blocks)
    length_words = (8 + len(body)) // 4 - 1
    return (_HEAD.pack(0x80, XR_PACKET_TYPE, length_words)
            + struct.pack(">I", sender_ssrc) + body)


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
        b0, pt, length_words = _HEAD.unpack_from(payload, off)
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
        bt, _reserved, block_words = _HEAD.unpack_from(data, off)
        span = 4 + block_words * 4
        if off + span > n:
            raise Truncated("XR block extends past end of packet")
        if bt == VOIP_METRICS_BLOCK_TYPE and block_words == VOIP_METRICS_BLOCK_WORDS:
            body = _BODY.unpack(data[off + 4 : off + span])  # wire order
            blocks.append(VoipMetricsBlock(*body, report_ts=capture_ts))
        off += span
    return blocks


class XrBlocks(Table):
    """VoIP Metrics blocks as columns, one row per block.

    One column per wire field, named as the VoipMetricsBlock fields and
    typed by their wire width (the levels signed), then ``report_ts``
    (float64 seconds). A row is a VoipMetricsBlock.
    """

    _COLUMNS = tuple(
        (name, _BODY_DTYPE[name].newbyteorder("=")) for name in _WIRE_NAMES
    ) + (("report_ts", np.dtype(np.float64)),)
    __slots__ = tuple(name for name, _ in _COLUMNS)

    @classmethod
    def _columns_of(cls, blocks) -> dict:
        return {name: [getattr(b, name) for b in blocks]
                for name, _ in cls._COLUMNS}

    def _row(self, i: int) -> VoipMetricsBlock:
        return VoipMetricsBlock(
            *(int(getattr(self, n)[i]) for n in _WIRE_NAMES),
            report_ts=float(self.report_ts[i]),
        )


def _chains(u8: np.ndarray, at: np.ndarray, end: np.ndarray):
    """Walk chains of ``_HEAD``-headed items, one item of every chain a round.

    Chain k runs from ``at[k]`` to ``end[k]``; an item spans its header
    plus its ``words`` 32-bit words, as RTCP packets and XR blocks do.
    Returns (bad, chain, start, head): the chains with a header or an
    item that overruns their end, and for every item that fits, its
    chain, its start and its header record, in round order.
    """
    bad = np.zeros(len(at), dtype=bool)
    chain = np.flatnonzero(at < end)
    at, end = at[chain], end[chain]
    found = [(chain[:0], at[:0], np.zeros(0, _HEAD_DTYPE))]
    while len(chain):
        cut = at + _HEAD.size > end
        bad[chain[cut]] = True
        chain, at, end = chain[~cut], at[~cut], end[~cut]
        head = gather(u8, at, _HEAD_DTYPE)
        span = _HEAD.size + 4 * head["words"].astype(np.int64)
        fits = at + span <= end
        bad[chain[~fits]] = True
        found.append((chain[fits], at[fits], head[fits]))
        at += span
        more = fits & (at < end)
        chain, at, end = chain[more], at[more], end[more]
    return (bad, *(np.concatenate(c) for c in zip(*found)))


def xr_block_columns(u8: np.ndarray, pos: np.ndarray, length: np.ndarray):
    """Decode the VoIP Metrics blocks of RTCP compound packets in ``u8``.

    Payload k is ``length[k]`` bytes at ``pos[k]``. The compounds are
    walked in rounds, one RTCP packet of each a round, then the XR
    packets' blocks, one block of each a round. A payload decodes where
    ``parse_rtcp_xr`` returns blocks: it is refused for a packet whose
    version is not 2, a packet header, packet, block header or block
    that overruns its container, an ``r_factor`` outside 0..100 that is
    not 127, or no VoIP Metrics block at all (type 7, 8 words).
    Non-XR packets, and XR packets shorter than 8 bytes, are skipped.

    Returns (ok, row, body): the mask of payloads that decode, and for
    each of their VoIP Metrics blocks, in payload then wire order, the
    payload's index and the block body as a record of the wire fields,
    big-endian, named and ordered as ``XrBlocks``' wire columns.
    """
    pos = np.asarray(pos, dtype=np.int64)
    bad, row, at, head = _chains(u8, pos, pos + length)
    bad[row[head["byte0"] >> 6 != 2]] = True
    xr = (head["byte1"] == XR_PACKET_TYPE) & (head["words"] >= 1)
    row, at, head = row[xr], at[xr], head[xr]
    cut, packet, at, head = _chains(
        u8, at + 8, at + _HEAD.size + 4 * head["words"].astype(np.int64)
    )
    bad[row[cut]] = True
    voip = ((head["byte0"] == VOIP_METRICS_BLOCK_TYPE)
            & (head["words"] == VOIP_METRICS_BLOCK_WORDS))
    row, at = row[packet[voip]], at[voip] + _HEAD.size
    order = np.lexsort((at, row))
    row, at = row[order], at[order]
    body = gather(u8, at, _BODY_DTYPE)
    r = body["r_factor"]
    bad[row[(r > 100) & (r != UNAVAILABLE)]] = True
    ok = np.zeros(len(pos), dtype=bool)
    ok[row] = True
    ok &= ~bad
    keep = ok[row]
    return ok, row[keep], body[keep]
