"""RTP headers decoded one by one or in columns, encoding, and the
RtpStream table of RtpPacket rows; the one module that knows the RTP
wire layout."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..errors import BadVersion, DomainError, TooShort
from .capture import Table, read_uint

_FIXED_LEN = 12


@dataclass(frozen=True)
class RtpPacket:
    version: int
    payload_type: int
    seq: int  # 16-bit wrap-around counter
    rtp_ts: int  # 32-bit wrap-around counter, codec clock units
    ssrc: int
    payload_len: int
    capture_ts: float  # receive time t_r of the jitter formula
    header_len: int

    def __post_init__(self) -> None:
        if self.version != 2:
            raise BadVersion(f"RTP version must be 2, got {self.version}")
        if not 0 <= self.payload_type <= 127:
            raise DomainError(f"payload type {self.payload_type} outside 0..127")
        if not 0 <= self.seq <= 0xFFFF:
            raise DomainError(f"seq {self.seq} outside 16-bit range")
        if not 0 <= self.rtp_ts <= 0xFFFFFFFF:
            raise DomainError(f"rtp_ts {self.rtp_ts} outside 32-bit range")
        if not 0 <= self.ssrc <= 0xFFFFFFFF:
            raise DomainError(f"ssrc {self.ssrc} outside 32-bit range")
        if self.payload_len < 0 or self.header_len < _FIXED_LEN:
            raise DomainError("negative payload length or impossible header length")


class RtpStream(Table):
    """RTP packets as columns, one row per packet.

    ``seq`` (uint16), ``rtp_ts`` and ``ssrc`` (uint32), ``payload_type``
    (uint8), ``capture_ts`` (float64 seconds), ``size`` (header plus
    payload bytes) and ``header_len``. A row is an RtpPacket.
    """

    _COLUMNS = (("seq", np.uint16), ("rtp_ts", np.uint32),
                ("ssrc", np.uint32), ("payload_type", np.uint8),
                ("capture_ts", np.float64), ("size", np.int64),
                ("header_len", np.int64))
    __slots__ = tuple(name for name, _ in _COLUMNS)

    @classmethod
    def _columns_of(cls, packets) -> dict:
        columns = {name: [getattr(p, name) for p in packets]
                   for name, _ in cls._COLUMNS if name != "size"}
        columns["size"] = [p.header_len + p.payload_len for p in packets]
        return columns

    def _row(self, i: int) -> RtpPacket:
        header_len = int(self.header_len[i])
        return RtpPacket(
            version=2,
            payload_type=int(self.payload_type[i]),
            seq=int(self.seq[i]),
            rtp_ts=int(self.rtp_ts[i]),
            ssrc=int(self.ssrc[i]),
            payload_len=int(self.size[i]) - header_len,
            capture_ts=float(self.capture_ts[i]),
            header_len=header_len,
        )


def parse_rtp(payload: bytes, capture_ts: float) -> RtpPacket:
    """Decode one RTP packet from UDP payload bytes.

    ``header_len`` covers the fixed header plus CSRC list and, when the
    X bit is set, the full header extension; ``payload_len`` is whatever
    remains after it.
    """
    if len(payload) < _FIXED_LEN:
        raise TooShort(f"RTP needs >= {_FIXED_LEN} bytes, got {len(payload)}")
    b0 = payload[0]
    version = b0 >> 6
    if version != 2:
        raise BadVersion(f"RTP version must be 2, got {version}")
    cc = b0 & 0x0F
    has_ext = bool(b0 & 0x10)
    pt = payload[1] & 0x7F
    seq, rtp_ts, ssrc = struct.unpack(">HII", payload[2:12])
    header_len = _FIXED_LEN + 4 * cc
    if len(payload) < header_len:
        raise TooShort("CSRC list extends past end of packet")
    if has_ext:
        if len(payload) < header_len + 4:
            raise TooShort("extension header cut short")
        (_profile, ext_words) = struct.unpack(
            ">HH", payload[header_len : header_len + 4]
        )
        header_len += 4 + 4 * ext_words
        if len(payload) < header_len:
            raise TooShort("extension body extends past end of packet")
    return RtpPacket(
        version=version,
        payload_type=pt,
        seq=seq,
        rtp_ts=rtp_ts,
        ssrc=ssrc,
        payload_len=len(payload) - header_len,
        capture_ts=capture_ts,
        header_len=header_len,
    )


def rtp_header_columns(u8: np.ndarray, pos: np.ndarray, length: np.ndarray):
    """Decode the RTP headers of version-2 payloads at ``pos`` in ``u8``.

    A payload decodes when its ``length`` holds the whole header, as in
    ``parse_rtp``: 12 + 4 CC bytes, and 4 + 4 length-word bytes if X.
    Returns (ok, seq, rtp_ts, ssrc, payload_type, header_len): the mask
    of payloads that decode, and their fields.
    """
    idx = np.flatnonzero(length >= _FIXED_LEN)
    at, size = pos[idx], length[idx]
    head = read_uint(u8, at, 8)  # V P X CC, M PT, seq, timestamp
    ssrc = read_uint(u8, at + 8, 4)
    header_len = _FIXED_LEN + 4 * (head >> 56 & 0x0F).astype(np.int64)
    ext = (head >> 60 & 1) == 1
    fits = size >= header_len + 4 * ext  # CSRC list, extension header
    ext &= fits
    words = read_uint(u8, at[ext] + header_len[ext] + 2, 2)
    header_len[ext] += 4 + 4 * words.astype(np.int64)
    fits &= size >= header_len  # extension body
    ok = np.zeros(len(pos), dtype=bool)
    ok[idx[fits]] = True
    head = head[fits]
    # a cast to a narrower unsigned type keeps the low bits
    return (ok, (head >> 32).astype(np.uint16), head.astype(np.uint32),
            ssrc[fits], (head >> 48).astype(np.uint8) & 0x7F,
            header_len[fits])


def encode_rtp(
    payload_type: int, seq: int, rtp_ts: int, ssrc: int, media: bytes
) -> bytes:
    """Build a minimal RTP packet (no CSRC, no extension, marker clear)."""
    if not 0 <= payload_type <= 127:
        raise DomainError(f"payload type {payload_type} outside 0..127")
    return (
        struct.pack(
            ">BBHII", 0x80, payload_type, seq & 0xFFFF, rtp_ts & 0xFFFFFFFF, ssrc
        )
        + media
    )
