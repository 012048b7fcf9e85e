"""RTP headers decoded one by one or in columns, encoding, and the
RtpStream table of RtpPacket rows; the one module that knows the RTP
wire layout, declared once in ``_HEADER`` and ``_EXT``: both decoders,
the encoder, the column types and the range checks derive from them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..errors import BadVersion, DomainError, TooShort
from .capture import Table, check_ranges, field_ranges, gather, struct_dtype

#: V P X CC | M PT | sequence number | timestamp | SSRC (RFC 3550 5.1)
_HEADER = struct.Struct(">BBHII")
_HEADER_DTYPE = struct_dtype(_HEADER, ("v_p_x_cc", "m_pt", "seq", "rtp_ts", "ssrc"))
#: profile-defined | length in 32-bit words (RFC 3550 5.3.1)
_EXT = struct.Struct(">HH")
_EXT_DTYPE = struct_dtype(_EXT, ("profile", "words"))
#: the range of each field a packet checks
_RANGES = (("payload_type", 0, 0x7F, "unsigned 7-bit"),
           *field_ranges(_HEADER_DTYPE[["seq", "rtp_ts", "ssrc"]]))


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
        check_ranges(_RANGES, (self.payload_type, self.seq, self.rtp_ts,
                               self.ssrc))
        if self.payload_len < 0 or self.header_len < _HEADER.size:
            raise DomainError("negative payload length or impossible header length")


class RtpStream(Table):
    """RTP packets as columns, one row per packet.

    ``seq`` (uint16), ``rtp_ts`` and ``ssrc`` (uint32), ``payload_type``
    (uint8), ``capture_ts`` (float64 seconds), ``size`` (header plus
    payload bytes) and ``header_len``. A row is an RtpPacket.
    """

    _COLUMNS = (*((name, _HEADER_DTYPE[name].newbyteorder("="))
                  for name in ("seq", "rtp_ts", "ssrc")),
                ("payload_type", _HEADER_DTYPE["m_pt"]),
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
    if len(payload) < _HEADER.size:
        raise TooShort(f"RTP needs >= {_HEADER.size} bytes, got {len(payload)}")
    v_p_x_cc, m_pt, seq, rtp_ts, ssrc = _HEADER.unpack_from(payload)
    version = v_p_x_cc >> 6
    if version != 2:
        raise BadVersion(f"RTP version must be 2, got {version}")
    header_len = _HEADER.size + 4 * (v_p_x_cc & 0x0F)
    if len(payload) < header_len:
        raise TooShort("CSRC list extends past end of packet")
    if v_p_x_cc & 0x10:
        if len(payload) < header_len + _EXT.size:
            raise TooShort("extension header cut short")
        _profile, words = _EXT.unpack_from(payload, header_len)
        header_len += _EXT.size + 4 * words
        if len(payload) < header_len:
            raise TooShort("extension body extends past end of packet")
    return RtpPacket(
        version=version,
        payload_type=m_pt & 0x7F,
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
    ``parse_rtp``: the fixed header and 4 CC bytes, and the extension
    header and its 4 length-word bytes if X. Returns (ok, seq, rtp_ts,
    ssrc, payload_type, header_len): the mask of payloads that decode,
    and their fields, typed as ``RtpStream``'s columns.
    """
    idx = np.flatnonzero(length >= _HEADER.size)
    at, size = pos[idx], length[idx]
    head = gather(u8, at, _HEADER_DTYPE)
    first = head["v_p_x_cc"]
    header_len = _HEADER.size + 4 * (first & 0x0F).astype(np.int64)
    ext = (first & 0x10) != 0
    fits = size >= header_len + _EXT.size * ext  # CSRC list, extension header
    ext &= fits
    words = gather(u8, at[ext] + header_len[ext], _EXT_DTYPE)["words"]
    header_len[ext] += _EXT.size + 4 * words.astype(np.int64)
    fits &= size >= header_len  # extension body
    ok = np.zeros(len(pos), dtype=bool)
    ok[idx[fits]] = True
    return (ok, *(head[name][fits].astype(dtype)
                  for name, dtype in RtpStream._COLUMNS[:3]),
            head["m_pt"][fits] & 0x7F, header_len[fits])


def encode_rtp(
    payload_type: int, seq: int, rtp_ts: int, ssrc: int, media: bytes
) -> bytes:
    """Build a minimal RTP packet (no CSRC, no extension, marker clear).

    ``seq`` and ``rtp_ts`` wrap to their 16 and 32 bits; DomainError for
    a payload type or ``ssrc`` the header cannot carry.
    """
    fields = (payload_type, seq & 0xFFFF, rtp_ts & 0xFFFFFFFF, ssrc)
    check_ranges(_RANGES, fields)
    return _HEADER.pack(0x80, *fields) + media
