"""Capture-file reading and writing: classic pcap and line-delimited JSON.

The pcap side is bit-exact for the classic format: 24-byte global header
(either byte order, microsecond or nanosecond timestamps, dispatched on
the magic), 16-byte record headers with separate second/fraction fields,
and Ethernet or raw-IPv4 link types; any other link type is refused.
Only UDP packets become records; everything else is skipped, because
all three protocols of interest ride UDP here.

Decoding is columnar. The walk over record headers is the only
per-record Python loop; the link, IPv4 and UDP checks then run once over
numpy columns, and the result is a ``Capture``: timestamps, uint32
addresses, ports, and each payload's offset and length into the
unchanged input buffer. ``Table`` is the one protocol of the ingest
column tables, Capture, RtpStream and XrBlocks: each reads as a
sequence of its row dataclass (for a Capture, PacketRecord), built on
demand, slices as a view, and ``from_rows`` builds it from such rows.

The jsonl side is the human-writable twin used for diffable fixtures:
one JSON object per line with keys ts, src, dst, sport, dport, proto,
payload_hex.
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import (
    BadMagic,
    BadRecord,
    DomainError,
    Truncated,
    UnsupportedLinkType,
)

MAGIC = 0xA1B2C3D4
MAGIC_NS = 0xA1B23C4D  # nanosecond-resolution timestamps
_SWAPPED, _SWAPPED_NS = 0xD4C3B2A1, 0x4D3CB2A1
LINKTYPE_ETHERNET = 1
LINKTYPE_RAW_IPV4 = 101
#: the IPv4 total length is 16 bits, and covers the IP and UDP headers
_MAX_UDP_PAYLOAD = 0xFFFF - 20 - 8
#: the longest frame ``write_pcap`` emits: Ethernet, IPv4 and UDP headers
#: and the payload; its snaplen, since a record's length may not exceed it
_MAX_FRAME = 14 + 20 + 8 + _MAX_UDP_PAYLOAD


@dataclass(frozen=True)
class PacketRecord:
    """One captured UDP packet."""

    ts: float  # seconds since epoch
    src_addr: str
    dst_addr: str
    src_port: int
    dst_port: int
    transport: str  # always "udp" for records produced here
    payload: bytes

    def __post_init__(self) -> None:
        if not (self.ts >= 0.0 and math.isfinite(self.ts)):
            raise DomainError(
                f"capture timestamp must be finite and >= 0, got {self.ts}")
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 65535:
                raise DomainError(f"port {port} outside 0..65535")


class Table(Sequence):
    """Rows held as equally long, read-only numpy columns.

    A subclass declares its columns and their dtypes in ``_COLUMNS``,
    and the attributes its rows share, which slicing leaves whole, in
    ``_SHARED``. It builds row i with ``_row(i)``, and the columns of a
    row sequence, as keyword arguments, with ``_columns_of(rows)``.
    Indexing builds a row, a slice is a table viewing the same columns,
    and a table equals any sequence holding the same rows in order.
    """

    _SHARED: tuple[str, ...] = ()
    _COLUMNS: tuple = ()
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        """The shared attributes, then the columns, by position or name."""
        names = self._SHARED + tuple(name for name, _ in self._COLUMNS)
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(
                f"{type(self).__name__} takes {', '.join(names)}; got "
                f"{len(args)} positional and {sorted(kwargs)} by name")
        for name in self._SHARED:
            setattr(self, name, values[name])
        for name, dtype in self._COLUMNS:
            column = np.asarray(values[name], dtype=dtype)
            column.setflags(write=False)
            setattr(self, name, column)

    @classmethod
    def from_rows(cls, rows):
        """The table of a row sequence; a table of this type comes back."""
        if isinstance(rows, cls):
            return rows
        return cls(**cls._columns_of(list(rows)))

    def take(self, rows):
        """The rows at the given positions, or a view of the given slice."""
        if not isinstance(rows, slice):
            rows = np.asarray(rows, dtype=np.int64)
        return type(self)(
            *(getattr(self, name) for name in self._SHARED),
            *(getattr(self, name)[rows] for name, _ in self._COLUMNS),
        )

    def __len__(self) -> int:
        return len(getattr(self, self._COLUMNS[0][0]))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(i)
        return self._row(range(len(self))[i])  # IndexError past either end

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other)
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} rows)"


class Capture(Table):
    """UDP packet records as columns over one payload buffer.

    Row i is a packet captured at ``ts[i]`` (float64 seconds) from
    ``src[i]:sport[i]`` to ``dst[i]:dport[i]`` (uint32 IPv4 addresses,
    uint16 ports); its UDP payload is ``buf[offset[i]:offset[i] +
    length[i]]``, and the row is a PacketRecord.
    """

    _SHARED = ("buf",)
    _COLUMNS = (("ts", np.float64), ("src", np.uint32), ("dst", np.uint32),
                ("sport", np.uint16), ("dport", np.uint16),
                ("offset", np.int64), ("length", np.int64))
    __slots__ = _SHARED + tuple(name for name, _ in _COLUMNS)

    @staticmethod
    def _columns_of(records) -> dict:
        length = np.array([len(r.payload) for r in records], dtype=np.int64)
        return dict(
            buf=b"".join(r.payload for r in records),
            ts=[r.ts for r in records],
            src=[_ipv4_int(r.src_addr) for r in records],
            dst=[_ipv4_int(r.dst_addr) for r in records],
            sport=[r.src_port for r in records],
            dport=[r.dst_port for r in records],
            offset=np.cumsum(length) - length,
            length=length,
        )

    @classmethod
    def concat(cls, captures: list[Capture]) -> Capture:
        """One Capture holding the rows of each, in order."""
        if len(captures) == 1:
            return captures[0]
        shift = np.cumsum([0] + [len(c.buf) for c in captures[:-1]]).tolist()
        columns = {name: np.concatenate([getattr(c, name) for c in captures])
                   for name, _ in cls._COLUMNS if name != "offset"}
        offset = np.concatenate([c.offset + k for c, k in zip(captures, shift)])
        return cls(b"".join(c.buf for c in captures), offset=offset, **columns)

    def payload(self, i: int) -> bytes:
        start = int(self.offset[i])
        return bytes(self.buf[start:start + int(self.length[i])])

    def _row(self, i: int) -> PacketRecord:
        return PacketRecord(
            ts=float(self.ts[i]),
            src_addr=_dotted(int(self.src[i])),
            dst_addr=_dotted(int(self.dst[i])),
            src_port=int(self.sport[i]),
            dst_port=int(self.dport[i]),
            transport="udp",
            payload=self.payload(i),
        )


def _ipv4_int(addr: str) -> int:
    return int.from_bytes(_ipv4(addr), "big")


def _dotted(addr: int) -> str:
    return ".".join(str(b) for b in addr.to_bytes(4, "big"))


def _split_ts(ts: float) -> tuple[int, int]:
    sec = int(ts)
    usec = int(round((ts - sec) * 1e6))
    if usec >= 1_000_000:  # rounding carry at the second boundary
        sec += 1
        usec -= 1_000_000
    return sec, usec


def _ipv4(addr: str) -> bytes:
    parts = addr.split(".")
    try:
        if len(parts) == 4:
            return bytes(int(p) for p in parts)
    except ValueError:
        pass
    raise DomainError(f"address {addr!r} is not dotted-quad IPv4")


def _checksum(header: bytes) -> int:
    total = sum(struct.unpack(f">{len(header) // 2}H", header))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _build_frame(rec: PacketRecord) -> bytes:
    udp_len = 8 + len(rec.payload)
    udp = struct.pack(">HHHH", rec.src_port, rec.dst_port, udp_len, 0) + rec.payload
    ip_len = 20 + udp_len
    ip_wo_csum = struct.pack(
        ">BBHHHBBH4s4s",
        0x45, 0, ip_len, 0, 0, 64, 17, 0,
        _ipv4(rec.src_addr), _ipv4(rec.dst_addr),
    )
    ip = ip_wo_csum[:10] + struct.pack(">H", _checksum(ip_wo_csum)) + ip_wo_csum[12:]
    eth = b"\x02\x00\x00\x00\x00\x02" + b"\x02\x00\x00\x00\x00\x01" + b"\x08\x00"
    return eth + ip + udp


def gather(u8: np.ndarray, pos: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """The ``dtype`` values at byte positions ``pos`` of ``u8``.

    One gather through a view of ``u8`` as raw records starting at every
    byte (stride 1), so each value is read in one pass over the buffer.
    """
    raw = np.ndarray((max(len(u8) - dtype.itemsize + 1, 0),),
                     f"V{dtype.itemsize}", buffer=u8, strides=(1,))
    return raw[pos].view(dtype)


def read_uint(u8: np.ndarray, pos: np.ndarray, width: int, big: bool = True):
    """Unsigned ``width``-byte integers at byte positions ``pos`` of ``u8``."""
    dtype = np.dtype(f"{'>' if big else '<'}u{width}")
    return gather(u8, pos, dtype).astype(dtype.newbyteorder("="))


def struct_dtype(layout: struct.Struct, names) -> np.dtype:
    """The record of the big-endian ``layout``, its fields ``names``."""
    types = {"I": ">u4", "H": ">u2", "B": "u1", "b": "i1"}
    return np.dtype([(name, types[code])
                     for name, code in zip(names, layout.format[1:], strict=True)])


def field_ranges(dtype: np.dtype) -> tuple:
    """``(name, low, high, "unsigned N-bit")`` of each field of a record
    ``dtype`` of integers."""
    return tuple(
        (name, int(info.min), int(info.max),
         f"{'signed' if info.min else 'unsigned'} {info.bits}-bit")
        for name in dtype.names
        for info in [np.iinfo(dtype[name])]
    )


def check_ranges(ranges: tuple, values) -> None:
    """DomainError naming the first of ``values`` outside its range, the
    ranges as :func:`field_ranges` gives them."""
    for (name, low, high, width), v in zip(ranges, values, strict=True):
        if not low <= v <= high:
            raise DomainError(f"{name}={v} outside {width} range")


def _record_heads(data, endian: str) -> np.ndarray:
    """Offsets of every record header; the one per-record Python loop."""
    incl_len = struct.Struct(endian + "I").unpack_from
    end = len(data)
    heads = []
    off = 24
    while off + 16 <= end:
        heads.append(off)
        off += 16 + incl_len(data, off + 8)[0]
    if off > end:
        raise Truncated("record body extends past end of file")
    if off < end:
        raise Truncated("record header cut short")
    return np.array(heads, dtype=np.int64)


def _udp_columns(data, u8, heads, link: int, big: bool, ticks: float
                 ) -> Capture:
    """Decode the record at each of ``heads`` as link header + IPv4/UDP.

    A record is kept when, after ``link`` bytes of link header, it holds
    IPv4 with a valid IHL, carries UDP, is not a non-first fragment
    (whose bytes after the IP header are not a UDP header, RFC 791), and
    holds the IP and UDP headers. The payload runs to the UDP length,
    clipped to the captured bytes.
    """
    avail = read_uint(u8, heads + 8, 4, big).astype(np.int64) - link
    keep = avail >= 20
    heads, avail = heads[keep], avail[keep]
    ip = heads + (16 + link)
    first = u8[ip]
    ihl = (first & 0x0F).astype(np.int64) * 4
    keep = (
        (first >> 4 == 4)
        & (ihl >= 20)
        & (avail >= ihl + 8)
        & (u8[ip + 9] == 17)
        & (read_uint(u8, ip + 6, 2) & 0x1FFF == 0)
    )
    heads, ip, avail, ihl = heads[keep], ip[keep], avail[keep], ihl[keep]
    udp = ip + ihl
    udp_len = read_uint(u8, udp + 4, 2).astype(np.int64)
    sec, frac = read_uint(u8, heads, 4, big), read_uint(u8, heads + 4, 4, big)
    return Capture(
        data,
        sec + frac / ticks,  # division is correctly rounded, * 1e-6 is not
        src=read_uint(u8, ip + 12, 4), dst=read_uint(u8, ip + 16, 4),
        sport=read_uint(u8, udp, 2), dport=read_uint(u8, udp + 2, 2),
        offset=udp + 8,
        length=np.minimum(np.maximum(udp_len, 8), avail - ihl) - 8,
    )


def parse_pcap(data) -> Capture:
    """Decode a classic capture file into UDP packet records, in order.

    Raises BadMagic when the first four bytes are not the classic magic
    (microsecond or nanosecond timestamps) in either byte order,
    UnsupportedLinkType when the link type is neither Ethernet nor raw
    IPv4, and Truncated when a record header or body extends past the
    end of the input. The returned Capture views ``data`` without
    copying it.
    """
    if len(data) < 4:
        raise BadMagic("input shorter than a capture magic")
    (magic_le,) = struct.unpack_from("<I", data)
    if magic_le in (MAGIC, MAGIC_NS):
        endian = "<"
    elif magic_le in (_SWAPPED, _SWAPPED_NS):
        endian = ">"
    else:
        raise BadMagic(f"not a classic capture file (magic {magic_le:#010x})")
    ticks = 1e9 if magic_le in (MAGIC_NS, _SWAPPED_NS) else 1e6
    if len(data) < 24:
        raise Truncated("global header cut short")
    (linktype,) = struct.unpack_from(endian + "I", data, 20)
    if linktype not in (LINKTYPE_ETHERNET, LINKTYPE_RAW_IPV4):
        raise UnsupportedLinkType(
            f"link type {linktype} is not supported; supported are "
            f"{LINKTYPE_ETHERNET} (Ethernet) and {LINKTYPE_RAW_IPV4} (raw IPv4)"
        )

    heads = _record_heads(data, endian)
    u8 = np.frombuffer(data, dtype=np.uint8)
    big = endian == ">"
    link = 0
    if linktype == LINKTYPE_ETHERNET:
        link = 14
        heads = heads[read_uint(u8, heads + 8, 4, big) >= link]
        heads = heads[read_uint(u8, heads + 28, 2) == 0x0800]  # IPv4
    return _udp_columns(data, u8, heads, link, big, ticks)


def write_pcap(records: list[PacketRecord]) -> bytes:
    """Encode records as a little-endian classic capture file (Ethernet).

    DomainError names the first record whose payload or time does not fit.
    """
    out = [struct.pack("<IHHiIII", MAGIC, 2, 4, 0, 0, _MAX_FRAME,
                       LINKTYPE_ETHERNET)]
    for i, rec in enumerate(records):
        if len(rec.payload) > _MAX_UDP_PAYLOAD:
            raise DomainError(f"record {i}: {len(rec.payload)}-byte payload "
                              f"exceeds IPv4's {_MAX_UDP_PAYLOAD}")
        sec, usec = _split_ts(rec.ts)
        if sec > 0xFFFFFFFF:
            raise DomainError(f"record {i}: time {rec.ts!r} s is past the "
                              "32-bit seconds of a pcap record")
        frame = _build_frame(rec)
        out.append(struct.pack("<IIII", sec, usec, len(frame), len(frame)))
        out.append(frame)
    return b"".join(out)


_JSONL_KEYS = ("ts", "src", "dst", "sport", "dport", "proto", "payload_hex")


def parse_jsonl(text: str) -> Capture:
    """Decode the line-delimited JSON record format; blank lines skipped.

    Addresses must be dotted-quad IPv4, as in a decoded pcap.
    """
    records: list[PacketRecord] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise BadRecord(f"line {lineno}: not valid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise BadRecord(f"line {lineno}: expected a JSON object")
        missing = [k for k in _JSONL_KEYS if k not in obj]
        if missing:
            raise BadRecord(f"line {lineno}: missing keys {missing}")
        if obj["proto"] != "udp":
            continue
        try:
            payload = bytes.fromhex(obj["payload_hex"])
        except ValueError as exc:
            raise BadRecord(f"line {lineno}: payload_hex is not hex") from exc
        try:
            for addr in (obj["src"], obj["dst"]):
                _ipv4(str(addr))  # a Capture holds IPv4 addresses
            records.append(
                PacketRecord(
                    ts=float(obj["ts"]),
                    src_addr=str(obj["src"]),
                    dst_addr=str(obj["dst"]),
                    src_port=int(obj["sport"]),
                    dst_port=int(obj["dport"]),
                    transport="udp",
                    payload=payload,
                )
            )
        except (TypeError, ValueError, DomainError) as exc:
            raise BadRecord(f"line {lineno}: {exc}") from exc
    return Capture.from_rows(records)


def write_jsonl(records: list[PacketRecord]) -> str:
    lines = []
    for rec in records:
        lines.append(
            json.dumps(
                {
                    "ts": rec.ts,
                    "src": rec.src_addr,
                    "dst": rec.dst_addr,
                    "sport": rec.src_port,
                    "dport": rec.dst_port,
                    "proto": rec.transport,
                    "payload_hex": rec.payload.hex(),
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
