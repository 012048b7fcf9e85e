"""Assemble packet records into bidirectional call sessions.

Classification is structural: payloads whose first byte carries protocol
version 2 are RTP or RTCP (told apart by the RTCP packet-type range in
the second byte), anything else is offered to the SIP parser. RTP
streams are grouped by (ssrc, 5-tuple), SIP messages by Call-ID.

The work is columnar. Every record is classified at once, and every RTP
header, CSRC list and extension included, is decoded in columns by
``rtp_header_columns``: no RTP packet is parsed on its own. One sort
on (ssrc, 5-tuple, capture time) groups the streams, orders each by
capture time and finds the repeated capture times. Each stream comes
out as an RtpStream, a column table (``capture.Table``) like the
Capture. The VoIP Metrics blocks of every RTCP payload are decoded in
columns too, by ``xr_block_columns``; after binding, one sort on
(session, report time) orders them into one XrBlocks table, of which
each session gets a slice. Only SIP payloads are parsed one by one.

Binding precedence, each step through a lookup built once:
- dialogs, in start order, claim the unbound streams on their SDP audio
  endpoints (first seen first) and keep one forward and one reverse
  each. An endpoint is the (address, port) of the SDP ``c=`` and
  ``m=audio`` lines; without a usable IPv4 address (none, not IPv4, or
  0.0.0.0) the port alone matches;
- leftover streams pair by mirrored endpoints into RTP-only sessions;
- an XR packet binds to the first session, in that binding order, that
  owns a reported source SSRC, else to the first dialog that has one of
  the packet's endpoints as an SDP endpoint, at its port or port + 1
  (same address rule).

Tie rule: within one stream, an RTP packet whose capture time equals
that of an earlier packet (in capture-file order) is set aside, and the
earlier one stays. This covers span-port duplicates, and it keeps every
stream's capture times strictly increasing, which the metric series
need.

Nothing is dropped silently: unclassifiable or unbindable packets, and
the packets the tie rule sets aside, come back in the residue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import DomainError, MissingHeader, NotSip
from .capture import Capture, _ipv4_int
from .codecs import CODECS, load_codec_map
from .rtcp_xr import XrBlocks, xr_block_columns
from .rtcp_xr import parse_rtcp_xr  # noqa: F401 (unused; perfbench/tracer.py wraps it)
from .rtp import RtpStream, rtp_header_columns
from .rtp import parse_rtp  # noqa: F401 (unused; perfbench/tracer.py wraps it)
from .sip import SipMessage, parse_sip


@dataclass
class CallSession:
    session_id: str
    codec: str | None
    clock_rate: int | None
    rtp_fwd: RtpStream
    rtp_rev: RtpStream
    xr_blocks: XrBlocks  # in report-time order
    sip_dialog: list[SipMessage]

    @property
    def rtp_count(self) -> int:
        return len(self.rtp_fwd) + len(self.rtp_rev)


class AssemblyResult(NamedTuple):
    sessions: list[CallSession]
    residue: Capture  # reads as a list of PacketRecord


class _Stream(NamedTuple):
    key: tuple  # (ssrc, src, sport, dst, dport), addresses as uint32
    packets: RtpStream  # in capture-time order
    first_pt: int  # payload type of its first record in file order


_NO_RTP = RtpStream.from_rows([])
_NO_XR = XrBlocks.from_rows([])


def _stream_order(cap: Capture, rows: np.ndarray, ssrc: np.ndarray):
    """Sort RTP rows by (ssrc, 5-tuple, capture time), stably.

    Returns (order, new, tied): the sorting permutation and, along it,
    which rows open a stream and which repeat the capture time of the
    row before them in their stream. Stability puts the earlier record
    first among equal capture times.
    """
    hi = (ssrc.astype(np.uint64) << 32) | cap.src[rows]
    lo = ((cap.dst[rows].astype(np.uint64) << 32)
          | (cap.sport[rows].astype(np.uint64) << 16) | cap.dport[rows])
    ts = cap.ts[rows]
    order = np.lexsort((ts, lo, hi))
    hi, lo, ts = hi[order], lo[order], ts[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
    tied = ~new
    tied[1:] &= ts[1:] == ts[:-1]
    return order, new, tied


def _rtp_streams(cap: Capture, u8: np.ndarray, candidates: np.ndarray):
    """Group the RTP rows into streams; returns (streams, set-aside rows).

    Streams come in first-seen order: by the capture time of their first
    record in file order, then by that record's position. Rows whose
    header does not decode, and rows the tie rule sets aside, are
    returned.
    """
    rows = np.flatnonzero(candidates)
    ok, seq, rtp_ts, ssrc, pt, header_len = rtp_header_columns(
        u8, cap.offset[rows], cap.length[rows]
    )
    bad, rows = rows[~ok].tolist(), rows[ok]
    order, new, tied = _stream_order(cap, rows, ssrc)
    set_aside = bad + rows[order[tied]].tolist()
    keep = order[~tied]
    if not len(keep):
        return [], set_aside
    starts = np.flatnonzero(new[~tied])
    ends = np.append(starts[1:], len(keep))
    seq, rtp_ts, ssrc, pt_kept, header_len = (
        c[keep] for c in (seq, rtp_ts, ssrc, pt, header_len)
    )
    ts, size = cap.ts[rows[keep]], cap.length[rows[keep]]
    first = np.minimum.reduceat(keep, starts)  # earliest in file order
    first_ts = cap.ts[rows[first]]
    streams = []
    for s in np.lexsort((first, first_ts)).tolist():
        a, b, row = int(starts[s]), int(ends[s]), int(rows[first[s]])
        key = (int(ssrc[a]), int(cap.src[row]), int(cap.sport[row]),
               int(cap.dst[row]), int(cap.dport[row]))
        packets = RtpStream(seq[a:b], rtp_ts[a:b], ssrc[a:b], pt_kept[a:b],
                            ts[a:b], size[a:b], header_len[a:b])
        streams.append(_Stream(key, packets, int(pt[first[s]])))
    return streams, set_aside


def _endpoint(msg: SipMessage) -> tuple[int | None, int]:
    """(address, port) of the message's SDP audio stream.

    The address is None, so the port alone binds, when the SDP names no
    address, a non-IPv4 one, or 0.0.0.0.
    """
    try:
        addr = _ipv4_int(msg.media_addr) if msg.media_addr else 0
    except DomainError:
        addr = 0
    return addr or None, msg.media_port


def _ends(src: int, sport: int, dst: int, dport: int) -> tuple:
    """A packet's endpoints as lookup keys: (address, port), (None, port)."""
    return (src, sport), (None, sport), (dst, dport), (None, dport)


def _dialog_ends(dialog: list[SipMessage]) -> dict[str, tuple | None]:
    """Caller media endpoint (first INVITE SDP) and callee's (its 200)."""
    caller = callee = None
    invite_cseq = None
    for msg in dialog:
        if msg.kind == "request" and msg.method_or_status == "INVITE":
            if caller is None and msg.media_port is not None:
                caller = _endpoint(msg)
            if invite_cseq is None:
                invite_cseq = msg.cseq
        elif (
            msg.kind == "response"
            and msg.method_or_status == 200
            and msg.cseq_method == "INVITE"
            and (invite_cseq is None or msg.cseq == invite_cseq)
            and callee is None
            and msg.media_port is not None
        ):
            callee = _endpoint(msg)
    return {"caller": caller, "callee": callee}


def assemble_sessions(records, payload_type_map: dict[int, str] | None = None
                      ) -> AssemblyResult:
    """Group records into call sessions: a Capture, or PacketRecords,
    which ``Capture.from_rows`` turns into one.

    ``payload_type_map`` names the codec of each RTP payload type
    (default: the static types). See the module docstring.
    """
    pt_map = load_codec_map() if payload_type_map is None else payload_type_map
    cap = Capture.from_rows(records)
    u8 = np.frombuffer(cap.buf, dtype=np.uint8)

    # the first two payload bytes of every row that has them
    two = cap.length >= 2
    first, second = np.zeros((2, len(cap)), dtype=np.uint8)
    at = cap.offset[two]
    first[two], second[two] = u8[at], u8[at + 1]
    version2 = two & (first >> 6 == 2)
    rtcp = version2 & (second >= 200) & (second <= 207)

    ordered_streams, residue = _rtp_streams(cap, u8, version2 & ~rtcp)
    dialogs: dict[str, list[SipMessage]] = {}
    for i in np.flatnonzero(~version2).tolist():
        try:
            msg = parse_sip(cap.payload(i), float(cap.ts[i]))
        except (NotSip, MissingHeader):
            residue.append(i)
            continue
        dialogs.setdefault(msg.call_id, []).append(msg)
    rtcp_rows = np.flatnonzero(rtcp)
    ok, xr_row, xr_body = xr_block_columns(
        u8, cap.offset[rtcp_rows], cap.length[rtcp_rows]
    )
    # unparsable, or RTCP without VoIP metrics
    residue += rtcp_rows[~ok].tolist()
    residue.sort()

    for dialog in dialogs.values():
        dialog.sort(key=lambda m: m.capture_ts)
    # stream positions in first-seen order, by either endpoint, as
    # (address, port) and as (None, port)
    by_end: dict[tuple, list[int]] = {}
    for i, s in enumerate(ordered_streams):
        for end in _ends(*s.key[1:]):
            by_end.setdefault(end, []).append(i)

    sessions: list[CallSession] = []
    bound: set[tuple] = set()
    # SDP (address, port) and (address, port + 1) -> position of the
    # first session declaring it
    xr_by_end: dict[tuple, int] = {}

    # dialog-bound sessions, in dialog start order
    for call_id, dialog in sorted(
        dialogs.items(), key=lambda kv: kv[1][0].capture_ts
    ):
        ends = _dialog_ends(dialog)
        end_set = {v for v in ends.values() if v is not None}
        hits = {i for end in end_set for i in by_end.get(end, ())}
        mine = [ordered_streams[i] for i in sorted(hits)]
        mine = [s for s in mine if s.key not in bound]
        fwd, rev = _pick_directions(mine, ends)
        bound.update(s.key for s in (fwd, rev) if s is not None)
        for addr, port in end_set:
            xr_by_end.setdefault((addr, port), len(sessions))
            xr_by_end.setdefault((addr, port + 1), len(sessions))
        sessions.append(_build_session(call_id, fwd, rev, dialog, pt_map))
        # streams that matched the endpoints but lost the direction contest
        # stay unbound and fall through to rtp-only grouping below

    # RTP-only sessions from leftover streams, paired by mirrored endpoints
    leftovers = [s for s in ordered_streams if s.key not in bound]
    by_ends: dict[tuple, list[_Stream]] = {}
    for s in leftovers:
        by_ends.setdefault(s.key[1:], []).append(s)
    used: set[tuple] = set()
    for s in leftovers:
        if s.key in used:
            continue
        used.add(s.key)
        ssrc, src, sport, dst, dport = s.key
        mirror = next(
            (o for o in by_ends.get((dst, dport, src, sport), ())
             if o.key not in used),
            None,
        )
        if mirror is not None:
            used.add(mirror.key)
        sessions.append(_build_session(f"rtp-{ssrc:08x}", s, mirror, [], pt_map))

    residue += _bind_xr(sessions, cap, rtcp_rows[xr_row], xr_body, xr_by_end)
    sessions.sort(key=_session_start)
    return AssemblyResult(sessions, cap.take(residue))


def _bind_xr(sessions: list[CallSession], cap: Capture, rows: np.ndarray,
             body: np.ndarray, xr_by_end: dict[tuple, int]) -> list[int]:
    """Give each session its XR blocks; returns the unbound packets' rows.

    ``rows`` and ``body`` are the capture row and the wire fields of each
    block, in capture then wire order. A packet binds to the session
    owning a reported source SSRC, else by endpoint: RTCP rides the SDP
    media address and port, or port + 1. Among several, the first
    session in binding order wins. One stable sort on (session, report
    time) orders the blocks, and each session gets a slice of that table.
    """
    nobody = len(sessions)
    xr_by_ssrc: dict[int, int] = {}
    for pos, session in enumerate(sessions):
        for stream in (session.rtp_fwd, session.rtp_rev):
            if stream:
                xr_by_ssrc.setdefault(int(stream.ssrc[0]), pos)
    owner = np.array([xr_by_ssrc.get(ssrc, nobody)
                      for ssrc in body["source_ssrc"].tolist()],
                     dtype=np.int64)
    # each packet's blocks are adjacent; take the first session of each
    first = np.flatnonzero(np.diff(rows, prepend=-1))
    packet_owner = np.minimum.reduceat(owner, first) if len(first) else owner
    for k in np.flatnonzero(packet_owner == nobody).tolist():
        i = int(rows[first[k]])
        ends = _ends(int(cap.src[i]), int(cap.sport[i]),
                     int(cap.dst[i]), int(cap.dport[i]))
        packet_owner[k] = min((xr_by_end[end] for end in ends
                               if end in xr_by_end), default=nobody)

    owner = np.repeat(packet_owner, np.diff(first, append=len(rows)))
    report_ts = cap.ts[rows]
    order = np.lexsort((report_ts, owner))
    order = order[owner[order] < nobody]
    table = XrBlocks(*(body[name][order] for name in body.dtype.names),
                     report_ts[order])
    bounds = np.searchsorted(owner[order], np.arange(nobody + 1)).tolist()
    for session, a, b in zip(sessions, bounds, bounds[1:]):
        if b > a:
            session.xr_blocks = table[a:b]
    return rows[first[packet_owner == nobody]].tolist()


def _session_start(s: CallSession) -> float:
    firsts = [float(x.capture_ts[0]) for x in (s.rtp_fwd, s.rtp_rev) if len(x)]
    firsts += [m.capture_ts for m in s.sip_dialog[:1]]
    return min(firsts, default=0.0)


def _sent_to(s: _Stream, end: tuple | None) -> bool:
    if end is None:
        return False
    addr, port = end
    return s.key[4] == port and addr in (None, s.key[3])


def _pick_directions(mine: list[_Stream], ends: dict):
    """Choose forward (caller->callee) and reverse streams.

    The stream sent TO the callee's endpoint is the caller's (forward);
    the one sent to the caller's endpoint is reverse. Without SDP
    information, first-seen is forward.
    """
    fwd = rev = None
    for s in mine:
        if fwd is None and _sent_to(s, ends["callee"]):
            fwd = s
        elif rev is None and _sent_to(s, ends["caller"]):
            rev = s
    for s in mine:
        if s is fwd or s is rev:
            continue
        if fwd is None:
            fwd = s
        elif rev is None:
            rev = s
    return fwd, rev


def _build_session(
    session_id: str,
    fwd: _Stream | None,
    rev: _Stream | None,
    dialog: list[SipMessage],
    pt_map: dict[int, str],
) -> CallSession:
    codec = clock_rate = None
    lead = fwd or rev
    if lead is not None:
        name = pt_map.get(lead.first_pt)
        if name is not None:
            codec = name
            clock_rate = CODECS[name].clock_rate
    return CallSession(
        session_id=session_id,
        codec=codec,
        clock_rate=clock_rate,
        rtp_fwd=fwd.packets if fwd else _NO_RTP,
        rtp_rev=rev.packets if rev else _NO_RTP,
        xr_blocks=_NO_XR,
        sip_dialog=dialog,
    )
