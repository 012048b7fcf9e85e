"""Session assembly as it stood before the indexed rewrite.

A verbatim copy of ``assemble_sessions`` and its helpers from the
scan-based implementation (every dialog scans every stream, mirror
pairing is a nested loop, and each XR packet walks every session). The
tests compare the indexed version against it record list by record list.
Only the imports and two rules differ. The result types come from the
package, so the two outputs compare equal field by field. The duplicate
test marks a packet by its capture time alone, not by (seq, capture
time), which is the package's tie rule: a later packet of a stream with
an earlier packet's capture time is residue. And an SDP endpoint is the
(address, port) of the ``c=`` and ``m=audio`` lines, the package's
binding rule, wherever the copy matched ports alone: dialogs claiming
streams, the direction contest and the XR fallback (``_sdp_end`` and
``_at``). Without a usable IPv4 address (none, not IPv4, or 0.0.0.0)
the port alone matches, as before.
"""

from __future__ import annotations

import ipaddress
from typing import NamedTuple

from voipqos.errors import (
    BadVersion,
    DomainError,
    MissingHeader,
    NotSip,
    TooShort,
    Truncated,
)
from voipqos.ingest.capture import PacketRecord
from voipqos.ingest.codecs import CODECS
from voipqos.ingest.rtcp_xr import VoipMetricsBlock, parse_rtcp_xr
from voipqos.ingest.rtp import RtpPacket, parse_rtp
from voipqos.ingest.sessions import AssemblyResult, CallSession
from voipqos.ingest.sip import SipMessage, parse_sip


class _Stream(NamedTuple):
    key: tuple
    packets: list[RtpPacket]
    record: PacketRecord  # representative packet for endpoint info
    seen: set[float]  # capture_ts of every packet


def _classify(rec: PacketRecord):
    """Return ("rtp", RtpPacket) | ("xr", blocks) | ("sip", msg) | None."""
    p = rec.payload
    if len(p) >= 2 and p[0] >> 6 == 2:
        if 200 <= p[1] <= 207:
            try:
                return "xr", parse_rtcp_xr(p, rec.ts)
            except (Truncated, BadVersion, DomainError):
                return None
        try:
            return "rtp", parse_rtp(p, rec.ts)
        except (TooShort, BadVersion, DomainError):
            return None
    try:
        return "sip", parse_sip(p, rec.ts)
    except (NotSip, MissingHeader):
        return None


def _sdp_end(msg: SipMessage) -> tuple[str | None, int]:
    """(address, port) of the message's SDP audio stream; the address is
    None when it is no usable IPv4 address."""
    try:
        addr = ipaddress.IPv4Address(msg.media_addr or "")
    except ValueError:
        return None, msg.media_port
    return (str(addr) if int(addr) else None), msg.media_port


def _at(end: tuple | None, addr: str, port: int) -> bool:
    """Is (addr, port) the SDP endpoint ``end``?"""
    return end is not None and end[1] == port and end[0] in (None, addr)


def _dialog_ports(dialog: list[SipMessage]) -> dict[str, tuple | None]:
    """Caller media endpoint (first INVITE SDP) and callee's (its 200)."""
    caller = callee = None
    invite_cseq = None
    for msg in dialog:
        if msg.kind == "request" and msg.method_or_status == "INVITE":
            if caller is None and msg.media_port is not None:
                caller = _sdp_end(msg)
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
            callee = _sdp_end(msg)
    return {"caller": caller, "callee": callee}


def assemble_sessions(
    records: list[PacketRecord], payload_type_map: dict | None = None
) -> AssemblyResult:
    """Group records into call sessions; see the module docstring."""
    from voipqos.ingest.codecs import load_codec_map

    cfg = load_codec_map() if payload_type_map is None else payload_type_map

    dialogs: dict[str, list[SipMessage]] = {}
    streams: dict[tuple, _Stream] = {}
    xr_records: list[tuple[PacketRecord, list[VoipMetricsBlock]]] = []
    residue: list[PacketRecord] = []

    for rec in records:
        got = _classify(rec)
        if got is None:
            residue.append(rec)
            continue
        kind, obj = got
        if kind == "sip":
            dialogs.setdefault(obj.call_id, []).append(obj)
        elif kind == "rtp":
            key = (obj.ssrc, rec.src_addr, rec.src_port, rec.dst_addr, rec.dst_port)
            stream = streams.get(key)
            if stream is None:
                stream = streams[key] = _Stream(key, [], rec, set())
            mark = obj.capture_ts
            if mark in stream.seen:
                residue.append(rec)  # a duplicate of a captured packet
                continue
            stream.seen.add(mark)
            stream.packets.append(obj)
        else:  # xr
            if obj:
                xr_records.append((rec, obj))
            else:
                residue.append(rec)  # RTCP without VoIP metrics

    for dialog in dialogs.values():
        dialog.sort(key=lambda m: m.capture_ts)
    ordered_streams = sorted(
        streams.values(), key=lambda s: s.packets[0].capture_ts
    )

    sessions: list[CallSession] = []
    bound: set[tuple] = set()

    # dialog-bound sessions, in dialog start order
    for call_id, dialog in sorted(
        dialogs.items(), key=lambda kv: kv[1][0].capture_ts
    ):
        ports = _dialog_ports(dialog)
        port_set = {v for v in ports.values() if v is not None}
        mine = [
            s
            for s in ordered_streams
            if s.key not in bound
            and any(_at(end, s.record.dst_addr, s.record.dst_port)
                    or _at(end, s.record.src_addr, s.record.src_port)
                    for end in port_set)
        ]
        fwd, rev = _pick_directions(mine, ports)
        for s in mine:
            if s is fwd or s is rev:
                bound.add(s.key)
        sessions.append(
            _build_session(call_id, fwd, rev, dialog, cfg)
        )
        # streams that matched the ports but lost the direction contest
        # stay unbound and fall through to rtp-only grouping below

    # RTP-only sessions from leftover streams, paired by mirrored endpoints
    leftovers = [s for s in ordered_streams if s.key not in bound]
    used: set[tuple] = set()
    for s in leftovers:
        if s.key in used:
            continue
        used.add(s.key)
        _ssrc, src, sport, dst, dport = s.key
        mirror = None
        for other in leftovers:
            if other.key in used:
                continue
            _, osrc, osport, odst, odport = other.key
            if (osrc, osport, odst, odport) == (dst, dport, src, sport):
                mirror = other
                used.add(other.key)
                break
        session_id = f"rtp-{s.packets[0].ssrc:08x}"
        sessions.append(_build_session(session_id, s, mirror, [], cfg))

    # attach XR blocks to the session owning the reported stream
    for rec, blocks in xr_records:
        target = _find_xr_session(sessions, rec, blocks)
        if target is None:
            residue.append(rec)
        else:
            target.xr_blocks.extend(blocks)

    for session in sessions:
        session.xr_blocks.sort(key=lambda b: b.report_ts)
    sessions.sort(key=_session_start)
    return AssemblyResult(sessions, residue)


def _session_start(s: CallSession) -> float:
    times = []
    if s.sip_dialog:
        times.append(s.sip_dialog[0].capture_ts)
    if s.rtp_fwd:
        times.append(s.rtp_fwd[0].capture_ts)
    if s.rtp_rev:
        times.append(s.rtp_rev[0].capture_ts)
    return min(times) if times else 0.0


def _pick_directions(mine: list[_Stream], ports: dict):
    """Choose forward (caller->callee) and reverse streams.

    The stream sent TO the callee's port is the caller's (forward); the
    one sent to the caller's port is reverse. Without SDP information,
    first-seen is forward.
    """
    fwd = rev = None
    callee, caller = ports.get("callee"), ports.get("caller")
    for s in mine:
        if _at(callee, s.record.dst_addr, s.record.dst_port) and fwd is None:
            fwd = s
        elif _at(caller, s.record.dst_addr, s.record.dst_port) and rev is None:
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
    cfg: dict,
) -> CallSession:
    codec = clock_rate = None
    lead = fwd or rev
    if lead is not None:
        name = cfg.get(lead.packets[0].payload_type)
        if name is not None:
            codec = name
            clock_rate = CODECS[name].clock_rate
    return CallSession(
        session_id=session_id,
        codec=codec,
        clock_rate=clock_rate,
        rtp_fwd=sorted(fwd.packets, key=lambda p: p.capture_ts) if fwd else [],
        rtp_rev=sorted(rev.packets, key=lambda p: p.capture_ts) if rev else [],
        xr_blocks=[],
        sip_dialog=dialog,
    )


def _find_xr_session(
    sessions: list[CallSession], rec: PacketRecord, blocks: list[VoipMetricsBlock]
) -> CallSession | None:
    reported = {b.source_ssrc for b in blocks}
    for session in sessions:
        ssrcs = {p.ssrc for p in session.rtp_fwd[:1]} | {
            p.ssrc for p in session.rtp_rev[:1]
        }
        if reported & ssrcs:
            return session
    # fall back to port adjacency: RTCP rides the media port or media+1,
    # and the SDP of the dialog is where those ports are declared
    for session in sessions:
        ports = _dialog_ports(session.sip_dialog)
        candidates = set()
        for v in ports.values():
            if v is not None:
                candidates |= {v, (v[0], v[1] + 1)}
        if any(_at(end, rec.src_addr, rec.src_port)
               or _at(end, rec.dst_addr, rec.dst_port) for end in candidates):
            return session
    return None
