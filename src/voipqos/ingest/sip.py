"""Header-subset SIP parsing: start line, Call-ID, CSeq, SDP audio endpoint.

Deliberately not a transaction state machine; the signalling delays need
only the INVITE/180/BYE/200 events, plus the SDP audio port and IPv4
connection address for binding RTP streams to their dialog.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import MissingHeader, NotSip

_METHODS = (
    "INVITE", "ACK", "BYE", "CANCEL", "OPTIONS", "REGISTER",
    "PRACK", "SUBSCRIBE", "NOTIFY", "PUBLISH", "INFO", "REFER",
    "MESSAGE", "UPDATE",
)
_REQUEST_RE = re.compile(r"^([A-Z]+) (\S+) SIP/2\.0$")
_STATUS_RE = re.compile(r"^SIP/2\.0 (\d{3})(?: (.*))?$")
_CSEQ_RE = re.compile(r"^(\d+)\s+(\S+)$")
_AUDIO_RE = re.compile(r"^m=audio\s+(\d+)\s", re.MULTILINE)
_MEDIA_RE = re.compile(r"^m=", re.MULTILINE)
_CONN_RE = re.compile(r"^c=IN\s+(\S+)\s+([^\s/]+)", re.MULTILINE)
# compact header forms read here (RFC 3261 section 7.3.3)
_COMPACT = {"i": "call-id"}


@dataclass(frozen=True)
class SipMessage:
    kind: str  # "request" | "response"
    method_or_status: str | int  # method token or integer status code
    call_id: str
    cseq: int
    cseq_method: str
    capture_ts: float
    media_port: int | None = None
    media_addr: str | None = None  # the audio c= address, IPv4 only


def _headers(lines: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in lines:
        if not line:
            break  # blank line ends the header section
        name, sep, value = line.partition(":")
        if sep:
            key = name.strip().lower()
            key = _COMPACT.get(key, key)
            if key not in out:  # first occurrence wins
                out[key] = value.strip()
    return out


def parse_sip(payload: bytes | str, capture_ts: float) -> SipMessage:
    """Decode one SIP message from UDP payload text."""
    if isinstance(payload, bytes):
        try:
            text = payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise NotSip("payload is not UTF-8 text") from exc
    else:
        text = payload
    lines = text.split("\r\n") if "\r\n" in text else text.split("\n")
    if not lines:
        raise NotSip("empty payload")

    start = lines[0].strip()
    m = _STATUS_RE.match(start)
    if m:
        code = int(m.group(1))
        if not 100 <= code <= 699:
            raise NotSip(f"status code {code} outside 100..699")
        kind: str = "response"
        method_or_status: str | int = code
    else:
        m = _REQUEST_RE.match(start)
        if m and m.group(1) in _METHODS:
            kind = "request"
            method_or_status = m.group(1)
        else:
            raise NotSip(f"start line is not SIP: {start[:60]!r}")

    headers = _headers(lines[1:])
    call_id = headers.get("call-id")
    if not call_id:
        raise MissingHeader("no Call-ID header")
    cseq_raw = headers.get("cseq")
    if not cseq_raw:
        raise MissingHeader("no CSeq header")
    cm = _CSEQ_RE.match(cseq_raw)
    if not cm:
        raise MissingHeader(f"unusable CSeq: {cseq_raw!r}")

    media_port = media_addr = None
    mp = _AUDIO_RE.search(text)
    if mp:
        media_port = int(mp.group(1))
        # a c= line in the audio section, which ends at the next m= line,
        # overrides the session-level one before the first m= line
        # (RFC 4566 section 5.7)
        nxt = _MEDIA_RE.search(text, mp.end())
        audio = text[mp.end():nxt.start() if nxt else None]
        session = text[:_MEDIA_RE.search(text).start()]
        conn = _CONN_RE.search(audio) or _CONN_RE.search(session)
        if conn and conn.group(1) == "IP4":
            media_addr = conn.group(2)

    return SipMessage(
        kind=kind,
        method_or_status=method_or_status,
        call_id=call_id,
        cseq=int(cm.group(1)),
        cseq_method=cm.group(2).upper(),
        capture_ts=capture_ts,
        media_port=media_port,
        media_addr=media_addr,
    )


def format_sip_request(
    method: str,
    uri: str,
    call_id: str,
    cseq: int,
    from_addr: str = "<sip:a@local>",
    to_addr: str = "<sip:b@remote>",
    from_tag: str | None = "atag",
    media_port: int | None = None,
) -> bytes:
    """Render a minimal SIP request, with SDP audio line when asked."""
    from_hdr = from_addr + (f";tag={from_tag}" if from_tag else "")
    return _render(f"{method} {uri} SIP/2.0", from_hdr, to_addr, call_id,
                   f"{cseq} {method}", media_port)


def format_sip_response(
    status: int,
    reason: str,
    call_id: str,
    cseq: int,
    cseq_method: str,
    to_tag: str | None = "btag",
    media_port: int | None = None,
) -> bytes:
    to_hdr = "<sip:b@remote>" + (f";tag={to_tag}" if to_tag else "")
    return _render(f"SIP/2.0 {status} {reason}", "<sip:a@local>;tag=atag",
                   to_hdr, call_id, f"{cseq} {cseq_method}", media_port)


def _render(start: str, from_hdr: str, to_hdr: str, call_id: str, cseq: str,
            media_port: int | None) -> bytes:
    """A SIP message: headers, and an SDP audio body if ``media_port``."""
    lines = [start, f"From: {from_hdr}", f"To: {to_hdr}",
             f"Call-ID: {call_id}", f"CSeq: {cseq}"]
    body = ""
    if media_port is not None:
        body = (
            "v=0\r\no=- 0 0 IN IP4 0.0.0.0\r\ns=call\r\n"
            f"c=IN IP4 0.0.0.0\r\nt=0 0\r\nm=audio {media_port} RTP/AVP 8\r\n"
        )
        lines.append("Content-Type: application/sdp")
    lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n" + body).encode()
