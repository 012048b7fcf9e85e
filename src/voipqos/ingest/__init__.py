"""Packet-capture decoding: pcap/jsonl reading, RTP, RTCP-XR, SIP, sessions."""

from .capture import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW_IPV4,
    MAGIC,
    MAGIC_NS,
    Capture,
    PacketRecord,
    parse_jsonl,
    parse_pcap,
    write_jsonl,
    write_pcap,
)
from .codecs import CODECS, STATIC_PAYLOAD_TYPES, Codec, load_codec_map
from .rtcp_xr import (
    UNAVAILABLE,
    VOIP_METRICS_BLOCK_TYPE,
    XR_PACKET_TYPE,
    VoipMetricsBlock,
    XrBlocks,
    encode_voip_metrics,
    encode_xr_packet,
    parse_rtcp_xr,
)
from .rtp import RtpPacket, RtpStream, encode_rtp, parse_rtp
from .sessions import AssemblyResult, CallSession, assemble_sessions
from .sip import SipMessage, format_sip_request, format_sip_response, parse_sip

__all__ = [
    "LINKTYPE_ETHERNET",
    "LINKTYPE_RAW_IPV4",
    "MAGIC",
    "MAGIC_NS",
    "Capture",
    "PacketRecord",
    "parse_jsonl",
    "parse_pcap",
    "write_jsonl",
    "write_pcap",
    "CODECS",
    "STATIC_PAYLOAD_TYPES",
    "Codec",
    "load_codec_map",
    "UNAVAILABLE",
    "VOIP_METRICS_BLOCK_TYPE",
    "XR_PACKET_TYPE",
    "VoipMetricsBlock",
    "XrBlocks",
    "encode_voip_metrics",
    "encode_xr_packet",
    "parse_rtcp_xr",
    "RtpPacket",
    "RtpStream",
    "encode_rtp",
    "parse_rtp",
    "AssemblyResult",
    "CallSession",
    "assemble_sessions",
    "SipMessage",
    "format_sip_request",
    "format_sip_response",
    "parse_sip",
]
