"""Decode a capture file into RTP, RTCP-XR, and SIP, then group it by call.

Generates its own input: a 15 second G711-A call written as a real pcap,
then read back through the same parser any foreign capture would use.

Run:  python3 demos/01_decode_capture.py
"""

import tempfile
from pathlib import Path

from voipqos.cli import load_scenario, synth_to_file
from voipqos.ingest import assemble_sessions, parse_pcap

SCENARIO = {
    "codec": "G711-A",
    "duration": 15.0,
    "interval": 0.02,
    "seed": 11,
    "loss_probability": 0.02,
    "jitter_model": {"xi": -0.13, "sigma": 1.8, "mu": 7.3},
    "rtt_model": {"xi": 0.21, "sigma": 12.1, "mu": 123.9},
    "xr_interval": 1.0,
    "scenario_tag": "demo",
    "call_id": "demo-call-1",
}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cap = Path(tmp) / "call.pcap"
        n = synth_to_file(load_scenario(SCENARIO), cap)
        print(f"wrote {n} packets to a classic pcap ({cap.stat().st_size} bytes)")

        records = parse_pcap(cap.read_bytes())
    print(f"read back {len(records)} UDP records\n")

    result = assemble_sessions(records)
    print(f"classified into {len(result.sessions)} call session(s), "
          f"{len(result.residue)} unclassifiable record(s)")

    session = result.sessions[0]
    print(f"\nsession {session.session_id}:")
    print(f"  codec        {session.codec} (clock {session.clock_rate} Hz)")
    print(f"  rtp forward  {len(session.rtp_fwd)} packets")
    print(f"  rtp reverse  {len(session.rtp_rev)} packets")
    print(f"  xr blocks    {len(session.xr_blocks)}")
    print(f"  sip msgs     {len(session.sip_dialog)}")

    p = session.rtp_fwd[0]
    print("\nfirst media packet:")
    print(f"  seq={p.seq} rtp_ts={p.rtp_ts} ssrc={p.ssrc:#010x} "
          f"payload={p.payload_len}B captured at t={p.capture_ts:.3f}s")

    b = session.xr_blocks[0]
    print("first quality report (RTCP-XR VoIP metrics):")
    print(f"  round_trip_delay={b.round_trip_delay}ms r_factor={b.r_factor} "
          f"signal_level={b.signal_level}dBm at t={b.report_ts:.3f}s")

    m = session.sip_dialog[0]
    print("first signalling message:")
    print(f"  {m.kind} {m.method_or_status} cseq={m.cseq} "
          f"call_id={m.call_id!r} at t={m.capture_ts:.3f}s")


if __name__ == "__main__":
    main()
