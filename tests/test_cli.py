"""End-to-end tests for the command line: synth -> analyze -> report.

Everything runs through entrypoint() so exit codes and stderr diagnostics
are exercised exactly as a shell user would see them.
"""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import voipqos
import voipqos.cli as cli_module
import voipqos.cli.analyze as analyze_module
import voipqos.evt.fit as fit_module
import voipqos.evt.select as select_module
from voipqos.cli import (
    AnalysisConfig,
    entrypoint,
    load_scenario,
    merge_reports,
    synth_to_file,
)
from voipqos.cli.synth import ScenarioSpec
from voipqos.errors import (
    BadRecord,
    BadSpec,
    DomainError,
    NotConverged,
    VoipQosError,
)
from voipqos.evt import (
    GevParams,
    check_families,
    fit_gev_batch,
    fit_gev_mle,
    gev_sample,
    select_model,
)
from voipqos.ingest import (
    PacketRecord,
    VoipMetricsBlock,
    encode_rtp,
    encode_xr_packet,
    load_codec_map,
    parse_pcap,
    write_jsonl,
    write_pcap,
)
from voipqos.metrics import MetricSeries

from . import builders
from .export_reference import csv_columns, read_column
from .gev_models import JITTER_MODELS, RTT_MODELS

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "voipqos" / "schemas"
     / "session_report.schema.json").read_text()
)


#: a pcapng section header block (draft-ietf-opsawg-pcapng), little-endian
PCAPNG_HEADER = bytes.fromhex(
    "0a0d0d0a" "1c000000" "4d3c2b1a" "01000000" "ffffffffffffffff" "1c000000"
)


def base_scenario(**overrides):
    spec = {
        "codec": "G711-A",
        "duration": 10.0,
        "interval": 0.02,
        "seed": 7,
        "loss_probability": 0.01,
        "jitter_model": {"xi": -0.125761, "sigma": 1.84636, "mu": 7.27644},
        "rtt_model": {"xi": 0.2077, "sigma": 12.0708, "mu": 123.9454},
        "xr_interval": 0.5,
        "scenario_tag": "lab",
        "call_id": "call-1",
    }
    spec.update(overrides)
    return spec


def write_scenario(tmp_path, name="scn.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(base_scenario(**overrides)))
    return path


class TestSynth:
    def test_writes_pcap_by_extension(self, tmp_path, capsys):
        scn = write_scenario(tmp_path)
        out = tmp_path / "cap.pcap"
        assert entrypoint(["synth", "--scenario", str(scn), "--out", str(out)]) == 0
        data = out.read_bytes()
        assert data[:4] == bytes.fromhex("d4c3b2a1")
        assert "records" in capsys.readouterr().out

    def test_writes_jsonl_by_extension(self, tmp_path):
        scn = write_scenario(tmp_path)
        out = tmp_path / "cap.jsonl"
        assert entrypoint(["synth", "--scenario", str(scn), "--out", str(out)]) == 0
        first = json.loads(out.read_text().splitlines()[0])
        assert {"ts", "src", "sport", "dst", "dport", "proto", "payload_hex"} \
            <= set(first)

    def test_deterministic_bytes_for_same_seed(self, tmp_path):
        scn = write_scenario(tmp_path)
        a, b = tmp_path / "a.pcap", tmp_path / "b.pcap"
        entrypoint(["synth", "--scenario", str(scn), "--out", str(a)])
        entrypoint(["synth", "--scenario", str(scn), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_flag_overrides_scenario(self, tmp_path):
        scn = write_scenario(tmp_path)
        a, b = tmp_path / "a.pcap", tmp_path / "b.pcap"
        entrypoint(["synth", "--scenario", str(scn), "--out", str(a)])
        entrypoint(["synth", "--scenario", str(scn), "--out", str(b),
                    "--seed", "99"])
        assert a.read_bytes() != b.read_bytes()

    def test_record_budget(self, tmp_path):
        # 10 s / 20 ms = 500 RTP slots at 1% loss, 20 XR blocks, 5 SIP messages
        scn = write_scenario(tmp_path)
        out = tmp_path / "cap.pcap"
        entrypoint(["synth", "--scenario", str(scn), "--out", str(out)])
        records = parse_pcap(out.read_bytes())
        assert 500 + 20 + 5 - 15 <= len(records) <= 525

    def test_unknown_codec_rejected(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, codec="PCMA")
        rc = entrypoint(["synth", "--scenario", str(scn),
                         "--out", str(tmp_path / "x.pcap")])
        assert rc == 1
        assert "PCMA" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, bogus=1)
        rc = entrypoint(["synth", "--scenario", str(scn),
                         "--out", str(tmp_path / "x.pcap")])
        assert rc == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, says", [
        ("payload_bytes", 70_000, "70012-byte payload exceeds IPv4's 65507"),
        ("base_delay", 5e9, "past the 32-bit seconds"),
    ], ids=["payload", "time"])
    def test_unencodable_pcap_record_fails(self, tmp_path, capsys, field,
                                           value, says):
        scn = write_scenario(tmp_path, **{field: value})
        out = tmp_path / "x.pcap"
        assert entrypoint(["synth", "--scenario", str(scn),
                           "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: record ") and says in err
        assert not out.exists()

    @pytest.mark.parametrize("invite, says", [
        ("soon", "could not convert string to float: 'soon'"),
        (None, "not 'NoneType'"),
    ], ids=["text", "null"])
    def test_unconvertible_sip_time_fails(self, tmp_path, capsys, invite,
                                          says):
        sip = {"invite": invite, "ringing": 1.0, "answer": 2.0,
               "bye": 30.0, "bye_ok": 30.5}
        scn = write_scenario(tmp_path, sip=sip)
        out = tmp_path / "x.pcap"
        assert entrypoint(["synth", "--scenario", str(scn),
                           "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad sip time: ") and says in err
        assert not out.exists()

    def test_load_scenario_validates(self, tmp_path):
        with pytest.raises(BadSpec):
            load_scenario(base_scenario(duration=-1.0))
        with pytest.raises(BadSpec):
            load_scenario(base_scenario(loss_probability=1.5))
        with pytest.raises(BadSpec):
            load_scenario(base_scenario(jitter_model={"xi": 0.1}))
        with pytest.raises(BadSpec):
            load_scenario({"codec": "G711-A"})

    def test_vbr_codec_needs_payload_bytes(self, tmp_path):
        # variable-bitrate codec: packet size and payload type must be given
        bare = load_scenario(base_scenario(codec="OPUS", interval=0.02))
        with pytest.raises(BadSpec):
            bare.resolved_payload_bytes()
        with pytest.raises(BadSpec):
            bare.resolved_payload_type()
        rc = entrypoint(["synth", "--scenario", str(write_scenario(
            tmp_path, codec="OPUS")), "--out", str(tmp_path / "x.pcap")])
        assert rc == 1
        spec = load_scenario(base_scenario(codec="OPUS", interval=0.02,
                                           payload_bytes=80,
                                           payload_type=111))
        assert spec.resolved_payload_bytes() == 80
        assert spec.resolved_payload_type() == 111


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cap")
    scn = write_scenario(tmp)
    out = tmp / "cap.pcap"
    assert entrypoint(["synth", "--scenario", str(scn), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sessions")
    for tag, call, seed in (("wired", "w-1", 1), ("wired", "w-2", 2),
                            ("wifi", "f-1", 3)):
        scn = write_scenario(tmp, f"{call}.json", call_id=call, seed=seed,
                             scenario_tag=tag)
        cap = tmp / f"{call}.pcap"
        assert entrypoint(["synth", "--scenario", str(scn),
                           "--out", str(cap)]) == 0
        assert entrypoint(["analyze", "--input", str(cap),
                           "--out", str(tmp / "out"),
                           "--scenario", tag]) == 0
    return tmp / "out"


def _call_records(k: int) -> tuple[list, list]:
    """Call ``k`` of a multi-call capture, on ports and an SSRC of its own:
    150 RTP packets with GEV delays and 25 XR reports of GEV round-trip
    delays. Returns (records, the XR delays in ms)."""
    t0 = 1.0 + 0.4 * k
    caller, callee, ssrc = 40000 + 10 * k, 42000 + 10 * k, 0xA000 + k
    records = builders.basic_dialog(
        f"call-{k}", invite_ts=t0, ringing_ts=t0 + 0.2, answer_ts=t0 + 0.4,
        bye_ts=t0 + 4.0, bye_ok_ts=t0 + 4.1,
        caller_port=caller, callee_port=callee,
    )
    delay = gev_sample(GevParams(-0.1, 1.8, 7.3), 150, seed=k) / 1000.0
    records += [PacketRecord(
        t0 + 0.5 + 0.02 * i + delay[i], builders.A_ADDR, builders.B_ADDR,
        caller, callee, "udp", encode_rtp(8, i, 160 * i, ssrc, b"\x00" * 160),
    ) for i in range(150)]
    rtt = np.maximum(np.rint(gev_sample(GevParams(0.2, 12.0, 124.0), 25,
                                        seed=100 + k)), 1.0)
    for j, d in enumerate(rtt.tolist()):
        ts = t0 + 0.55 + 0.12 * j
        block = VoipMetricsBlock(source_ssrc=ssrc, round_trip_delay=int(d),
                                 r_factor=90, signal_level=-12, report_ts=ts)
        records.append(PacketRecord(
            ts, builders.B_ADDR, builders.A_ADDR, callee + 1, caller + 1,
            "udp", encode_xr_packet(0x2222, [block]),
        ))
    return records, rtt.tolist()


@pytest.fixture(scope="module")
def calls_capture(tmp_path_factory):
    """Five overlapping calls in one pcap, and each call's XR delays."""
    records, delays = [], {}
    for k in range(5):
        call, delays[f"call-{k}"] = _call_records(k)
        records += call
    path = tmp_path_factory.mktemp("calls") / "calls.pcap"
    path.write_bytes(write_pcap(sorted(records, key=lambda r: r.ts)))
    return path, delays


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestAnalyze:
    def test_report_tree(self, capture, tmp_path, capsys):
        rc = entrypoint(["analyze", "--input", str(capture),
                         "--out", str(tmp_path / "out"), "--scenario", "lab"])
        assert rc == 0
        report_path = tmp_path / "out" / "call-1" / "report.json"
        report = json.loads(report_path.read_text())
        assert report["session"]["codec"] == "G711-A"
        assert report["session"]["scenario"] == "lab"
        assert report["loss"]["expected"] == 500
        # the session directory holds report.json and each metric's CSV
        session_dir = report_path.parent
        assert {p.name for p in session_dir.iterdir()} == {"report.json"} | {
            m["csv"] for m in report["metrics"].values()}
        out = capsys.readouterr().out
        assert "1 session report(s)" in out

    def test_report_matches_schema(self, capture, tmp_path):
        entrypoint(["analyze", "--input", str(capture),
                    "--out", str(tmp_path / "out")])
        report = json.loads(
            (tmp_path / "out" / "call-1" / "report.json").read_text())
        jsonschema.validate(report, SCHEMA)

    def test_reruns_are_byte_identical(self, capture, tmp_path):
        for d in ("a", "b"):
            entrypoint(["analyze", "--input", str(capture),
                        "--out", str(tmp_path / d), "--scenario", "lab"])
        a = tmp_path / "a" / "call-1"
        b = tmp_path / "b" / "call-1"
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_csv_header(self, capture, tmp_path):
        # t, then the series on that axis; report.json names each
        # series' file
        entrypoint(["analyze", "--input", str(capture),
                    "--out", str(tmp_path / "out")])
        session_dir = tmp_path / "out" / "call-1"
        report = json.loads((session_dir / "report.json").read_text())
        headers = {csv.name: csv.read_text().splitlines()[0]
                   for csv in session_dir.glob("*.csv")}
        assert headers["bandwidth.csv"] == "t,bandwidth,jitter,sigma_j"
        columns = {name: header.split(",") for name, header in headers.items()}
        for name, summary in report["metrics"].items():
            assert columns[summary["csv"]][0] == "t"
            assert name in columns[summary["csv"]][1:]

    def test_csv_cells_are_plain_numbers(self, capture, tmp_path):
        assert entrypoint(["analyze", "--input", str(capture),
                           "--out", str(tmp_path / "out")]) == 0
        columns = {csv.name: csv_columns(csv.read_text())
                   for csv in (tmp_path / "out" / "call-1").glob("*.csv")}
        assert set(columns["bandwidth.csv"]) == {"bandwidth", "jitter",
                                                 "sigma_j"}
        for name, csv in columns.items():
            for t, v in csv.values():
                assert v, name
                for cell in t + v:
                    float(cell)  # raises on e.g. "np.float64(1.5)"

    def test_candidates_add_ranking(self, capture, tmp_path):
        entrypoint(["analyze", "--input", str(capture),
                    "--out", str(tmp_path / "out"),
                    "--candidates", "GEV,Normal,Exponential"])
        report = json.loads(
            (tmp_path / "out" / "call-1" / "report.json").read_text())
        ranking = report["fits"]["jitter"]["ranking"]
        assert {f["family"] for f in ranking} == {"GEV", "Normal", "Exponential"}
        bics = [f["bic"] for f in ranking]
        assert bics == sorted(bics)
        jsonschema.validate(report, SCHEMA)

    def test_unknown_candidate_fails(self, capture, tmp_path, capsys):
        rc = entrypoint(["analyze", "--input", str(capture),
                         "--out", str(tmp_path / "out"),
                         "--candidates", "GEV,Zipf"])
        assert rc == 1
        assert "Zipf" in capsys.readouterr().err

    def test_unknown_candidate_rejected_by_config(self):
        # library callers fail once, up front, not once per session
        with pytest.raises(VoipQosError, match="Zipf"):
            AnalysisConfig(inputs=("x.pcap",), candidates=("GEV", "Zipf"))

    def test_repeated_candidate_rejected_by_config(self):
        with pytest.raises(DomainError, match=r"more than once: \['GEV'\]"):
            AnalysisConfig(inputs=("x.pcap",), candidates=("GEV", "Normal", "GEV"))

    def test_one_check_names_unknown_families(self, capture, tmp_path,
                                              capsys):
        with pytest.raises(DomainError) as want:
            check_families(["GEV", "Zipf"])
        message = str(want.value)
        assert "'Zipf'" in message and "GeneralizedPareto" in message
        values = tmp_path / "vals.txt"
        values.write_text("1.0\n" * 40)
        for command, source in (("fit", values), ("analyze", capture)):
            capsys.readouterr()
            assert entrypoint([command, "--input", str(source),
                               "--out", str(tmp_path / command),
                               "--candidates", "GEV,Zipf"]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        for build in (
            lambda: AnalysisConfig(inputs=("x.pcap",), candidates=("Zipf",)),
            lambda: select_model(np.arange(40.0), ["Zipf"]),
        ):
            with pytest.raises(DomainError) as got:
                build()
            assert str(got.value) == message

    def test_empty_capture_warns_and_exits_zero(self, tmp_path, capsys):
        empty = tmp_path / "empty.pcap"
        empty.write_bytes(write_pcap([]))
        rc = entrypoint(["analyze", "--input", str(empty),
                         "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "no call sessions" in capsys.readouterr().err

    def test_corrupt_magic_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.pcap"
        bad.write_bytes(b"\x00" * 64)
        rc = entrypoint(["analyze", "--input", str(bad),
                         "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "magic" in capsys.readouterr().err

    def test_unknown_link_type_fails(self, tmp_path, capsys):
        sll = bytearray(write_pcap([]))
        sll[20:24] = (113).to_bytes(4, "little")
        cap = tmp_path / "sll.pcap"
        cap.write_bytes(bytes(sll))
        rc = entrypoint(["analyze", "--input", str(cap),
                         "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "link type 113" in capsys.readouterr().err

    def test_residue_returns_two(self, capture, tmp_path, capsys):
        records = parse_pcap(capture.read_bytes())
        junk = tmp_path / "junk.jsonl"
        junk.write_text(
            write_jsonl(records)
            + json.dumps({"ts": 50.0, "src": "10.0.0.9", "sport": 1,
                          "dst": "10.0.0.1", "dport": 2, "proto": "udp",
                          "payload_hex": "00ff00ff"}) + "\n")
        rc = entrypoint(["analyze", "--input", str(junk),
                         "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "not parseable" in capsys.readouterr().err

    def test_duplicated_rtp_packet_is_residue(self, tmp_path, capsys):
        # a span port can deliver one RTP packet twice with one timestamp
        scn = write_scenario(tmp_path)
        clean = tmp_path / "clean.jsonl"
        assert entrypoint(["synth", "--scenario", str(scn),
                           "--out", str(clean)]) == 0
        lines = clean.read_text().splitlines(keepends=True)

        def is_rtp(line):
            payload = bytes.fromhex(json.loads(line)["payload_hex"])
            return payload[0] >> 6 == 2 and not 200 <= payload[1] <= 207

        rtp = [k for k, line in enumerate(lines) if is_rtp(line)]
        k = rtp[len(rtp) // 2]
        dup = tmp_path / "dup.jsonl"
        dup.write_text("".join(lines[:k + 1] + [lines[k]] + lines[k + 1:]))
        assert entrypoint(["analyze", "--input", str(clean),
                           "--out", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        rc = entrypoint(["analyze", "--input", str(dup),
                         "--out", str(tmp_path / "b")])
        assert rc == 2
        assert "1 record(s) set aside" in capsys.readouterr().err
        # the duplicate is set aside; every output equals the clean run's
        files = sorted(p.relative_to(tmp_path / "a")
                       for p in (tmp_path / "a").rglob("*") if p.is_file())
        assert files
        for rel in files:
            assert (tmp_path / "b" / rel).read_bytes() == \
                (tmp_path / "a" / rel).read_bytes(), rel

    def test_rtp_time_tie_is_residue(self, tmp_path, capsys):
        # one RTP packet captured at its predecessor's time: the later
        # one is set aside and the session is still reported
        scn = write_scenario(tmp_path)
        clean = tmp_path / "clean.jsonl"
        assert entrypoint(["synth", "--scenario", str(scn),
                           "--out", str(clean)]) == 0
        rows = [json.loads(line) for line in clean.read_text().splitlines()]

        def stream(row):
            payload = bytes.fromhex(row["payload_hex"])
            if payload[0] >> 6 != 2 or 200 <= payload[1] <= 207:
                return None
            return (row["src"], row["sport"], row["dst"], row["dport"],
                    payload[8:12])

        rtp = [i for i, row in enumerate(rows) if stream(row)]
        k = rtp[len(rtp) // 2]
        prev = max(i for i in range(k) if stream(rows[i]) == stream(rows[k]))
        rows[k]["ts"] = rows[prev]["ts"]
        tied = tmp_path / "tied.jsonl"
        tied.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                                for r in rows))
        assert entrypoint(["analyze", "--input", str(clean),
                           "--out", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        rc = entrypoint(["analyze", "--input", str(tied),
                         "--out", str(tmp_path / "b")])
        assert rc == 2
        assert "1 record(s) set aside" in capsys.readouterr().err
        a, b = (json.loads((tmp_path / d / "call-1" / "report.json")
                           .read_text()) for d in ("a", "b"))
        rtp = [(r["session"]["rtp_fwd"], r["session"]["rtp_rev"])
               for r in (a, b)]
        assert sum(rtp[0]) == sum(rtp[1]) + 1

    def test_failed_report_skips_only_its_session(self, tmp_path, capsys,
                                                  monkeypatch):
        def call(call_id, t0, caller, callee):
            records = builders.basic_dialog(
                call_id, invite_ts=t0, ringing_ts=t0 + 0.2, answer_ts=t0 + 0.4,
                bye_ts=t0 + 3.0, bye_ok_ts=t0 + 3.1,
                caller_port=caller, callee_port=callee,
            )
            for i in range(100):
                records.append(PacketRecord(
                    t0 + 0.5 + 0.02 * i, builders.A_ADDR, builders.B_ADDR,
                    caller, callee, "udp",
                    encode_rtp(8, i, 160 * i, 0xA000 + caller, b"\x00" * 160),
                ))
            return records

        build = analyze_module.build_session_report

        def failing(session, config, pending=None):
            if session.session_id == "call-b":
                raise DomainError("report failed")
            return build(session, config, pending=pending)

        monkeypatch.setattr(analyze_module, "build_session_report", failing)
        clean = call("call-a", 1.0, 40000, 42000)
        other = call("call-b", 1.3, 50000, 52000)
        alone, both = tmp_path / "alone.jsonl", tmp_path / "both.jsonl"
        alone.write_text(write_jsonl(clean))
        both.write_text(write_jsonl(sorted(clean + other, key=lambda r: r.ts)))
        assert entrypoint(["analyze", "--input", str(alone),
                           "--out", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        rc = entrypoint(["analyze", "--input", str(both),
                         "--out", str(tmp_path / "b")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "session call-b skipped: report failed" in err
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == ["call-a"]
        files = sorted(p.relative_to(tmp_path / "a")
                       for p in (tmp_path / "a").rglob("*") if p.is_file())
        assert files
        for rel in files:
            assert (tmp_path / "b" / rel).read_bytes() == \
                (tmp_path / "a" / rel).read_bytes(), rel

    def test_the_capture_bytes_pick_the_decoder(self, capture, tmp_path):
        pcap = capture.read_bytes()
        jsonl = write_jsonl(parse_pcap(pcap)).encode()

        def tree(name: str, data: bytes) -> dict:
            (tmp_path / name).write_bytes(data)
            assert entrypoint(["analyze", "--input", str(tmp_path / name),
                               "--out", str(tmp_path / f"out-{name}")]) == 0
            return _tree(tmp_path / f"out-{name}")

        usual = {pcap: tree("usual.pcap", pcap),
                 jsonl: tree("usual.jsonl", jsonl)}
        # tcpdump -C rotates cap.pcap into cap.pcap1, cap.pcap2, ...
        for name, data in (("cap.pcap1", pcap), ("cap", pcap),
                           ("jsonl.pcap", jsonl), ("pcap.jsonl", pcap)):
            assert tree(name, data) == usual[data], name

    def test_pcapng_is_refused_with_bad_magic(self, tmp_path, capsys):
        # a pcapng section header block, byte-order magic 0x1A2B3C4D
        ng = tmp_path / "cap.pcapng"
        ng.write_bytes(PCAPNG_HEADER)
        rc = entrypoint(["analyze", "--input", str(ng),
                         "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {ng}: not a classic capture file (magic 0x0a0d0d0a)\n")

    @pytest.mark.parametrize("name", ["empty.pcap", "empty.jsonl", "empty"])
    def test_zero_byte_capture_reads_as_empty(self, tmp_path, capsys, name):
        (tmp_path / name).write_bytes(b"")
        rc = entrypoint(["analyze", "--input", str(tmp_path / name),
                         "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "no call sessions" in capsys.readouterr().err

    def test_dot_call_ids_stay_under_out(self, tmp_path, capsys):
        records = []
        for call_id, t0, caller, callee in ((".", 1.0, 40000, 42000),
                                            ("..", 1.3, 50000, 52000)):
            records += builders.basic_dialog(
                call_id, invite_ts=t0, ringing_ts=t0 + 0.1, answer_ts=t0 + 0.2,
                bye_ts=t0 + 2.0, bye_ok_ts=t0 + 2.1,
                caller_port=caller, callee_port=callee,
            )
            records += [PacketRecord(
                t0 + 0.3 + 0.02 * i, builders.A_ADDR, builders.B_ADDR,
                caller, callee, "udp",
                encode_rtp(8, i, 160 * i, caller, b"\x00" * 160),
            ) for i in range(50)]
        capture = tmp_path / "dots.jsonl"
        capture.write_text(write_jsonl(sorted(records, key=lambda r: r.ts)))
        out = tmp_path / "a" / "out"
        assert entrypoint(["analyze", "--input", str(capture),
                           "--out", str(out)]) == 0
        written = [p for p in (tmp_path / "a").rglob("*") if p.is_file()]
        assert len(written) > 2
        assert all(out in p.parents for p in written)
        ids = sorted(json.loads(p.read_text())["session"]["id"]
                     for p in written if p.name == "report.json")
        assert ids == [".", ".."]

    def test_two_sessions_two_directories(self, tmp_path):
        scn1 = write_scenario(tmp_path, "s1.json", call_id="alpha")
        scn2 = write_scenario(tmp_path, "s2.json", call_id="beta", seed=8)
        c1, c2 = tmp_path / "c1.pcap", tmp_path / "c2.pcap"
        entrypoint(["synth", "--scenario", str(scn1), "--out", str(c1)])
        entrypoint(["synth", "--scenario", str(scn2), "--out", str(c2)])
        rc = entrypoint(["analyze", "--input", str(c1), str(c2),
                         "--out", str(tmp_path / "out")])
        assert rc == 0
        dirs = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert dirs == ["alpha", "beta"]


    def test_output_does_not_depend_on_blas_threads(self, calls_capture,
                                                     tmp_path):
        # no sum of the batched fits may go through BLAS, which splits
        # long sums across its threads
        src = str(Path(voipqos.__file__).resolve().parents[1])
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src,
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            subprocess.run(
                [sys.executable, "-m", "voipqos.cli", "analyze", "--input",
                 str(calls_capture[0]), "--out", str(tmp_path / threads)],
                capture_output=True, env=env, check=True,
            )
        one = _tree(tmp_path / "1")
        assert sum(name.endswith("report.json") for name in one) == 5
        assert one == _tree(tmp_path / "2")

    def test_summaries_are_the_per_session_ones(self, calls_capture,
                                                tmp_path):
        # perfbench/checker.py compares metrics.rtt.mean with the mean of
        # the call's XR delays exactly; the other summary fields are the
        # per-session _series_summary of the series CSVs
        path, delays = calls_capture
        assert entrypoint(["analyze", "--input", str(path),
                           "--out", str(tmp_path)]) == 0
        for call_id, rtt in delays.items():
            report = json.loads((tmp_path / call_id / "report.json").read_text())
            want = float(np.mean(np.asarray(rtt, dtype=float)))
            assert report["metrics"]["rtt"]["mean"] == want
            for name, summary in report["metrics"].items():
                t, v = read_column(tmp_path / call_id / summary["csv"], name)
                series = MetricSeries.create(name, t, v)
                assert summary == analyze_module._series_summary(
                    series, summary["csv"]), name

    def test_fits_do_not_depend_on_the_block(self, calls_capture, tmp_path,
                                             monkeypatch):
        # every sample in one Newton run, or each in a run of its own: the
        # same bytes, and each fit is fit_gev_batch's of the sample alone
        path = str(calls_capture[0])
        assert entrypoint(["analyze", "--input", path,
                           "--out", str(tmp_path / "one")]) == 0
        monkeypatch.setattr(fit_module, "BATCH_RUN_VALUES", 1)
        assert entrypoint(["analyze", "--input", path,
                           "--out", str(tmp_path / "each")]) == 0
        assert _tree(tmp_path / "one") == _tree(tmp_path / "each")
        report = json.loads(
            (tmp_path / "one" / "call-2" / "report.json").read_text())
        _, v = read_column(tmp_path / "one" / "call-2"
                           / report["metrics"]["jitter"]["csv"], "jitter")
        (fit,) = fit_gev_batch([v])
        assert report["fits"]["jitter"] == json.loads(
            json.dumps(fit.to_json_dict()))

    def test_a_report_built_alone_is_the_written_one(self, calls_capture,
                                                     tmp_path):
        # build_session_report without pending fits its own samples
        path = calls_capture[0]
        sessions, _ = analyze_module.assemble_sessions(
            parse_pcap(path.read_bytes()), load_codec_map())
        assert len(sessions) == 5
        for candidates in (None, ("GEV", "Normal")):
            out = tmp_path / str(candidates)
            flags = ["--candidates", ",".join(candidates)] if candidates else []
            assert entrypoint(["analyze", "--input", str(path),
                               "--out", str(out), *flags]) == 0
            config = AnalysisConfig(inputs=(str(path),), candidates=candidates)
            for session in sessions:
                report, files = analyze_module.build_session_report(
                    session, config)
                assert "xi" in report["fits"]["jitter"]
                assert ("ranking" in report["fits"]["jitter"]) == bool(candidates)
                report["session"]["directory"] = session.session_id
                written = out / session.session_id
                assert (written / "report.json").read_text() == \
                    analyze_module.json_text(report)
                for name, text in files.items():
                    assert (written / name).read_text() == text

    def test_a_ranking_leaves_every_fit_as_it_is(self, calls_capture,
                                                 tmp_path):
        # ranked or not, each sample is fitted once, by fit_gev_batch, and
        # the ranking's GEV entry holds that fit's parameters and scores
        path = str(calls_capture[0])
        assert entrypoint(["analyze", "--input", path,
                           "--out", str(tmp_path / "plain")]) == 0
        assert entrypoint(["analyze", "--input", path,
                           "--out", str(tmp_path / "ranked"),
                           "--candidates", "GEV,Normal"]) == 0
        plain, ranked = _tree(tmp_path / "plain"), _tree(tmp_path / "ranked")
        assert plain.keys() == ranked.keys()
        gev_entries = 0
        for name, data in plain.items():
            if not name.endswith("report.json"):
                assert ranked[name] == data, name
                continue
            report = json.loads(ranked[name])
            for fit in report["fits"].values():
                ranking = fit.pop("ranking")
                assert [f["family"] for f in ranking] != []
                for family in ranking:
                    if family["family"] == "GEV":
                        gev_entries += 1
                        # the fit's own loglik and bic, bit for bit
                        assert family == {
                            "family": "GEV", "k": 3, "n": fit["n"],
                            "params": {k: fit[k] for k in ("xi", "sigma", "mu")},
                            "loglik": fit["loglik"], "bic": fit["bic"]}
            assert report == json.loads(data), name
        assert gev_entries == 10

    def test_excluded_gev_is_fitted_once(self, monkeypatch):
        batches = []
        batch = analyze_module.fit_gev_batch

        def counted(samples, *args, **kwargs):
            batches.append([len(z) for z in samples])
            return batch(samples, *args, **kwargs)

        monkeypatch.setattr(analyze_module, "fit_gev_batch", counted)
        calls = _count_gev_fits(monkeypatch, analyze_module)
        # xi reaches -1 on this sample, so the ranking excludes GEV
        z = gev_sample(GevParams(-0.6, 1.0, 0.0), 40, seed=5)
        pending = []
        entry = analyze_module._fit_entry(z, pending)
        analyze_module._fill_fits(pending, ("GEV", "Normal"))
        assert batches == [[40]] and calls == []
        assert [f["family"] for f in entry.pop("ranking")] == ["Normal"]
        assert entry == _unbounded_fit_entry(z)


def _count_gev_fits(monkeypatch, caller_module) -> list:
    """Count the calls of fit_gev_mle through the caller's binding and
    select_model's."""
    calls = []
    for module in (caller_module, select_module):
        fit = module.fit_gev_mle

        def counted(values, *args, fit=fit, **kwargs):
            calls.append(len(values))
            return fit(values, *args, **kwargs)

        monkeypatch.setattr(module, "fit_gev_mle", counted)
    return calls


def _unbounded_fit_entry(z) -> dict:
    """The entry of a fit that ends at xi <= -1: the fit it carries."""
    with pytest.raises(NotConverged) as info:
        fit_gev_mle(z)
    assert info.value.fit.params.xi <= -1.0
    return info.value.fit.to_json_dict()


class TestFit:
    def test_excluded_gev_is_fitted_once(self, tmp_path, capsys,
                                         monkeypatch):
        z = gev_sample(GevParams(-0.6, 1.0, 0.0), 40, seed=5)
        path = tmp_path / "vals.txt"
        path.write_text("".join(f"{float(v)!r}\n" for v in z))
        calls = _count_gev_fits(monkeypatch, cli_module)
        assert entrypoint(["fit", "--input", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert calls == [40]
        assert "GEV" not in {f["family"] for f in report["ranking"]}
        assert report["gev"] == json.loads(
            json.dumps(_unbounded_fit_entry(z)))

    def test_extreme_values_warn_nothing(self, tmp_path):
        # the GEV fits reach off-support and overflowing points, which
        # they handle; no floating-point warning reaches stderr
        rng = np.random.default_rng(0)
        path = tmp_path / "vals.txt"
        for values in (rng.normal(size=100) * 1e-300,
                       rng.standard_cauchy(300) * 1e200):
            path.write_text("".join(f"{v!r}\n" for v in values.tolist()))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert entrypoint(["fit", "--input", str(path),
                                   "--out", str(tmp_path / "fit.json")]) == 0
                fit_gev_batch([values])

    def test_gev_data_ranks_gev_first(self, tmp_path, capsys):
        p = GevParams(*JITTER_MODELS["G722"][:3])
        vals = gev_sample(p, 2000, seed=42)
        path = tmp_path / "vals.txt"
        path.write_text("".join(f"{float(v)!r}\n" for v in vals))
        out = tmp_path / "fit.json"
        rc = entrypoint(["fit", "--input", str(path), "--target", "jitter",
                         "--out", str(out)])
        assert rc == 0
        result = json.loads(out.read_text())
        assert result["target"] == "jitter"
        assert result["n"] == 2000
        assert result["ranking"][0]["family"] == "GEV"
        assert result["gev"]["xi"] < 0  # bounded-tail jitter model
        assert result["gev"]["xi"] == pytest.approx(p.xi, abs=0.05)

    def test_fit_json_holds_one_gev_fit(self, tmp_path, capsys):
        # on this sample a loglik summed anew differs in its last bits
        vals = gev_sample(GevParams(0.2, 12.0, 124.0), 500, seed=12)
        path = tmp_path / "vals.txt"
        path.write_text("".join(f"{float(v)!r}\n" for v in vals))
        assert entrypoint(["fit", "--input", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["ranking"]) == 10
        for entry in report["ranking"]:
            assert set(entry) == {"family", "k", "params", "loglik", "bic", "n"}
        (gev,) = [f for f in report["ranking"] if f["family"] == "GEV"]
        assert gev["params"] == {k: report["gev"][k] for k in ("xi", "sigma", "mu")}
        # the fit's own loglik and bic, bit for bit
        assert (gev["loglik"], gev["bic"]) == (report["gev"]["loglik"],
                                               report["gev"]["bic"])
        assert "e_max" in report["gev"] and "iterations" in report["gev"]

    def test_rtt_data_has_heavy_tail(self, tmp_path):
        p = GevParams(*RTT_MODELS["G729"][:3])
        vals = gev_sample(p, 2000, seed=43)
        path = tmp_path / "vals.txt"
        path.write_text("".join(f"{float(v)!r}\n" for v in vals))
        out = tmp_path / "fit.json"
        rc = entrypoint(["fit", "--input", str(path), "--target", "rtt",
                         "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["gev"]["xi"] > 0

    def test_stdout_when_no_out(self, tmp_path, capsys):
        vals = gev_sample(GevParams(0.0, 1.0, 0.0), 100, seed=1)
        path = tmp_path / "vals.txt"
        path.write_text("".join(f"{float(v)!r}\n" for v in vals))
        assert entrypoint(["fit", "--input", str(path)]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert set(parsed) == {"target", "n", "ranking", "gev"}

    def test_candidate_restriction(self, tmp_path, capsys):
        # location 10 keeps draws positive so the Exponential family fits too
        vals = gev_sample(GevParams(0.0, 1.0, 10.0), 200, seed=2)
        path = tmp_path / "vals.txt"
        path.write_text("".join(f"{float(v)!r}\n" for v in vals))
        assert entrypoint(["fit", "--input", str(path),
                           "--candidates", "Normal,Exponential"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert {f["family"] for f in parsed["ranking"]} == \
            {"Normal", "Exponential"}

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_fails(self, tmp_path, capsys, bad):
        vals = gev_sample(GevParams(0.0, 1.0, 10.0), 50, seed=4)
        path = tmp_path / "vals.txt"
        path.write_text("".join(f"{float(v)!r}\n" for v in vals) + bad + "\n")
        out = tmp_path / "fit.json"
        assert entrypoint(["fit", "--input", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: data contain non-finite values\n"
        assert not out.exists()

    def test_repeated_candidate_fails(self, tmp_path, capsys):
        vals = gev_sample(GevParams(0.0, 1.0, 10.0), 50, seed=5)
        path = tmp_path / "vals.txt"
        path.write_text("".join(f"{float(v)!r}\n" for v in vals))
        assert entrypoint(["fit", "--input", str(path),
                           "--candidates", "Normal,Normal,GEV"]) == 1
        assert capsys.readouterr().err == \
            "error: families named more than once: ['Normal']\n"

    def test_unparsable_line_names_line_number(self, tmp_path, capsys):
        path = tmp_path / "vals.txt"
        path.write_text("1.0\n2.0\nnot-a-number\n4.0\n")
        assert entrypoint(["fit", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert ":3:" in err and "not-a-number" in err

    def test_too_few_values_fails(self, tmp_path, capsys):
        path = tmp_path / "vals.txt"
        path.write_text("".join(f"{v}\n" for v in range(5)))
        assert entrypoint(["fit", "--input", str(path)]) == 1
        assert "20" in capsys.readouterr().err

    def test_missing_file_fails(self, tmp_path, capsys):
        assert entrypoint(["fit", "--input", str(tmp_path / "nope.txt")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_blank_lines_skipped(self, tmp_path, capsys):
        vals = gev_sample(GevParams(0.0, 1.0, 0.0), 30, seed=3)
        path = tmp_path / "vals.txt"
        path.write_text("\n".join(f"{float(v)!r}" for v in vals) + "\n\n\n")
        assert entrypoint(["fit", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 30

    def test_output_does_not_depend_on_blas_threads(self, tmp_path):
        # BLAS splits long dot products across its threads, in an order
        # that depends on their count; the report must not
        vals = gev_sample(GevParams(*JITTER_MODELS["G711-A"][:3]), 30_000,
                          seed=7)
        path = tmp_path / "vals.txt"
        path.write_text("".join(f"{float(v)!r}\n" for v in vals))
        src = str(Path(voipqos.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src,
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            outs.append(subprocess.run(
                [sys.executable, "-m", "voipqos.cli", "fit", "--input",
                 str(path), "--target", "jitter"],
                capture_output=True, env=env, check=True,
            ).stdout)
        assert json.loads(outs[0])["n"] == 30_000
        assert outs[0] == outs[1]


class TestReport:
    def test_merges_directory_tree(self, out_dir, tmp_path):
        out = tmp_path / "merged.json"
        rc = entrypoint(["report", "--input", str(out_dir),
                         "--out", str(out)])
        assert rc == 0
        merged = json.loads(out.read_text())
        assert [r["id"] for r in merged["sessions"]] == ["f-1", "w-1", "w-2"]
        assert set(merged["by_scenario"]) == {"wired", "wifi"}
        assert merged["by_scenario"]["wired"]["sessions"] == ["w-1", "w-2"]

    def test_scenario_aggregates(self, out_dir, tmp_path):
        out = tmp_path / "merged.json"
        entrypoint(["report", "--input", str(out_dir), "--out", str(out)])
        merged = json.loads(out.read_text())
        wired = merged["by_scenario"]["wired"]
        assert wired["csd_boxplot"]["median"] == pytest.approx(1.392)
        assert 0.0 <= wired["mean_loss_pct"] <= 5.0
        assert wired["mean_rtt_ms"] > 100  # model mu is 123.9
        for row in merged["sessions"]:
            assert math.isfinite(row["mean_jitter_ms"])

    def test_cross_session_pca(self, out_dir, tmp_path):
        out = tmp_path / "merged.json"
        entrypoint(["report", "--input", str(out_dir), "--out", str(out)])
        merged = json.loads(out.read_text())
        pca = merged["pca"]
        assert pca is not None
        assert pca["sessions"] == ["f-1", "w-1", "w-2"]
        assert len(pca["explained"]) == len(pca["components"])

    def test_accepts_explicit_report_files(self, out_dir, capsys):
        files = sorted(str(p) for p in out_dir.rglob("report.json"))
        assert entrypoint(["report", "--input", *files]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert len(merged["sessions"]) == 3

    def test_no_reports_fails(self, tmp_path, capsys):
        assert entrypoint(["report", "--input", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_v1_report_rejected(self, out_dir, tmp_path, capsys):
        # a report as export v1 wrote it: no schema_version field
        v1 = json.loads(next(out_dir.rglob("report.json")).read_text())
        del v1["schema_version"]
        old = tmp_path / "old" / "report.json"
        old.parent.mkdir()
        old.write_text(json.dumps(v1))
        assert entrypoint(["report", "--input", str(out_dir),
                           str(old.parent)]) == 1
        err = capsys.readouterr().err
        assert str(old) in err and "schema version None" in err

    def test_v2_report_rejected(self, out_dir, tmp_path, capsys):
        # a report as export v2 wrote it: an exports index beside pca.json
        # and the histogram CSV
        v2 = json.loads(next(out_dir.rglob("report.json")).read_text())
        del v2["bandwidth_sigma_hist"], v2["pca"]
        v2["schema_version"] = 2
        v2["exports"] = {"series_csv": {}, "bandwidth_sigma_hist": None,
                         "pca": None}
        old = tmp_path / "old" / "report.json"
        old.parent.mkdir()
        old.write_text(json.dumps(v2))
        with pytest.raises(VoipQosError,
                           match="schema version 2, expected 4"):
            merge_reports([out_dir, old])
        assert entrypoint(["report", "--input", str(out_dir),
                           str(old.parent)]) == 1
        err = capsys.readouterr().err
        assert str(old) in err and "schema version 2" in err

    def test_v3_report_rejected(self, out_dir, tmp_path, capsys):
        # a report as export v3 wrote it: the same fields, and a t,value
        # CSV per series
        v3 = json.loads(next(out_dir.rglob("report.json")).read_text())
        v3["schema_version"] = 3
        for name, summary in v3["metrics"].items():
            summary["csv"] = f"{name}.csv"
        old = tmp_path / "old" / "report.json"
        old.parent.mkdir()
        old.write_text(json.dumps(v3))
        with pytest.raises(VoipQosError,
                           match="schema version 3, expected 4"):
            merge_reports([out_dir, old])
        assert entrypoint(["report", "--input", str(out_dir),
                           str(old.parent)]) == 1
        assert str(old) in capsys.readouterr().err

    def test_session_directory_named_report_json(self, tmp_path, capsys):
        # the Call-ID report.json names the session directory report.json
        scn = write_scenario(tmp_path, call_id="report.json")
        cap = tmp_path / "cap.pcap"
        out = tmp_path / "out"
        assert entrypoint(["synth", "--scenario", str(scn),
                           "--out", str(cap)]) == 0
        assert entrypoint(["analyze", "--input", str(cap),
                           "--out", str(out)]) == 0
        assert (out / "report.json" / "report.json").is_file()
        capsys.readouterr()
        assert entrypoint(["report", "--input", str(out)]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert [row["id"] for row in merged["sessions"]] == ["report.json"]

    def test_non_report_json_fails(self, tmp_path, capsys):
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps({"hello": 1}))
        assert entrypoint(["report", "--input", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestScenarioSpec:
    def test_sip_defaults(self):
        spec = load_scenario(base_scenario())
        times = spec.sip_times()
        assert times.invite == 1.0
        assert times.ringing == 2.392
        assert times.answer == 3.0
        assert times.bye == pytest.approx(3.0 + 10.0 + 1.0)
        assert times.bye_ok == pytest.approx(times.bye + 0.1981)

    def test_explicit_sip_times(self):
        spec = load_scenario(base_scenario(
            sip={"invite": 0.0, "ringing": 1.0, "answer": 2.0,
                 "bye": 30.0, "bye_ok": 30.5}))
        assert spec.sip_times().invite == 0.0
        assert spec.sip_times().bye_ok == 30.5

    def test_sip_times_must_increase(self):
        with pytest.raises(BadSpec):
            load_scenario(base_scenario(
                sip={"invite": 5.0, "ringing": 1.0, "answer": 2.0,
                     "bye": 30.0, "bye_ok": 30.5}))

    def test_absent_keys_take_the_spec_defaults(self):
        raw = {"codec": "G711-A", "duration": 10.0, "interval": 0.02}
        assert load_scenario(raw) == ScenarioSpec("G711-A", 10.0, 0.02)

    @pytest.mark.parametrize("drop, change, message", [
        ("codec", {}, "missing required key 'codec'"),
        ("interval", {}, "missing required key 'interval'"),
        (None, {"bogus": 1, "other": 2},
         "unknown scenario keys: ['bogus', 'other']"),
        (None, {"sip": {"invite": 1.0}}, "sip must be an object of the event "
         "times ['answer', 'bye', 'bye_ok', 'invite', 'ringing']"),
        (None, {"seed": None}, "bad scenario value"),
        (None, {"payload_type": "x"}, "bad scenario value"),
        (None, {"rtt_model": {"xi": 0.1}}, "rtt_model must be an object"),
        (None, {"call_id": None}, "call_id must be a string, got null"),
        (None, {"scenario_tag": None},
         "scenario_tag must be a string, got null"),
        (None, {"seed": 2.5}, "seed must be an integer, got 2.5"),
        (None, {"seed": True}, "seed must be an integer, got true"),
        (None, {"payload_type": 8.7},
         "payload_type must be an integer or null, got 8.7"),
        (None, {"duration": True}, "duration must be a number, got true"),
    ])
    def test_bad_scenarios_name_what_is_wrong(self, drop, change, message):
        raw = base_scenario(**change)
        raw.pop(drop, None)
        with pytest.raises(BadSpec, match=re.escape(message)):
            load_scenario(raw)

    def test_numbers_read_as_their_field_types(self):
        spec = load_scenario(base_scenario(duration=10, seed=7.0,
                                           payload_type=None))
        assert (spec.duration, spec.seed, spec.payload_type) == (10.0, 7, None)
        assert type(spec.duration) is float and type(spec.seed) is int

    def test_synth_to_file_picks_the_format_by_suffix(self, tmp_path):
        spec = load_scenario(base_scenario())
        for name in ("cap.jsonl", "cap.json", "cap.JSONL"):
            n = synth_to_file(spec, tmp_path / name)
            assert n == len((tmp_path / name).read_text().splitlines())
        for name in ("cap.pcap", "cap.pcap1", "cap.bin", "cap"):
            assert synth_to_file(spec, tmp_path / name) == n
            assert (tmp_path / name).read_bytes()[:4] == \
                bytes.fromhex("d4c3b2a1")


#: not UTF-8, in a line that a jsonl capture would otherwise begin
NOT_UTF8 = b'{"\xff\xfe": 1}\n'
#: UTF-8 text that is neither JSON nor a number
NOT_JSON = b"8,G711-A\n"

#: each file input of the CLI: the argv that reads the file ``bad``
FILE_INPUTS = {
    "analyze --input": lambda bad, tmp: [
        "analyze", "--input", bad, "--out", tmp / "out"],
    "analyze --codecs-map": lambda bad, tmp: [
        "analyze", "--input", tmp / "capture.pcap", "--codecs-map", bad,
        "--out", tmp / "out"],
    "fit --input": lambda bad, tmp: ["fit", "--input", bad],
    "synth --scenario": lambda bad, tmp: [
        "synth", "--scenario", bad, "--out", tmp / "capture.pcap"],
    "report --input": lambda bad, tmp: ["report", "--input", bad],
}


@pytest.mark.parametrize("content", ["not-utf8", "not-the-format"])
@pytest.mark.parametrize("command", sorted(FILE_INPUTS))
def test_a_malformed_input_file_is_one_error_naming_it(command, content,
                                                       tmp_path, capsys):
    (tmp_path / "capture.pcap").write_bytes(write_pcap([]))
    bad = tmp_path / "input.bad"
    if content == "not-utf8":
        bad.write_bytes(NOT_UTF8)
    else:
        bad.write_bytes(PCAPNG_HEADER if command == "analyze --input"
                        else NOT_JSON)
    argv = [str(arg) for arg in FILE_INPUTS[command](bad, tmp_path)]
    assert entrypoint(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(bad) in errors[0], err


@pytest.mark.parametrize("read, error", [
    (analyze_module.read_records, BadRecord),
    (load_codec_map, DomainError),
    (load_scenario, BadSpec),
    (lambda path: merge_reports([path]), BadRecord),
    (cli_module._read_values, VoipQosError),
], ids=["capture", "codec-map", "scenario", "report", "values"])
def test_a_file_that_is_not_utf8_raises_its_readers_error(read, error,
                                                          tmp_path):
    bad = tmp_path / "input.bad"
    bad.write_bytes(NOT_UTF8)
    with pytest.raises(error, match=re.escape(str(bad))):
        read(bad)


def test_the_cli_loads_numpy_and_no_test_dependency():
    # the runtime dependencies are numpy only; the test extras stay out
    src = str(Path(voipqos.__file__).resolve().parents[1])
    code = ("import sys, voipqos.cli; print(sorted("
            "{name.partition('.')[0] for name in sys.modules} & "
            "{'numpy', 'scipy', 'hypothesis', 'mpmath', 'jsonschema'}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src),
                         check=True)
    assert out.stdout == "['numpy']\n"
