"""Quality metrics: golden hand values, invariants, and export shapes."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from voipqos.errors import DomainError, TooFewPackets
from voipqos.evt import GevParams, gev_sample
from voipqos.ingest.rtcp_xr import UNAVAILABLE, VoipMetricsBlock, encode_voip_metrics
from voipqos.ingest.rtp import RtpPacket
from voipqos.ingest.sip import SipMessage
from voipqos.metrics import (
    DEFAULT_OVERHEAD_BYTES,
    LossSummary,
    MetricSeries,
    SipDelays,
    bandwidth_series,
    jitter_series,
    loss_summary,
    moving_std,
    r_factor,
    rtt_series,
    series_csvs,
    sip_delays,
    unroll,
    xr_metric_series,
)


def pkt(capture_ts, rtp_ts, seq=0, payload_len=160, header_len=12):
    return RtpPacket(
        version=2,
        payload_type=8,
        seq=seq % 65536,
        rtp_ts=rtp_ts % 2**32,
        ssrc=0x1111,
        payload_len=payload_len,
        capture_ts=capture_ts,
        header_len=header_len,
    )


def xr(report_ts, round_trip_delay=0, **kw):
    return VoipMetricsBlock(
        source_ssrc=0x1111,
        round_trip_delay=round_trip_delay,
        report_ts=report_ts,
        **kw,
    )


def msg(kind, what, ts, cseq=1, cseq_method="INVITE", call_id="c1"):
    return SipMessage(
        kind=kind,
        method_or_status=what,
        call_id=call_id,
        cseq=cseq,
        cseq_method=cseq_method,
        capture_ts=ts,
    )


def pairs(series):
    return list(zip(series.times().tolist(), series.values().tolist()))


def reference_moving_std(t, v, window):
    """Per-window np.std(ddof=1) over (t - window, t]; 0 below two samples."""
    out = []
    for ti in t:
        vals = v[(t > ti - window) & (t <= ti)]
        out.append(float(np.std(vals, ddof=1)) if len(vals) >= 2 else 0.0)
    return np.array(out)


def running_sum_bandwidth(stream, window, overhead_bytes):
    """Reference: the running window sum, one packet at a time."""
    t = np.array([p.capture_ts for p in stream], dtype=float)
    size = np.array(
        [p.payload_len + p.header_len + overhead_bytes for p in stream], dtype=float
    )
    out = []
    lo = 0
    acc = 0.0
    for i in range(len(t)):
        acc += size[i]
        while t[lo] <= t[i] - window:
            acc -= size[lo]
            lo += 1
        out.append(acc * 8.0 / window / 1000.0)
    return out


@st.composite
def spiky_series(draw):
    """Jitter-like series: ms values on a 1 us grid, some 1e4x+ spikes,
    and runs of one repeated value so that some windows are flat. Times
    sit on a 1/1024 s grid, so dyadic windows put samples exactly on the
    open end of a window."""
    n = draw(st.integers(1, 120))
    gaps = draw(st.lists(st.integers(1, 400), min_size=n, max_size=n))
    t = np.cumsum(gaps) / 1024
    base = st.integers(0, 100_000).map(lambda x: x / 1000)
    v = np.array(draw(st.lists(st.one_of(base, st.just(0.1)),
                               min_size=n, max_size=n)))
    spikes = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                     st.integers(10**4, 10**6)),
                           max_size=max(1, n // 4)))
    floor = float(np.median(v)) + 1e-3
    for i, factor in spikes:
        v[i] = floor * factor
    window = draw(st.sampled_from([5 / 1024, 0.0625, 0.375, 1.0, 3.0])
                  | st.floats(0.001, 5.0))
    return t, v, window


class TestUnroll:
    def test_empty(self):
        assert unroll([], 2**16) == []

    def test_no_wrap_identity(self):
        assert unroll([5, 3, 8], 2**16) == [5, 3, 8]

    def test_16bit_wrap(self):
        assert unroll([65534, 65535, 0, 1], 2**16) == [65534, 65535, 65536, 65537]

    def test_32bit_wrap(self):
        vals = [2**32 - 200, 2**32 - 100, 0, 100]
        assert unroll(vals, 2**32) == [2**32 - 200, 2**32 - 100, 2**32, 2**32 + 100]

    def test_backward_wrap(self):
        assert unroll([1, 65535], 2**16) == [1, -1]


class TestJitter:
    def test_constant_transit_is_zero(self):
        # send times 0/20/40, receive times 50/70/90: constant transit.
        # Integer-valued floats keep every subtraction exact, so the zero
        # is bitwise, not approximate.
        stream = [pkt(50.0, 0), pkt(70.0, 20), pkt(90.0, 40)]
        series = jitter_series(stream, clock_rate=1.0)
        assert list(series.values()) == [0.0, 0.0]

    def test_constant_transit_seconds_domain(self):
        # Same case at 8 kHz in seconds; differences of decimal floats
        # leave rounding residue a million times below a microsecond.
        stream = [pkt(0.050, 0), pkt(0.070, 160), pkt(0.090, 320)]
        series = jitter_series(stream, clock_rate=8000.0)
        assert float(np.max(series.values())) <= 1e-9

    def test_hand_values(self):
        stream = [pkt(0.050, 0), pkt(0.072, 160), pkt(0.091, 320)]
        series = jitter_series(stream, clock_rate=8000.0)
        assert series.name == "jitter" and series.unit == "ms"
        assert list(series.times()) == [0.072, 0.091]
        assert series.values() == pytest.approx([2.0, 1.0], rel=1e-9)

    def test_exact_zero_long_stream(self):
        # Receive time built from the same expression the metric uses to
        # reconstruct the send time: transit is exactly 0.0 per packet.
        stream = [pkt(160 * k / 8000, 160 * k, seq=k) for k in range(3000)]
        series = jitter_series(stream, clock_rate=8000.0)
        assert len(series) == 2999
        assert float(np.max(series.values())) == 0.0

    def test_constant_delay_noise_floor(self):
        # A 0.5 s constant delay re-rounds each receive time; the jitter
        # floor stays under a nanosecond (measured ~7e-12 ms).
        stream = [pkt(160 * k / 8000 + 0.5, 160 * k, seq=k) for k in range(3000)]
        series = jitter_series(stream, clock_rate=8000.0)
        assert float(np.max(series.values())) <= 1e-9

    def test_rtp_ts_wrap(self):
        base = 2**32 - 400
        stream = [pkt(1000.0 + 200 * k, (base + 200 * k) % 2**32, seq=k) for k in range(4)]
        series = jitter_series(stream, clock_rate=1.0)
        assert list(series.values()) == [0.0, 0.0, 0.0]

    def test_too_few_packets(self):
        with pytest.raises(TooFewPackets):
            jitter_series([pkt(0.0, 0)], clock_rate=8000.0)
        with pytest.raises(TooFewPackets):
            jitter_series([], clock_rate=8000.0)

    def test_bad_clock_rate(self):
        stream = [pkt(0.0, 0), pkt(1.0, 160)]
        for rate in (0.0, -8000.0):
            with pytest.raises(DomainError):
                jitter_series(stream, clock_rate=rate)

    @given(
        st.lists(st.integers(min_value=0, max_value=2**20), min_size=2, max_size=40),
        st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=39),
    )
    def test_nonnegative(self, sends, gaps):
        n = min(len(sends), len(gaps) + 1)
        t_r = np.cumsum([0] + gaps[: n - 1])
        stream = [pkt(float(t_r[i]), sends[i], seq=i) for i in range(n)]
        series = jitter_series(stream, clock_rate=1.0)
        assert np.all(series.values() >= 0.0)

    @given(
        st.lists(st.integers(min_value=0, max_value=2**20), min_size=2, max_size=40),
        st.integers(min_value=-(2**20), max_value=2**20),
    )
    def test_constant_transit_shift_cancels(self, sends, shift):
        # Adding one constant to every receive time leaves the series
        # unchanged; integer-valued floats make the identity bitwise.
        n = len(sends)
        stream_a = [pkt(float(10 * i), sends[i], seq=i) for i in range(n)]
        stream_b = [pkt(float(10 * i + shift), sends[i], seq=i) for i in range(n)]
        a = jitter_series(stream_a, clock_rate=1.0)
        b = jitter_series(stream_b, clock_rate=1.0)
        assert list(a.values()) == list(b.values())


class TestMovingStd:
    def test_constant_series_is_zero(self):
        # 0.1 and 1/3 do not sum exactly, so their means round
        for value in (5.0, 0.1, 1 / 3):
            series = MetricSeries.create("jitter", np.arange(10.0),
                                         np.full(10, value))
            out = moving_std(series, window=3.0)
            assert out.name == "sigma_j" and out.unit == "ms"
            assert list(out.values()) == [0.0] * 10

    def test_two_values_hand_case(self):
        series = MetricSeries.create("jitter", [0.0, 0.5], [0.0, 2.0])
        out = moving_std(series, window=1.0)
        assert out.values()[0] == 0.0
        assert out.values()[1] == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_singleton_windows_are_zero(self):
        series = MetricSeries.create("jitter", 2.0 * np.arange(8), np.arange(8.0))
        out = moving_std(series, window=1.0)
        assert list(out.values()) == [0.0] * 8

    def test_signal_level_maps_to_sigma_sl(self):
        series = MetricSeries.create("signal_level", [0.0, 0.5], [-10.0, -14.0])
        out = moving_std(series, window=1.0)
        assert out.name == "sigma_sl" and out.unit == "dBm"
        assert out.values()[1] == pytest.approx(math.sqrt(8.0), rel=1e-12)

    def test_matches_naive_recompute(self):
        rng = np.random.default_rng(7)
        t = np.sort(rng.uniform(0.0, 20.0, size=200))
        t = np.unique(t)
        v = rng.normal(5.0, 2.0, size=len(t))
        series = MetricSeries.create("jitter", t, np.abs(v))
        out = moving_std(series, window=0.37)
        assert np.array_equal(out.times(), t)
        want = reference_moving_std(t, np.abs(v), 0.37)
        assert out.values() == pytest.approx(want, abs=1e-12)

    @given(spiky_series())
    def test_matches_per_window_std(self, case):
        t, v, window = case
        got = moving_std(MetricSeries.create("jitter", t, v), window).values()
        want = reference_moving_std(t, v, window)
        for ti, g, w in zip(t, got, want):
            vals = v[(t > ti - window) & (t <= ti)]
            if np.all(vals == vals[0]):
                assert g == 0.0
            elif w == 0.0:
                assert g == pytest.approx(0.0, abs=1e-12)
            else:
                assert g == pytest.approx(w, rel=1e-9)

    def test_rejects_bad_window_and_name(self):
        series = MetricSeries.create("jitter", [0.0, 1.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            moving_std(series, window=0.0)
        bw = MetricSeries.create("bandwidth", [0.0], [80.0])
        with pytest.raises(DomainError):
            moving_std(bw, window=1.0)


class TestBandwidth:
    @staticmethod
    def fifty_pps(seconds, payload_len, header_len):
        # 50 packets per second on a dyadic 1/64 s grid: every window
        # arithmetic step is exact, so steady-state values are too.
        stream = []
        seq = 0
        for i in range(seconds):
            for j in range(50):
                stream.append(
                    pkt(i + j / 64, 160 * seq, seq=seq, payload_len=payload_len,
                        header_len=header_len)
                )
                seq += 1
        return stream

    def test_steady_state_80_kbps(self):
        # 50 pkts/s x (160 B payload + 40 B headers) x 8 / 1000 = 80 kbps.
        stream = self.fifty_pps(6, payload_len=160, header_len=40)
        series = bandwidth_series(stream, window=1.0, overhead_bytes=0)
        assert series.name == "bandwidth" and series.unit == "kbps"
        steady = series.values()[50:]
        assert np.all(steady == 80.0)

    def test_prefix_counts_only_seen_packets(self):
        stream = self.fifty_pps(2, payload_len=160, header_len=40)
        series = bandwidth_series(stream, window=1.0, overhead_bytes=0)
        assert series.values()[0] == 1.6  # one 200-byte packet in window
        assert series.values()[9] == 16.0  # ten packets so far

    def test_g711a_operating_point(self):
        # 64 kbps payload rate (160 B @ 50 pps); with IP+UDP overhead the
        # consumed figure is exactly 80 kbps, and with full link-layer
        # accounting (40 B/packet) it sits at 84.8, the "about 85" point.
        stream = self.fifty_pps(4, payload_len=160, header_len=12)
        ip_udp = bandwidth_series(stream, window=1.0)
        assert DEFAULT_OVERHEAD_BYTES == 28
        assert np.all(ip_udp.values()[50:] == 80.0)
        link = bandwidth_series(stream, window=1.0, overhead_bytes=40)
        steady = link.values()[50:]
        assert np.all(steady == 84.8)
        assert np.all(np.abs(steady - 85.0) < 1.0)

    def test_linear_in_packet_size(self):
        # Doubling every packet's byte count doubles every output sample
        # exactly (binary doubling is lossless).
        base = self.fifty_pps(3, payload_len=100, header_len=20)
        doubled = [
            pkt(p.capture_ts, p.rtp_ts, seq=p.seq,
                payload_len=2 * p.payload_len + p.header_len,
                header_len=p.header_len)
            for p in base
        ]
        a = bandwidth_series(base, window=1.0, overhead_bytes=0)
        b = bandwidth_series(doubled, window=1.0, overhead_bytes=0)
        assert list(b.values()) == [2.0 * v for v in a.values()]

    @given(
        gaps=st.lists(st.integers(1, 8), min_size=1, max_size=200),
        sizes=st.lists(st.integers(0, 1500), min_size=200, max_size=200),
        window=st.sampled_from([1 / 64, 1 / 16, 0.5, 1.0])
        | st.floats(0.001, 3.0),
        overhead=st.integers(0, 64),
    )
    def test_equals_running_sum(self, gaps, sizes, window, overhead):
        # a 1/128 s grid puts packets exactly on the open end of dyadic
        # windows
        times = np.cumsum(gaps) / 128
        stream = [pkt(float(ts), 160 * i, seq=i, payload_len=sizes[i])
                  for i, ts in enumerate(times)]
        series = bandwidth_series(stream, window=window, overhead_bytes=overhead)
        assert series.times().tolist() == times.tolist()
        assert series.values().tolist() == running_sum_bandwidth(
            stream, window, overhead)

    @given(
        times=st.lists(st.floats(0.0, 1e6), min_size=2, max_size=60,
                       unique=True).map(sorted),
        sizes=st.lists(st.integers(0, 1500), min_size=60, max_size=60),
        window=st.floats(0.001, 3.0),
    )
    def test_jitter_times_are_bandwidth_times_from_the_second(
            self, times, sizes, window):
        # build_session_report takes bandwidth at the jitter times by
        # slicing; interpolating at them gives the same bits
        stream = [pkt(ts, 160 * i, seq=i, payload_len=sizes[i])
                  for i, ts in enumerate(times)]
        jitter = jitter_series(stream, clock_rate=8000.0)
        bw = bandwidth_series(stream, window=window)
        assert jitter.t.tobytes() == bw.t[1:].tobytes()
        at_jitter = np.interp(jitter.t, bw.t, bw.v)
        assert at_jitter.tobytes() == bw.v[1:].tobytes()

    def test_empty_stream(self):
        series = bandwidth_series([], window=1.0)
        assert len(series) == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            bandwidth_series([], window=0.0)
        with pytest.raises(DomainError):
            bandwidth_series([], window=1.0, overhead_bytes=-1)


class TestLoss:
    def test_complete_run(self):
        stream = [pkt(float(i), 160 * i, seq=i) for i in range(1, 11)]
        out = loss_summary(stream)
        assert out == LossSummary(expected=10, received=10, loss_pct=0.0)

    def test_ten_percent(self):
        seqs = [i for i in range(1, 11) if i != 5]
        stream = [pkt(float(i), 160 * i, seq=s) for i, s in enumerate(seqs)]
        out = loss_summary(stream)
        assert out == LossSummary(expected=10, received=9, loss_pct=10.0)

    def test_wraparound(self):
        stream = [
            pkt(float(i), 160 * i, seq=s) for i, s in enumerate([65534, 65535, 0, 1])
        ]
        out = loss_summary(stream)
        assert out.expected == 4 and out.received == 4 and out.loss_pct == 0.0

    def test_duplicates_clamped(self):
        stream = [pkt(float(i), 160 * i, seq=s) for i, s in enumerate([1, 1, 2, 3])]
        out = loss_summary(stream)
        assert out.expected == 3 and out.received == 3 and out.loss_pct == 0.0

    def test_empty_raises(self):
        with pytest.raises(TooFewPackets):
            loss_summary([])

    @given(
        st.integers(min_value=0, max_value=65535),
        st.sets(st.integers(min_value=0, max_value=30000), min_size=1, max_size=60),
        st.randoms(use_true_random=False),
    )
    def test_order_invariance(self, base, offsets, rnd):
        seqs = [(base + o) % 65536 for o in sorted(offsets)]
        shuffled = list(seqs)
        rnd.shuffle(shuffled)
        a = loss_summary([pkt(float(i), 0, seq=s) for i, s in enumerate(seqs)])
        b = loss_summary([pkt(float(i), 0, seq=s) for i, s in enumerate(shuffled)])
        assert a.loss_pct == b.loss_pct
        assert (a.expected, a.received) == (b.expected, b.received)


# Reference OPUS round-trip model (tests/gev_models.py) and its mean
# mu + sigma*(Gamma(1-xi)-1)/xi, frozen from an independent
# high-precision evaluation.
OPUS_RTT = GevParams(xi=0.2077, sigma=12.0708, mu=123.9454)
OPUS_RTT_MEAN = 133.99916033817917053


class TestRtt:
    def test_projection(self):
        blocks = [xr(1.0, 120), xr(2.5, 150)]
        series = rtt_series(blocks)
        assert series.name == "rtt" and series.unit == "ms"
        assert pairs(series) == [(1.0, 120.0), (2.5, 150.0)]

    def test_zero_means_unmeasured(self):
        blocks = [xr(1.0, 120), xr(2.0, 0), xr(3.0, 150)]
        assert len(rtt_series(blocks)) == 2

    def test_duplicate_report_time_keeps_first(self):
        blocks = [xr(1.0, 120), xr(1.0, 999)]
        series = rtt_series(blocks)
        assert pairs(series) == [(1.0, 120.0)]

    def test_empty(self):
        assert len(rtt_series([])) == 0

    def test_unsorted_input(self):
        blocks = [xr(2.0, 150), xr(1.0, 120)]
        assert list(rtt_series(blocks).values()) == [120.0, 150.0]

    def test_gev_synthetic_mean(self):
        draws = gev_sample(OPUS_RTT, 4000, seed=20260817)
        blocks = [
            xr(5.0 * i, int(round(d))) for i, d in enumerate(draws)
        ]
        series = rtt_series(blocks)
        mean = float(np.mean(series.values()))
        assert abs(mean - OPUS_RTT_MEAN) / OPUS_RTT_MEAN < 0.05


class TestRFactor:
    def test_best_quality(self):
        assert r_factor(94, 0, 0, 0, 0) == 94.0

    def test_linear_combination(self):
        assert r_factor(94, 1, 2, 5, 0) == 86.0

    def test_lower_clamp(self):
        assert r_factor(50, 60, 0, 0, 0) == 0.0

    def test_upper_clamp(self):
        assert r_factor(94, 0, 0, 0, 20) == 100.0


class TestXrSeries:
    def test_unavailable_r_factor_skipped(self):
        blocks = [
            xr(1.0, r_factor=90),
            xr(2.0, r_factor=UNAVAILABLE),
            xr(3.0, r_factor=88),
        ]
        series = xr_metric_series(blocks, "r_factor")
        assert series.name == "r_factor" and series.unit == "score"
        assert pairs(series) == [(1.0, 90.0), (3.0, 88.0)]

    def test_signal_level_signed(self):
        block = xr(1.0, signal_level=-12)
        # wire byte is the two's complement 0xF4 (word 4 of the body,
        # offset 20 from the block header)
        assert encode_voip_metrics(block)[20] == 0xF4
        series = xr_metric_series([block], "signal_level")
        assert pairs(series) == [(1.0, -12.0)]
        assert series.unit == "dBm"

    def test_unavailable_signal_skipped(self):
        blocks = [xr(1.0, signal_level=UNAVAILABLE), xr(2.0, signal_level=-3)]
        assert pairs(xr_metric_series(blocks, "signal_level")) == [(2.0, -3.0)]

    def test_empty(self):
        assert len(xr_metric_series([], "r_factor")) == 0

    def test_unknown_field_rejected(self):
        with pytest.raises(DomainError):
            xr_metric_series([], "mos_lq")


class TestSipDelays:
    def test_setup_delay_exact(self):
        # 1.0 and 2.392 subtract without rounding, so equality is exact.
        dialog = [
            msg("request", "INVITE", 1.0),
            msg("response", 180, 2.392),
            msg("response", 200, 3.0),
        ]
        out = sip_delays(dialog)
        assert out.csd == 1.392
        assert out.sdd is None

    def test_disconnect_delay_exact(self):
        dialog = [
            msg("request", "BYE", 0.0, cseq=2, cseq_method="BYE"),
            msg("response", 200, 0.1981, cseq=2, cseq_method="BYE"),
        ]
        out = sip_delays(dialog)
        assert out.sdd == 0.1981
        assert out.csd is None

    def test_reference_timestamps(self):
        # The same differences taken at decimal bases 10/100 carry float
        # residue below a nanosecond; values are the documented 1.392 s
        # and 0.1981 s.
        dialog = [
            msg("request", "INVITE", 10.000),
            msg("response", 180, 11.392),
            msg("request", "BYE", 100.0000, cseq=2, cseq_method="BYE"),
            msg("response", 200, 100.1981, cseq=2, cseq_method="BYE"),
        ]
        out = sip_delays(dialog)
        assert out.csd == pytest.approx(1.392, abs=1e-9)
        assert out.sdd == pytest.approx(0.1981, abs=1e-9)

    def test_missing_ringing(self):
        dialog = [msg("request", "INVITE", 1.0), msg("response", 200, 2.0)]
        assert sip_delays(dialog) == SipDelays(csd=None, sdd=None)

    def test_empty_dialog(self):
        assert sip_delays([]) == SipDelays(csd=None, sdd=None)

    def test_unrelated_messages_ignored(self):
        dialog = [
            msg("request", "INVITE", 1.0),
            msg("request", "OPTIONS", 1.5, cseq=7, cseq_method="OPTIONS"),
            msg("response", 200, 1.6, cseq=7, cseq_method="OPTIONS"),
            msg("response", 180, 2.392),
        ]
        out = sip_delays(dialog)
        assert out.csd == 1.392

    def test_cseq_mismatch_not_matched(self):
        dialog = [
            msg("request", "INVITE", 1.0),
            msg("response", 180, 2.0, cseq=99),
        ]
        assert sip_delays(dialog).csd is None

    def test_response_before_request_not_matched(self):
        dialog = [
            msg("response", 180, 0.5),
            msg("request", "INVITE", 1.0),
        ]
        assert sip_delays(dialog).csd is None


class TestMetricSeries:
    def test_unit_table_enforced(self):
        series = MetricSeries.create("rtt", [0.0], [150.0])
        assert series.unit == "ms"
        with pytest.raises(DomainError):
            MetricSeries.create("mos", [0.0], [1.0])

    def test_times_strictly_increasing(self):
        with pytest.raises(DomainError):
            MetricSeries.create("jitter", [0.0, 0.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            MetricSeries.create("jitter", [1.0, 0.5], [1.0, 2.0])

    def test_finite_samples_only(self):
        with pytest.raises(DomainError):
            MetricSeries.create("jitter", [0.0], [math.nan])
        with pytest.raises(DomainError):
            MetricSeries.create("jitter", [math.inf], [1.0])

    def test_csv_shape(self):
        series = MetricSeries.create("jitter", [0.5, 1.0], [1.25, 2.0])
        assert series_csvs([series]) == (
            {"jitter.csv": "t,jitter\n0.5,1.25\n1.0,2.0\n"},
            {"jitter": "jitter.csv"})

    def test_csv_values_round_trip(self):
        series = MetricSeries.create("jitter", [1 / 3], [2 / 7])
        files, _ = series_csvs([series])
        t, v = files["jitter.csv"].splitlines()[1].split(",")
        assert float(t) == 1 / 3 and float(v) == 2 / 7

    def test_array_accessors(self):
        series = MetricSeries.create("rtt", [0.0, 5.0], [120.0, 150.0])
        assert len(series) == 2
        assert series.times().tolist() == [0.0, 5.0]
        assert series.values().tolist() == [120.0, 150.0]
