"""Per-call quality metrics over decoded sessions.

Each metric comes back as a MetricSeries or a small summary dataclass.
The per-packet metrics read an RtpStream's columns; a list of RtpPacket
is turned into one first.
A MetricSeries is a unit-tagged time series stored as two read-only
float64 arrays (sample times and values), so the windowed metrics
(moving_std, bandwidth_series) locate every trailing window with one
searchsorted call instead of a per-sample loop. Jitter follows the
absolute-difference form

    J_n = |(t_r(n) - t_t(n)) - (t_r(n-1) - t_t(n-1))|

with the send time t_t reconstructed from the RTP timestamp at the codec
clock rate; the unknown constant clock offset between endpoints cancels
in the difference, so no synchronization is needed. No exponential
smoothing is applied: each sample is |D| itself, not the running 1/16
estimator of RFC 3550.

Series leave as CSV text through ``series_csvs``: one file per time
axis, with a column per series on it, so each axis and each repeated
value is formatted once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyData, TooFewPackets
from .ingest.rtcp_xr import UNAVAILABLE, VoipMetricsBlock, XrBlocks
from .ingest.rtp import RtpPacket, RtpStream
from .ingest.sip import SipMessage

#: Fixed unit per metric name, and the names a MetricSeries may carry,
#: in the order ``series_csvs`` places the series in files.
UNIT_BY_NAME = {
    "bandwidth": "kbps",
    "jitter": "ms",
    "sigma_j": "ms",
    "rtt": "ms",
    "r_factor": "score",
    "signal_level": "dBm",
    "sigma_sl": "dBm",
}

#: moving_std output name per input name.
_SIGMA_NAME = {"jitter": "sigma_j", "signal_level": "sigma_sl"}

#: Default per-packet transport overhead: IPv4 (20) + UDP (8) bytes.
DEFAULT_OVERHEAD_BYTES = 28


@dataclass(frozen=True)
class MetricSeries:
    """Named, unit-tagged time series held as two read-only float64 arrays.

    ``t`` holds strictly increasing sample times and ``v`` the value at
    each; both are finite, equally long, and owned by the series.
    """

    name: str
    t: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        if self.name not in UNIT_BY_NAME:
            raise DomainError(f"unknown metric name {self.name!r}")
        t = np.array(self.t, dtype=np.float64)
        v = np.array(self.v, dtype=np.float64)
        if t.ndim != 1 or t.shape != v.shape:
            raise DomainError("sample times and values must be equal-length 1-D")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise DomainError("sample times and values must be finite")
        if np.any(np.diff(t) <= 0.0):
            raise DomainError("sample times must be strictly increasing")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "v", v)

    @classmethod
    def create(cls, name: str, times, values) -> "MetricSeries":
        return cls(name=name, t=times, v=values)

    @property
    def unit(self) -> str:
        """The unit fixed for the series' name (UNIT_BY_NAME)."""
        return UNIT_BY_NAME[self.name]

    def times(self) -> np.ndarray:
        return self.t

    def values(self) -> np.ndarray:
        return self.v

    def __len__(self) -> int:
        return len(self.t)


#: Rows per block in series_csvs: only one block's cell and row strings
#: are alive at a time.
CSV_BLOCK_ROWS = 1024


def float_cells(*columns: np.ndarray) -> list[list[str]]:
    """``repr`` of each float64 value, one list per column.

    Each distinct bit pattern across all the columns is formatted once.
    Values are keyed on their int64 bit view, so 0.0 and -0.0 keep their
    own text.
    """
    values = np.concatenate(columns, dtype=np.float64)
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    cells = texts[index].tolist()
    ends = np.cumsum([len(c) for c in columns]).tolist()
    return [cells[a:b] for a, b in zip([0] + ends, ends)]


def csv_rows(*columns) -> str:
    """Comma-joined rows of equally long cell columns, each ending in a newline."""
    lines = list(map(",".join, zip(*columns)))
    lines.append("")
    return "\n".join(lines)


def series_csvs(series) -> tuple[dict[str, str], dict[str, str]]:
    """The CSV files of a session's series: ``({file name: text},
    {series name: its file name})``.

    Series are placed in the order of UNIT_BY_NAME. A series joins the
    first earlier file when its times equal a suffix of that file's
    axis, compared bit for bit; otherwise it starts ``<name>.csv``, whose
    axis is its times. A file's header is ``t`` and its series' names;
    a series' cells are empty on the rows before its first time. Each
    cell is the float's shortest round-trip ``repr``. Rows are built one
    block of CSV_BLOCK_ROWS axis rows at a time; one ``float_cells``
    call formats the block's values of every series in the file. An
    empty series has no row to place and is refused.
    """
    series = sorted(series, key=lambda s: list(UNIT_BY_NAME).index(s.name))
    names = [s.name for s in series]
    if len(set(names)) != len(names):
        raise DomainError("series names must be distinct")
    if not all(map(len, series)):
        raise EmptyData("an empty series has no rows to write")
    # (axis times, [(series, offset)]): series.t == axis[offset:]
    axes: list[tuple[np.ndarray, list]] = []
    for s in series:
        bits = s.t.view(np.int64)
        for axis, members in axes:
            offset = len(axis) - len(s)
            if offset >= 0 and np.array_equal(axis[offset:].view(np.int64), bits):
                members.append((s, offset))
                break
        else:
            axes.append((s.t, [(s, 0)]))
    files, file_of = {}, {}
    for axis, members in axes:
        file_name = f"{members[0][0].name}.csv"
        chunks = [",".join(["t"] + [s.name for s, _ in members]) + "\n"]
        for start in range(0, len(axis), CSV_BLOCK_ROWS):
            stop = start + CSV_BLOCK_ROWS
            # strictly increasing times are distinct: nothing to reuse
            times = list(map(repr, axis[start:stop].tolist()))
            values = float_cells(*(
                s.v[max(start - offset, 0):max(stop - offset, 0)]
                for s, offset in members
            ))
            # a series' rows are a suffix of the axis: pad the rows before
            columns = [[""] * (len(times) - len(cells)) + cells
                       for cells in values]
            chunks.append(csv_rows(times, *columns))
        files[file_name] = "".join(chunks)
        file_of.update((s.name, file_name) for s, _ in members)
    return files, file_of


@dataclass(frozen=True)
class LossSummary:
    expected: int
    received: int
    loss_pct: float


@dataclass(frozen=True)
class SipDelays:
    csd: float | None  # call setup delay, seconds
    sdd: float | None  # session disconnect delay, seconds


def _unroll(values: np.ndarray, modulus: int) -> np.ndarray:
    """Undo modular wrap-around: each step is the signed delta nearest 0."""
    v = np.asarray(values, dtype=np.int64)
    if not len(v):
        return v
    half = modulus // 2
    delta = (np.diff(v) + half) % modulus - half
    return np.concatenate((v[:1], v[0] + np.cumsum(delta)))


def unroll(values, modulus: int) -> list[int]:
    """Undo modular wrap-around by accumulating signed deltas."""
    return _unroll(np.fromiter(values, dtype=np.int64), modulus).tolist()


def jitter_series(
    stream: RtpStream | list[RtpPacket], clock_rate: float
) -> MetricSeries:
    """Per-packet jitter in ms; one sample per packet from the second on."""
    if not clock_rate > 0:
        raise DomainError(f"clock rate must be positive, got {clock_rate}")
    stream = RtpStream.from_rows(stream)
    if len(stream) < 2:
        raise TooFewPackets(f"jitter needs >= 2 packets, got {len(stream)}")
    t_t = _unroll(stream.rtp_ts, 2**32).astype(float) / float(clock_rate)
    t_r = stream.capture_ts
    transit = t_r - t_t
    diffs = np.abs(np.diff(transit)) * 1000.0
    return MetricSeries.create("jitter", t_r[1:], diffs)


# cells per block of gathered windows in moving_std
_BLOCK_CELLS = 1 << 16


def moving_std(series: MetricSeries, window: float = 1.0) -> MetricSeries:
    """Sample standard deviation over the trailing window (t-window, t].

    Defined at every input sample time; windows holding fewer than two
    samples yield 0. Output is named sigma_j for jitter input and
    sigma_sl for signal_level input.
    """
    if not window > 0:
        raise DomainError(f"window must be positive, got {window}")
    out_name = _SIGMA_NAME.get(series.name)
    if out_name is None:
        raise DomainError(
            f"no moving-deviation metric defined for {series.name!r}"
        )
    t = series.times()
    v = series.values()
    sd = np.zeros(len(t))
    # trailing window of sample i is v[lo[i] : i + 1]
    lo = np.searchsorted(t, t - window, side="right")
    count = np.arange(1, len(t) + 1) - lo
    rows = np.nonzero(count >= 2)[0]
    lo, count = lo[rows], count[rows]
    # Windows are gathered as rows of a (rows, width) matrix, a block of
    # about _BLOCK_CELLS cells at a time; a running sum along each row
    # read at column count - 1 adds left to right, as a loop over the
    # window would. Cells past a window's end only follow that column.
    # Values are taken relative to the window's first one, so a window
    # of equal values gives exactly 0.
    width = int(count.max(initial=0))
    step = max(1, _BLOCK_CELLS // max(width, 1))
    offsets = np.arange(width)
    squares = np.empty(len(rows))
    for start in range(0, len(rows), step):
        blo, bcount = lo[start:start + step], count[start:start + step]
        last = (np.arange(len(blo)), bcount - 1)
        idx = np.minimum(blo[:, None] + offsets, len(v) - 1)
        cells = v[idx]
        cells -= v[blo][:, None]
        mean = np.cumsum(cells, axis=1)[last] / bcount
        cells -= mean[:, None]
        cells *= cells
        squares[start:start + step] = np.cumsum(cells, axis=1)[last]
    sd[rows] = np.sqrt(squares / (count - 1))
    return MetricSeries.create(out_name, t, sd)


def bandwidth_series(
    stream: RtpStream | list[RtpPacket],
    window: float = 1.0,
    overhead_bytes: int = DEFAULT_OVERHEAD_BYTES,
) -> MetricSeries:
    """Moving-average consumed bandwidth in kbps at each packet time.

    Each packet contributes payload + RTP header + ``overhead_bytes``
    (defaults to IPv4+UDP) to the window sum.
    """
    if not window > 0:
        raise DomainError(f"window must be positive, got {window}")
    if overhead_bytes < 0:
        raise DomainError("overhead_bytes must be >= 0")
    stream = RtpStream.from_rows(stream)
    t = stream.capture_ts
    size = (stream.size + overhead_bytes).astype(float)
    # window (t - window, t] holds packets lo..i; sizes are integers, so
    # the cumulative sums and their differences are exact
    lo = np.searchsorted(t, t - window, side="right")
    cum = np.concatenate(([0.0], np.cumsum(size)))
    acc = cum[1:] - cum[lo]
    return MetricSeries.create("bandwidth", t, acc * 8.0 / window / 1000.0)


def loss_summary(stream: RtpStream | list[RtpPacket]) -> LossSummary:
    """Packet loss from the unrolled sequence-number span."""
    stream = RtpStream.from_rows(stream)
    if not len(stream):
        raise TooFewPackets("loss needs at least one packet")
    seqs = np.sort(_unroll(stream.seq, 2**16))
    expected = int(seqs[-1] - seqs[0]) + 1
    received = int(np.count_nonzero(np.diff(seqs))) + 1  # distinct seqs
    loss_pct = max(0.0, 100.0 * (expected - received) / expected)
    return LossSummary(expected=expected, received=received, loss_pct=loss_pct)


def _xr_projection(
    xr: XrBlocks | list[VoipMetricsBlock], name: str, field: str, missing: int
) -> MetricSeries:
    """Series ``name`` of block column ``field`` over report times.

    Blocks whose value is ``missing`` are skipped. Blocks sharing one
    report time (one compound reporting several streams) keep only the
    first; feed per-direction blocks to avoid that.
    """
    xr = XrBlocks.from_rows(xr)
    order = np.argsort(xr.report_ts, kind="stable")
    times, values = xr.report_ts[order], getattr(xr, field)[order]
    present = values != missing
    times, values = times[present], values[present]
    first = np.ones(len(times), dtype=bool)
    first[1:] = times[1:] != times[:-1]
    return MetricSeries.create(name, times[first], values[first])


def rtt_series(xr: XrBlocks | list[VoipMetricsBlock]) -> MetricSeries:
    """Round-trip delay over report times, ms; 0 ("not measured") skipped."""
    return _xr_projection(xr, "rtt", "round_trip_delay", 0)


def r_factor(r0: float, is_: float, id_: float, ieff: float, a: float) -> float:
    """E-model rating R0 - Is - Id - Ieff + A, clamped to [0, 100]."""
    return float(min(100.0, max(0.0, r0 - is_ - id_ - ieff + a)))


def xr_metric_series(
    xr: XrBlocks | list[VoipMetricsBlock], which: str
) -> MetricSeries:
    """Project r_factor or signal_level over report times; 127 skipped."""
    if which not in ("r_factor", "signal_level"):
        raise DomainError(f"which must be r_factor or signal_level, got {which!r}")
    return _xr_projection(xr, which, which, UNAVAILABLE)


def sip_delays(dialog: list[SipMessage]) -> SipDelays:
    """Call setup delay (INVITE to 180) and disconnect delay (BYE to 200).

    Responses match on the CSeq number and method of their request;
    unrelated messages in between are ignored. A missing endpoint leaves
    that delay absent.
    """
    invite = next(
        (
            m
            for m in dialog
            if m.kind == "request" and m.method_or_status == "INVITE"
        ),
        None,
    )
    bye = next(
        (m for m in dialog if m.kind == "request" and m.method_or_status == "BYE"),
        None,
    )

    def first_response(code: int, request: SipMessage | None) -> SipMessage | None:
        if request is None:
            return None
        for m in dialog:
            if (
                m.kind == "response"
                and m.method_or_status == code
                and m.cseq == request.cseq
                and m.cseq_method == request.method_or_status
                and m.capture_ts >= request.capture_ts
            ):
                return m
        return None

    ringing = first_response(180, invite)
    bye_ok = first_response(200, bye)
    return SipDelays(
        csd=ringing.capture_ts - invite.capture_ts if ringing else None,
        sdd=bye_ok.capture_ts - bye.capture_ts if bye_ok else None,
    )
