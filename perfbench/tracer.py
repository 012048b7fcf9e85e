"""Layer tracing from outside the package.

``Tracer`` replaces public functions with wrappers at the module
attributes their callers look up, records a span per call (name, start,
end, parent span) in memory and counts calls where timing them would
cost more than the work. ``LAYERS`` lists every wrapped binding; the
same function imported under two names is wrapped at both, because each
caller reads its own module's attribute.

A span's self time is its duration minus the durations of its direct
children. Spans of one thread nest, so children never overlap and the
self times of all spans add up to the time covered by the root spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

from voipqos.evt import default_candidates


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.spans: list[list] = []  # [id, parent id or None, name, start, end]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def span(self, name: str, fn, observe=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``observe(counts, args, result, exc)`` runs after the span ends.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            record = [sid, self._open[-1] if self._open else None, name,
                      self._clock(), None]
            self.spans.append(record)
            self._open.append(sid)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                record[4] = self._clock()
                self._open.pop()
                if observe is not None:
                    observe(self.counts, args, result, exc)

        return wrapper

    def count(self, name: str, fn):
        """Wrap ``fn`` so each call adds one to ``counts[name]``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, module, attr: str, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> dict:
        """Seconds per span name, excluding time spent in child spans."""
        inner: dict = defaultdict(float)
        for _sid, parent, _name, start, end in self.spans:
            if parent is not None:
                inner[parent] += end - start
        out: dict = defaultdict(float)
        for sid, _parent, name, start, end in self.spans:
            out[name] += (end - start) - inner[sid]
        return dict(out)


# --- observers: counts taken where the work happens -----------------------

def _records(counts, args, result, exc):
    if result is not None:
        counts["capture.records"] += len(result)


def _assembly(counts, args, result, exc):
    counts["sessions.records"] += len(args[0])
    if result is not None:
        counts["sessions.count"] += len(result.sessions)
        counts["sessions.residue"] += len(result.residue)


def _samples(counts, args, result, exc):
    if result is not None:
        counts["metrics.samples"] += len(result)


def _gev_fit(counts, args, result, exc):
    counts["evt.fit_gev_mle.calls"] += 1
    fit = result if result is not None else getattr(exc, "fit", None)
    if fit is not None:
        counts["evt.gev_iterations"] += fit.iterations
        counts["evt.gev_converged"] += bool(fit.converged)


def _selection(counts, args, result, exc):
    candidates = args[1] if len(args) > 1 and args[1] is not None \
        else default_candidates()
    counts["evt.families_attempted"] += len(candidates)
    if result is not None:
        counts["evt.families_ranked"] += len(result)


# (module, attribute, layer name, observer); None as layer name counts
# calls under "<last module part>.<attribute>.calls" without timing them.
LAYERS = (
    ("voipqos.cli", "analyze_capture", "export.write", None),
    ("voipqos.cli", "merge_reports", "report.merge", None),
    ("voipqos.cli", "select_model", "evt.select_model", _selection),
    ("voipqos.cli", "fit_gev_mle", "evt.fit_gev_mle", _gev_fit),
    ("voipqos.cli.analyze", "parse_pcap", "capture.parse", _records),
    ("voipqos.cli.analyze", "assemble_sessions", "sessions.assemble", _assembly),
    ("voipqos.cli.analyze", "build_session_report", "export.render", None),
    ("voipqos.cli.analyze", "jitter_series", "metrics.jitter_series", _samples),
    ("voipqos.cli.analyze", "moving_std", "metrics.moving_std", _samples),
    ("voipqos.cli.analyze", "bandwidth_series", "metrics.bandwidth_series",
     _samples),
    ("voipqos.cli.analyze", "rtt_series", "metrics.xr_series", _samples),
    ("voipqos.cli.analyze", "xr_metric_series", "metrics.xr_series", _samples),
    ("voipqos.cli.analyze", "fit_gev_mle", "evt.fit_gev_mle", _gev_fit),
    ("voipqos.cli.analyze", "select_model", "evt.select_model", _selection),
    ("voipqos.cli.analyze", "empirical_cdf", "stats.empirical_cdf", None),
    ("voipqos.cli.analyze", "bivariate_hist", "stats.bivariate_hist", None),
    ("voipqos.cli.analyze", "pca", "stats.pca", None),
    ("voipqos.cli.report", "pca", "stats.pca", None),
    ("voipqos.evt.select", "fit_gev_mle", "evt.fit_gev_mle", _gev_fit),
    ("voipqos.ingest.sessions", "parse_rtp", None, None),
    ("voipqos.ingest.sessions", "parse_rtcp_xr", None, None),
    ("voipqos.ingest.sessions", "parse_sip", None, None),
)


def install(tracer: Tracer) -> None:
    """Wrap every binding in ``LAYERS``; ``tracer.restore()`` undoes it."""
    for module_name, attr, layer, observe in LAYERS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        if layer is None:
            short = module_name.rsplit(".", 1)[-1]
            tracer.patch(module, attr, tracer.count(f"{short}.{attr}.calls", fn))
        else:
            tracer.patch(module, attr, tracer.span(layer, fn, observe))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


TIMED_LAYERS = sorted({layer for _, _, layer, _ in LAYERS if layer})
COUNTED_CALLS = sorted(
    f"{m.rsplit('.', 1)[-1]}.{a}.calls" for m, a, layer, _ in LAYERS if not layer
)


def layer_metrics(self_times: dict, counts: Counter) -> dict:
    """Per-layer metrics of one traced repetition, as {name: (value, unit)}."""
    out = {f"{layer}_s": (self_times.get(layer, 0.0), "s")
           for layer in TIMED_LAYERS}
    for name in COUNTED_CALLS:
        out[name] = (counts[name], "count")
    for name in ("capture.records", "sessions.count", "sessions.residue",
                 "metrics.samples", "evt.fit_gev_mle.calls",
                 "evt.gev_iterations"):
        out[name] = (counts[name], "count")
    out["capture.us_per_record"] = (
        1e6 * _ratio(self_times.get("capture.parse", 0.0),
                     counts["capture.records"]), "us")
    out["sessions.us_per_record"] = (
        1e6 * _ratio(self_times.get("sessions.assemble", 0.0),
                     counts["sessions.records"]), "us")
    out["evt.fits_converged_ratio"] = (
        _ratio(counts["evt.gev_converged"], counts["evt.fit_gev_mle.calls"]),
        "ratio")
    out["evt.families_ranked_ratio"] = (
        _ratio(counts["evt.families_ranked"], counts["evt.families_attempted"]),
        "ratio")
    return out
