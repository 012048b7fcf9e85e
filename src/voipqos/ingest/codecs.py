"""Codec catalogue and RTP payload-type resolution.

The eight voice codecs the toolkit knows about, with the sampling
frequency doubling as the RTP clock rate used to reconstruct sender
timestamps. Payload-type numbers are only standardized for a handful of
static types; dynamic types (>= 96) must be declared per capture via a
JSON map file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..errors import DomainError


@dataclass(frozen=True)
class Codec:
    name: str
    algorithm: str
    bitrate_kbps: float | None  # None for variable-bitrate codecs
    bitrate_label: str
    clock_rate: int  # Hz


CODECS: dict[str, Codec] = {
    c.name: c
    for c in (
        Codec("G711-A", "PCM", 64.0, "64", 8000),
        Codec("G722", "ADPCM", 64.0, "64", 16000),
        Codec("G729", "CS-ACELP", 8.0, "8", 8000),
        Codec("GSM", "RPE-LTP", 8.0, "8", 8000),
        Codec("SPX-8", "CELP", 8.0, "8", 8000),
        Codec("SPX-16", "CELP", 16.0, "16", 16000),
        Codec("OPUS", "LP-MDTC", None, "VBR 6-128", 48000),
        Codec("MPEG-16", "CELP", 16.0, "16", 16000),
    )
}

# Static payload types with an unambiguous codec in the catalogue.
# (Type 0 is PCM u-law, which is not in the catalogue, so it is absent.)
STATIC_PAYLOAD_TYPES: dict[int, str] = {
    3: "GSM",
    8: "G711-A",
    9: "G722",
    18: "G729",
}


def load_codec_map(source: str | Path | dict | None = None) -> dict[int, str]:
    """Build payload-type -> codec-name map, static types plus overrides.

    ``source`` may be a JSON file path or an already-parsed dict whose
    keys are payload-type numbers (as int or str) and values catalogue
    codec names.
    """
    table = dict(STATIC_PAYLOAD_TYPES)
    if source is None:
        return table
    if isinstance(source, (str, Path)):
        try:
            raw = json.loads(Path(source).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # not UTF-8, or not JSON
            raise DomainError(f"cannot read codec map {source}: {exc}") from exc
    else:
        raw = source
    if not isinstance(raw, dict):
        raise DomainError("codec map must be a JSON object of payload-type: name")
    for key, name in raw.items():
        try:
            pt = int(key)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"bad payload type key {key!r}") from exc
        if not 0 <= pt <= 127:
            raise DomainError(f"payload type {pt} outside 0..127")
        if name not in CODECS:
            raise DomainError(
                f"unknown codec {name!r}; known: {sorted(CODECS)}"
            )
        table[pt] = name
    return table
