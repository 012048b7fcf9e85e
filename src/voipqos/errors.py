"""Exception types shared across the package."""


class VoipQosError(Exception):
    """Base class for all errors raised by this package."""


# capture / wire-format errors

class BadMagic(VoipQosError):
    """Input does not start with a known capture-file magic."""


class Truncated(VoipQosError):
    """Input ends before a declared length is satisfied."""


class UnsupportedLinkType(VoipQosError):
    """A pcap declares a link type the decoder does not read."""


class BadRecord(VoipQosError):
    """A jsonl capture line is not a valid record."""


class TooShort(VoipQosError):
    """Packet payload is shorter than its fixed header."""


class BadVersion(VoipQosError):
    """Packet carries an unsupported protocol version."""


class NotSip(VoipQosError):
    """Payload does not start with a SIP request or status line."""


class MissingHeader(VoipQosError):
    """A required SIP header is absent or unusable."""


# metrics / fitting errors

class TooFewPackets(VoipQosError):
    """Stream does not hold enough packets for the metric."""


class EmptyData(VoipQosError):
    """Operation needs at least one data point."""


class TooFewPoints(VoipQosError):
    """Data set is too small to fit or summarize meaningfully."""


class DegenerateData(VoipQosError):
    """All data points are identical; no scale can be estimated."""


class DomainError(VoipQosError, ValueError):
    """Argument lies outside the mathematical domain of the operation."""


class NotConverged(VoipQosError):
    """Iteration budget exhausted without meeting the step tolerance.

    The best fit reached so far is attached as the ``fit`` attribute so
    callers can inspect or reuse it.
    """

    def __init__(self, message: str, fit=None):
        super().__init__(message)
        self.fit = fit


# descriptive statistics errors

class LengthMismatch(VoipQosError):
    """Paired inputs have different lengths."""


class ZeroVariance(VoipQosError):
    """A variable has zero variance and cannot be standardized."""


class BadK(VoipQosError):
    """Requested component count is out of range."""


# scenario / synthesis errors

class BadSpec(VoipQosError):
    """Scenario file is missing required fields or holds bad values."""
