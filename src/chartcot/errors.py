"""Exception hierarchy shared across the package."""


class ChartCotError(Exception):
    """Base class for all domain errors."""


class SpecSyntaxError(ChartCotError):
    """Chart spec document is not well formed (bad JSON, wrong/unknown keys)."""


class ValidationError(ChartCotError):
    """A structurally valid document violates a spec invariant."""


class ConfigError(ChartCotError):
    """Invalid configuration value."""


class LayoutError(ChartCotError):
    """Canvas cannot accommodate the chart's mandatory elements."""


class FormatError(ChartCotError):
    """CoT document is not valid JSON or has the wrong shape."""


class IntegrityError(ChartCotError):
    """A CoT document breaks a step/key invariant, or a stored artifact is malformed or cut short."""


class TargetError(ChartCotError):
    """A grounding target does not resolve against the chart."""


class CollisionError(ChartCotError):
    """The marker character already occurs in the chart text."""


class NotFoundError(ChartCotError):
    """No marker found by either detection pass."""


class AmbiguousError(ChartCotError):
    """The deciding detection pass found more than one marker."""


class CoverageError(ChartCotError):
    """A grounding step has no bounding box assigned."""


class ClientError(ChartCotError):
    """Teacher-model client failure (exhausted retries, bad status, timeout)."""


class ReviewError(ChartCotError):
    """The teacher's review rejected a CoT sample's answer."""


class WorkerError(ChartCotError):
    """A forked pipeline worker died, or could not send a chart's outcome or exception."""


class ParseError(ChartCotError):
    """Serialized bounding box text cannot be parsed back."""


class ExtractionError(ChartCotError):
    """No answer candidate could be extracted from a model reply."""


class InputError(ChartCotError):
    """A JSONL input line is not JSON or not a record of the expected shape."""


class MissingGoldError(ChartCotError):
    """A prediction has no matching gold entry."""


class EmptyError(ChartCotError):
    """Statistics requested over an empty passed set."""
