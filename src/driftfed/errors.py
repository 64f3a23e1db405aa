"""Exception taxonomy (every package error is a DriftFedError) and check_field."""

import math
import numbers


class DriftFedError(Exception):
    """Base class for all package errors."""


class ConfigError(DriftFedError):
    """Invalid configuration value (architecture, scenario, run config)."""


class ShapeError(DriftFedError):
    """Array shape does not match the model architecture."""


class DataError(DriftFedError):
    """Dataset violates a precondition (empty, malformed)."""


class LabelError(DataError):
    """Label index out of range for the configured output dimension."""


class LoadError(DriftFedError):
    """Delimited input file could not be parsed."""


class CodecError(DriftFedError):
    """Sub-attack label cannot be mapped by the label codec."""


class ScheduleError(DriftFedError):
    """Strategy/period combination not defined by the drift schedule."""


class AggregationError(DriftFedError):
    """Client parameter sets cannot be aggregated."""


class CheckpointError(DriftFedError):
    """Checkpoint file is malformed, truncated or of an unknown format version."""


class FederationError(DriftFedError):
    """Federated round cannot run (for example an empty client shard)."""


class DivergenceError(FederationError):
    """Training left non-finite parameters; names the period and round."""


class MetricError(DriftFedError):
    """Metric is undefined for the given confusion matrix."""


class EvaluationError(DriftFedError):
    """Cross-period evaluation is missing a required test set."""


class ReportError(DriftFedError):
    """A stored metrics document cannot be read or rendered; names the file."""


_KINDS = {"integer": numbers.Integral, "number": numbers.Real, "string": str}


def check_field(name: str, value, kind: str, low=-math.inf, high=math.inf,
                optional: bool = False) -> None:
    """Raise :class:`ConfigError` naming ``name`` unless ``value`` is a ``kind`` in range.

    ``kind`` is "integer", "number" or "string", and a bool is none of them.
    An integer must lie in [low, high]; a number in (low, high), so never
    NaN or infinite. An ``optional`` field may also be None. The config
    dataclasses name each field by its JSON key under the section they are
    loaded from.
    """
    if optional and value is None:
        return
    if not isinstance(value, _KINDS[kind]) or isinstance(value, bool):
        article = "an" if kind == "integer" else "a"
        raise ConfigError(f"{name}: must be {article} {kind}, got {value!r}")
    if kind == "integer" and not low <= value <= high:
        raise ConfigError(f"{name}: must be an integer in [{low}, {high}], got {value!r}")
    if kind == "number" and not low < value < high:
        raise ConfigError(f"{name}: must be a number in ({low}, {high}), got {value!r}")
