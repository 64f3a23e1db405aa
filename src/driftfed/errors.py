"""Exception taxonomy. Every module raises subclasses of DriftFedError."""


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


class MetricError(DriftFedError):
    """Metric is undefined for the given confusion matrix."""


class EvaluationError(DriftFedError):
    """Cross-period evaluation is missing a required test set."""
