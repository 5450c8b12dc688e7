"""Exception hierarchy shared across the package."""


class EvocfError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(EvocfError):
    """The input file or schema config violates the declared column contract."""


class DataError(EvocfError):
    """A cell or case in the input data is inconsistent or unparseable."""


class EmptyLogError(EvocfError):
    """An operation produced or received a log with no traces."""


class SplitError(EvocfError):
    """Too few traces to populate both sides of a train/test split."""


class VocabularyError(EvocfError):
    """An activity or category is not representable under the fitted encoder."""


class SynthesisError(EvocfError):
    """The synthetic log generator could not produce both outcome classes."""


class TrainingError(EvocfError):
    """The predictor cannot be trained on the given data."""


class ConfigNameError(EvocfError):
    """An operator-configuration name string could not be parsed."""


class SelectionError(EvocfError):
    """A selection operator was asked for more parents than the population holds."""


class ConfigurationError(EvocfError, ValueError):
    """Components do not share an encoder, or run parameters describe no experiment."""


class PredictorError(EvocfError):
    """An external outcome predictor failed or returned an unusable score."""
