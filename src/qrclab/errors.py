"""Exception hierarchy shared by all qrclab modules."""


class QRCLabError(Exception):
    """Base class for all errors raised by qrclab."""


class ConfigurationError(QRCLabError):
    """Invalid parameter, qubit index, or incompatible run configuration."""


class DataError(QRCLabError):
    """Non-finite or structurally invalid input data."""


class FitError(QRCLabError):
    """Readout training failed (e.g. singular normal equations at alpha=0)."""


class MetricError(QRCLabError):
    """A requested metric is undefined for the given inputs."""


class SchemaError(ConfigurationError):
    """A config value breaks the schema. ``key`` names the offender: a spec
    field, which ``parse_config`` turns into the document key (``task.T``)."""

    def __init__(self, key: str, message: str):
        super().__init__(key, message)
        self.key = key
        self.message = message

    def __str__(self):
        return f"{self.key}: {self.message}"
