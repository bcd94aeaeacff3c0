"""Exception hierarchy shared across the package."""


class NfemError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(NfemError, ValueError):
    """An argument violates a documented precondition."""


class SingularPointError(InvalidArgumentError):
    """Evaluation requested at (or too close to) a kernel singularity."""


class DegenerateConfigError(NfemError):
    """A per-mode transmission system is numerically singular."""


class ConfigError(NfemError):
    """Run configuration file is malformed or inconsistent."""


class DataFormatError(NfemError):
    """Base class for near-field data file problems."""


class MalformedHeaderError(DataFormatError):
    """Magic string or header fields of a data file are invalid."""


class DimensionMismatchError(DataFormatError):
    """Declared sizes do not match the file contents."""


class ChecksumError(DataFormatError):
    """Payload checksum does not match the stored value."""
