"""Exception hierarchy shared across the package.  `cli.main` exits 3 on a
DataFormatError and 2 on the others; each message names its defect."""


class NfemError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(NfemError, ValueError):
    """An argument violates a documented precondition or hits a singularity."""


class DegenerateConfigError(NfemError):
    """A per-mode transmission system is numerically singular."""


class ConfigError(NfemError):
    """Run configuration file is malformed or inconsistent."""


class DataFormatError(NfemError):
    """A near-field data file or matrix is unusable: bad magic or header,
    sizes that do not match, a checksum mismatch, or non-finite or all-zero contents."""
