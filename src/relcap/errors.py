"""Exception types shared across the package.

Plain ValueError / IndexError are used for programming-contract violations
(bad shapes, out-of-range indices). The classes below cover user-facing
failures that the CLI maps to exit codes.
"""


class RelcapError(Exception):
    """Base class for package-specific failures."""


class ConfigError(RelcapError):
    """Invalid run configuration or command usage (exit code 2)."""


class DataError(RelcapError):
    """Malformed input data; message names the file/line/field (exit code 3)."""


class CheckpointError(DataError):
    """Unreadable or version-mismatched checkpoint container."""
