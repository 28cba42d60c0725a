"""Exception hierarchy shared by all sidforge modules."""


class SidforgeError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(SidforgeError):
    """Invalid configuration value (bad branching, K > n, tau <= 0, ...)."""


class InputError(SidforgeError):
    """Invalid runtime input (duplicate ids, domain mismatch, bad token)."""


class ShapeError(SidforgeError):
    """Dimension mismatch between arrays or model components."""


class NumericError(SidforgeError):
    """Non-finite value encountered where finite math is required."""


class CatalogError(SidforgeError):
    """Catalog data that does not describe a valid catalog: a catalog file
    that does not parse or fails validation, or labels outside the tree."""


class CheckpointFormatError(SidforgeError):
    """Checkpoint has a bad magic number, version, or inconsistent dims."""


class CheckpointCorruptionError(SidforgeError):
    """Checkpoint file is truncated or otherwise unreadable."""
