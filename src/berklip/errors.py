"""Exception types shared across the package."""


class BerkError(Exception):
    """Base class for all package errors."""


class ParseError(BerkError):
    """Malformed input file, rational string, or CLI configuration."""


class DegenerateMapError(BerkError):
    """Homogeneous pair with a common root (resultant vanishes)."""


class FactoredFormRequiredError(BerkError):
    """Operation needs the zero/pole factorization and none is attached."""


class InternalInvariantError(BerkError):
    """A structural fact the algorithms rely on failed; indicates a bug."""


class ResourceLimitError(BerkError):
    """A computation reached a documented resource cap; the input is valid
    but needs more than the cap allows."""
