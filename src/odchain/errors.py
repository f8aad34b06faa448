"""Exception taxonomy shared across the package.

Domain errors (bad values fed to otherwise well-formed objects) raise plain
``ValueError`` or a subclass of it; structural problems with scenarios,
networks or chains raise :class:`ConfigurationError`; failures of the linear
algebra raise :class:`NumericalError`.  The CLI maps these onto exit codes.
"""

from __future__ import annotations


class OdchainError(Exception):
    """Base class for package-specific failures."""


class ConfigurationError(OdchainError):
    """A scenario, network or chain definition is structurally invalid."""


class ChainConsistencyError(ConfigurationError):
    """A chained leg cannot redistribute the demand arriving at some zone."""


class NumericalError(OdchainError):
    """A linear-algebra step failed beyond what jitter can rescue."""


class DegenerateProfileError(ValueError, OdchainError):
    """A departure-time profile has no usable probability mass.

    ``row`` is the first degenerate row when profiles were computed in a
    batch, ``None`` for a single profile.
    """

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row
