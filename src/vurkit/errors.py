"""Exception hierarchy; the CLI maps each class to a documented exit code."""


class VurkitError(Exception):
    exit_code = 1


class FileFormatError(VurkitError):
    """Malformed, ambiguous, or non-finite input document."""

    exit_code = 2


class DimensionMismatchError(VurkitError):
    """Operands whose dimensions do not line up."""

    exit_code = 3


class NotHermitianError(VurkitError):
    """Matrix failing the Hermiticity check."""

    exit_code = 4


class InvalidStateError(VurkitError):
    """Vector or density matrix violating state invariants."""

    exit_code = 5


class InvalidAlphaError(VurkitError):
    """Non-positive or non-finite Gaussian width parameter, or one so small
    that the floor runs past the float range."""

    exit_code = 6


class RegimeError(VurkitError):
    """Input outside an analytic bound's validity region, or an entropy constant no state reaches."""
