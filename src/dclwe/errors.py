"""Exception types shared across the package."""


class DclweError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidModulus(DclweError):
    """Modulus is not an odd prime in the supported range."""


class InvalidLength(DclweError):
    """Dimension or size argument out of range."""


class ZeroInverse(DclweError):
    """Multiplicative inverse of zero requested."""


class SingularMatrix(DclweError):
    """Matrix has no inverse mod q."""


class BoundTooLarge(DclweError):
    """Error bound does not fit below q/2."""


class DuplicateInput(DclweError):
    """Batch contains repeated input values."""


class DegenerateTest(DclweError):
    """Test sample with t = 0 carries no information about the secret."""


class InfeasibleParameters(DclweError):
    """No valid retry/test budget exists for the requested configuration."""


class EmptyResult(DclweError):
    """Emission requested for an empty record list."""


class ConfigError(DclweError):
    """Invalid experiment configuration; the message names the field."""


class InvariantViolation(DclweError):
    """A structural invariant failed at runtime."""
