"""Exception types shared across the package."""


class DomainError(ValueError):
    """Inputs are outside the mathematical domain of an operation.

    Carries optional context in attributes, e.g. ``beta_star`` for the
    inverse-temperature bound of a downward quench.
    """

    def __init__(self, message, **context):
        super().__init__(message)
        for key, value in context.items():
            setattr(self, key, value)


class CausticError(DomainError):
    """Real-time kernel evaluated at a caustic (sin of the phase vanishes)."""


class NumericalFailureError(RuntimeError):
    """A numerical procedure produced an inconsistent intermediate result."""
