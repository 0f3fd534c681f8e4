"""Exception types shared across the package."""


class StructureError(ValueError):
    """Operands belong to different algebras or have mismatched block shapes."""


class DomainError(ValueError):
    """Input violates a mathematical precondition (non-Hermitian, p < 1, ...)."""


class IllConditionedBasisError(ValueError):
    """Subalgebra basis is numerically dependent; carries a condition estimate."""

    def __init__(self, message: str, condition: float):
        super().__init__(f"{message} (condition estimate {condition:.3e})")
        self.condition = condition


class UndefinedRatioError(ArithmeticError):
    """A ratio estimate has a vanishing denominator."""


class IdentityViolation(ArithmeticError):
    """An algebraically guaranteed identity failed beyond tolerance.

    No library function raises it: every identity is judged by the harness
    as a check record.  It stays exported because the benchmark's tests
    raise it to stand for an identity failure inside a call.
    """


class ConfigError(ValueError):
    """Invalid experiment configuration; carries the offending field path."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field
