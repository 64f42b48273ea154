"""tdlab: exact-arithmetic construction, validation, and analysis of
tridiagonal pairs and systems over the rationals and prime fields."""

from .matrices import Matrix, Subspace
from .scalars import FpElement, PrimeField, RationalField
from .tdcore import Check, SystemContext, TdSystem, ValidateOptions, VerificationReport, validate

__all__ = [
    "Check",
    "FpElement",
    "Matrix",
    "PrimeField",
    "RationalField",
    "Subspace",
    "SystemContext",
    "TdSystem",
    "ValidateOptions",
    "VerificationReport",
    "validate",
]

__version__ = "0.1.0"
