"""Few-term permutation polynomials of GF(q^2) built from circle bijections.

Constructs the binomial/quadrinomial/pentanomial families obtained by
conjugating low-degree maps of the projective line into the unit circle of
GF(q^2), verifies the permutation property both structurally and by
exhaustive evaluation, and decides quasi-multiplicative equivalence.
"""

from .errors import (
    CapExceeded,
    CirclepermError,
    CtxMismatch,
    DivisionByZero,
    InvalidParams,
    InvariantViolation,
    NotIrreducible,
    NotMonic,
    NotPrime,
    ZeroInput,
)
from .fields import (
    FieldCtx,
    FieldElement,
    QuadExtension,
    canonical_modulus,
    field_create,
    quad_extension,
)

__all__ = [
    "FieldCtx",
    "FieldElement",
    "QuadExtension",
    "canonical_modulus",
    "field_create",
    "quad_extension",
    "CirclepermError",
    "NotPrime",
    "NotMonic",
    "NotIrreducible",
    "CtxMismatch",
    "DivisionByZero",
    "ZeroInput",
    "CapExceeded",
    "InvalidParams",
    "InvariantViolation",
]

__version__ = "0.1.0"
