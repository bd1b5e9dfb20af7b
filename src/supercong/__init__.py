"""Exact verification of supercongruences for truncated sums of
C(2k,k)**2 C(4k,2k) m**(-k) modulo p and p**2.

Modular arithmetic kernel (arith), truncated central binomial sums
(binom), Legendre polynomials over F_p (legendre), cubic character sums
(curves), prime representations by binary quadratic forms (quadform), and
a declarative verdict engine over all registered statements (theorems)
with a batch CLI (cli).
"""

from .arith import PrimeCtx
from .theorems import (
    ALL_IDS,
    CONJECTURE_IDS,
    PROVEN_IDS,
    REGISTRY,
    VerdictReport,
    verify,
    verify_range,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_IDS",
    "CONJECTURE_IDS",
    "PROVEN_IDS",
    "PrimeCtx",
    "REGISTRY",
    "VerdictReport",
    "verify",
    "verify_range",
    "__version__",
]
