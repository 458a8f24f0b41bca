"""Dense complex linear algebra for small quantum systems.

Matrices are plain numpy arrays of complex128.  One global convention is
used everywhere: subsystem ordering is big-endian, i.e. in a tensor
product the FIRST factor carries the most significant index.  All
functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import numpy as np

def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first argument as the most significant factor."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
