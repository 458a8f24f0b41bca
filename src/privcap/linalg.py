"""Dense complex linear algebra for small quantum systems.

Matrices are plain numpy arrays of complex128.  One global convention is
used everywhere: subsystem ordering is big-endian, i.e. in a tensor
product the FIRST factor carries the most significant index.  All
functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import math

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_CLIP = 1e-12


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first argument as the most significant factor."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    ``dims`` lists the subsystem dimensions (big-endian order) and must
    multiply to the matrix size.  The kept subsystems stay in their
    original relative order.  Keeping nothing yields the 1x1 matrix
    holding the full trace.
    """
    m = np.asarray(m, dtype=complex)
    dims = [int(d) for d in dims]
    if any(d <= 0 for d in dims):
        raise ValueError("subsystem dimensions must be positive")
    total = math.prod(dims)
    if m.shape != (total, total):
        raise ValueError(
            f"matrix shape {m.shape} does not match subsystem dimensions "
            f"{dims} (product {total})"
        )
    keep = sorted(set(int(i) for i in keep))
    if keep and (keep[0] < 0 or keep[-1] >= len(dims)):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} subsystems")

    out = m.reshape(dims + dims)
    k = len(dims)
    for ax in sorted((i for i in range(len(dims)) if i not in keep), reverse=True):
        out = np.trace(out, axis1=ax, axis2=ax + k)
        k -= 1
    d_keep = math.prod(dims[i] for i in keep)
    return out.reshape(d_keep, d_keep)


def hermitian_eigenvalues(h: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, real and ascending.

    The input is symmetrized to (H + H†)/2 before solving; inputs that
    deviate from Hermiticity by more than ``tol`` are rejected.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    dev = float(np.abs(h - dag(h)).max())
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian: max |H - H†| = {dev:.3e} > {tol:.1e}")
    return np.linalg.eigvalsh((h + dag(h)) / 2)


def validate_density(m: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Check the density-operator invariants and return a cleaned copy.

    Raises ValueError naming the violated invariant (Hermiticity, unit
    trace, or positivity) and the size of the violation.  Eigenvalues
    within ``tol`` of the valid range are clipped to [0, 1] and the
    spectrum is renormalized, so tiny numerical dirt is repaired rather
    than rejected.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"density operator must be square, got shape {m.shape}")
    herm_dev = float(np.abs(m - dag(m)).max())
    if herm_dev > tol:
        raise ValueError(f"not Hermitian: max |M - M†| = {herm_dev:.3e} > {tol:.1e}")
    tr = complex(np.trace(m))
    tr_dev = abs(tr - 1.0)
    if tr_dev > tol:
        raise ValueError(f"trace is not 1: |Tr - 1| = {tr_dev:.3e} > {tol:.1e}")
    sym = (m + dag(m)) / 2
    w, v = np.linalg.eigh(sym)
    if w.min() < -tol:
        raise ValueError(f"not positive semidefinite: min eigenvalue {w.min():.3e} < -{tol:.1e}")
    w = np.clip(w, 0.0, 1.0)
    w = w / w.sum()
    return (v * w) @ dag(v)
