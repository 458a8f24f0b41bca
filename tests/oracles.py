"""Dense reference implementations that the tests compare privcap against.

Each function here is written out directly (partial traces by index
reshaping, the channel action through the isometric extension
V = sum_k A_k ⊗ |k⟩, entropies from a full eigen-solve) and imports
nothing from privcap, so a test that agrees with one of them is not a
library function agreeing with itself.  Subsystem ordering is big-endian,
as in the library: the first tensor factor is the most significant.
"""

import math

import numpy as np

HERMITICITY_TOL = 1e-10
WEIGHT_FLOOR = 1e-12


def partial_trace(m, dims, keep):
    """Trace out all subsystems not listed in ``keep``.

    ``dims`` lists the subsystem dimensions and must multiply to the
    matrix size.  The kept subsystems stay in their original relative
    order.  Keeping nothing yields the 1x1 matrix holding the full trace.
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


def hermitian_eigenvalues(h, tol=HERMITICITY_TOL):
    """All eigenvalues of a Hermitian matrix, real and ascending.

    The input is symmetrized to (H + H†)/2 before solving; inputs that
    deviate from Hermiticity by more than ``tol`` are rejected.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    dev = float(np.abs(h - h.conj().T).max())
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian: max |H - H†| = {dev:.3e} > {tol:.1e}")
    return np.linalg.eigvalsh((h + h.conj().T) / 2)


def von_neumann_entropy(rho):
    """H(rho) = -Tr rho log2 rho in bits; eigenvalues <= 1e-12 contribute 0."""
    w = hermitian_eigenvalues(rho)
    w = w[w > WEIGHT_FLOOR]
    return float(-(w * np.log2(w)).sum())


def isometric_extension(ch):
    """V = sum_k A_k ⊗ |k⟩, of shape (dim_out * K, dim_in) for K Kraus operators."""
    k = len(ch.kraus)
    v = np.zeros((ch.dim_out * k, ch.dim_in), dtype=complex)
    for idx, a in enumerate(ch.kraus):
        e = np.zeros((k, 1), dtype=complex)
        e[idx, 0] = 1.0
        v += np.kron(np.asarray(a, dtype=complex), e)
    return v


def evolve(ch, rho_in):
    """(rho_B, rho_E): the two reductions of V rho V† for the isometric extension V."""
    rho_in = np.asarray(rho_in, dtype=complex)
    if rho_in.shape != (ch.dim_in, ch.dim_in):
        raise ValueError(f"input shape {rho_in.shape}, expected ({ch.dim_in}, {ch.dim_in})")
    v = isometric_extension(ch)
    rho_be = v @ rho_in @ v.conj().T
    dims = [ch.dim_out, len(ch.kraus)]
    return partial_trace(rho_be, dims, keep={0}), partial_trace(rho_be, dims, keep={1})
