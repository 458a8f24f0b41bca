"""Independent references for the benchmark's output checks.

Nothing here imports privcap.  The closed forms are the paper's
formulas written out again, the ensemble evaluator applies the Kraus
sums explicitly and takes entropies from ``numpy.linalg.eigvalsh``, so
a fault in the library's shared evaluation core or closed forms cannot
hide in the reference as well.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

GRID_POINTS = 20_001
ZOOMS = 4
"""closed_form_max: points per dense grid, and grids, each zoomed on the last one's best point."""

DELTA_HOLEVO = 1.0
"""Holevo capacity of the completely dephasing qubit channel: exactly 1 bit."""


class Quantities(NamedTuple):
    rp: float
    ps: float
    rps: float


def _xlog2x(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    out = np.zeros_like(w)
    pos = w > 0.0
    out[pos] = w[pos] * np.log2(w[pos])
    return out


def h2(p) -> np.ndarray:
    """Binary entropy in bits, elementwise."""
    p = np.asarray(p, dtype=float)
    return -(_xlog2x(p) + _xlog2x(1.0 - p))


def spectrum_entropy(w, axis: int = -1) -> np.ndarray:
    """-sum w log2 w along ``axis``; tiny negative round-off counts as 0."""
    return -_xlog2x(np.clip(w, 0.0, None)).sum(axis=axis)


# ---------------------------------------------------------------------------
# Closed-form boundary triples (b_rp, b_ps, b_rps) as functions of the
# boundary parameter t in [0, 1/2], vectorized over t.
# ---------------------------------------------------------------------------


def dephasing_triples(p: float, nu):
    """(1, H2(nu) - H2(gamma), 1 - H2(gamma)) with
    gamma = 1/2 + 1/2 sqrt(1 - 16 (p/2)(1 - p/2) nu (1 - nu))."""
    nu = np.asarray(nu, dtype=float)
    inner = 1.0 - 16.0 * (p / 2.0) * (1.0 - p / 2.0) * nu * (1.0 - nu)
    gamma = 0.5 + 0.5 * np.sqrt(np.clip(inner, 0.0, None))
    hg = h2(gamma)
    return np.ones_like(nu), h2(nu) - hg, 1.0 - hg


def cloning_rp(n: int) -> float:
    """b_rp = 1 - log2 N + (2 / (N (N+1))) sum_{i=2}^{N} i log2 i."""
    return 1.0 - math.log2(n) + sum(i * math.log2(i) for i in range(2, n + 1)) * 2.0 / (n * (n + 1))


def cloning_triples(n: int, mu):
    """1->N cloning: output spectrum lambda_i = ((N - 2i) mu + i) / D_N for
    i = 0..N, environment spectrum eta_i = ((N - 1 - 2i) mu + i + 1) / D_N
    for i = 0..N-1, D_N = N (N+1) / 2; the triple is
    (b_rp, H(lambda) - H(eta), log2(N+1) - H(eta))."""
    mu = np.asarray(mu, dtype=float)
    d_n = n * (n + 1) / 2.0
    i_out = np.arange(n + 1, dtype=float)[:, None]
    lam = ((n - 2.0 * i_out) * mu[None] + i_out) / d_n
    i_env = np.arange(n, dtype=float)[:, None]
    eta = ((n - 1.0 - 2.0 * i_env) * mu[None] + i_env + 1.0) / d_n
    h_lam = spectrum_entropy(lam, axis=0)
    h_eta = spectrum_entropy(eta, axis=0)
    return np.full_like(mu, cloning_rp(n)), h_lam - h_eta, math.log2(n + 1) - h_eta


def erasure_triples(eps: float, p):
    """(1 - eps, (1 - 2 eps) H2(p), 1 - eps - eps H2(p))."""
    p = np.asarray(p, dtype=float)
    h = h2(p)
    return np.full_like(p, 1.0 - eps), (1.0 - 2.0 * eps) * h, 1.0 - eps - eps * h


def closed_form_max(triples, lam: float, mu: float) -> float:
    """max over t in [0, 1/2] of b_rp + lam b_ps + mu b_rps.

    A dense grid, then dense grids zoomed on the best point: the bounds
    involve x log x terms whose slope diverges at 0, where one uniform
    grid would be too coarse.  ``triples`` maps a parameter array to the
    three bound arrays.
    """
    lo, hi = 0.0, 0.5
    best = -math.inf
    for _ in range(ZOOMS):
        t = np.linspace(lo, hi, GRID_POINTS)
        rp, ps, rps = triples(t)
        values = rp + lam * ps + mu * rps
        k = int(np.argmax(values))
        best = max(best, float(values[k]))
        step = t[1] - t[0]
        lo, hi = max(0.0, t[k] - 2.0 * step), min(0.5, t[k] + 2.0 * step)
    return best


# ---------------------------------------------------------------------------
# Ensemble evaluation by explicit Kraus sums
# ---------------------------------------------------------------------------


def _weighted_entropy(weights: np.ndarray, states: np.ndarray) -> float:
    """sum_n w_n H(states_n) over the branches with positive weight."""
    keep = weights > 0.0
    if not keep.any():
        return 0.0
    spectra = np.linalg.eigvalsh(states[keep])
    return float(np.dot(weights[keep], spectrum_entropy(spectra)))


def kraus_quantities(kraus, probs, states) -> Quantities:
    """rp = I(YX;B), ps = I(Y;B|X) - I(Y;E|X) and rps = I(YX;B) - I(Y;E|X)
    of the ensemble {p(x,y), rho_xy}, from rho_B = sum_k A_k rho A_k†
    and rho_E[k, l] = Tr(A_k rho A_l†)."""
    kraus = [np.asarray(a, dtype=complex) for a in kraus]
    probs = np.asarray(probs, dtype=float)
    nx, ny = probs.shape
    d = kraus[0].shape[1]
    flat = np.asarray(states, dtype=complex).reshape(nx * ny, d, d)
    p_flat = probs.reshape(-1)
    applied = np.stack([a @ flat for a in kraus])  # (K, branch, out, in): A_k rho
    rho_b = sum(ak_rho @ a.conj().T for ak_rho, a in zip(applied, kraus))
    # Tr(A_k rho A_m†) = sum_ij (A_k rho)_ij conj(A_m)_ij
    rho_e = np.einsum("knij,mij->nkm", applied, np.conj(np.stack(kraus)))

    def conditional(branch: np.ndarray):
        p_x = probs.sum(axis=1)
        dim = branch.shape[-1]
        summed = (probs.reshape(nx, ny, 1, 1) * branch.reshape(nx, ny, dim, dim)).sum(axis=1)
        safe = np.where(p_x > 0.0, p_x, 1.0)
        return _weighted_entropy(p_x, summed / safe[:, None, None])

    h_b = _weighted_entropy(np.ones(1), (p_flat[:, None, None] * rho_b).sum(axis=0)[None])
    h_b_xy = _weighted_entropy(p_flat, rho_b)
    h_e_xy = _weighted_entropy(p_flat, rho_e)
    h_b_x = conditional(rho_b)
    h_e_x = conditional(rho_e)
    i_y_e_x = h_e_x - h_e_xy
    rp = h_b - h_b_xy
    return Quantities(rp, (h_b_x - h_b_xy) - i_y_e_x, rp - i_y_e_x)
