"""Entropic quantities in bits (all logarithms base 2).

Zero eigenvalues/weights are handled by thresholding at 1e-12 rather
than by limits, which keeps evaluations robust near pure states.
"""

from __future__ import annotations

import numpy as np

WEIGHT_FLOOR = 1e-12
PROB_RANGE_TOL = 1e-12


def entropy_from_eigenvalues(w) -> float:
    """-sum(w log2 w) over the trailing axis, with w <= 1e-12 contributing 0."""
    w = np.asarray(w, dtype=float)
    safe = np.maximum(w, WEIGHT_FLOOR)
    terms = np.where(w <= WEIGHT_FLOOR, 0.0, -w * np.log2(safe))  # a NaN weight gives NaN
    return terms.sum(axis=-1)


def binary_entropy(p: float) -> float:
    """H2(p) = -p log2 p - (1-p) log2(1-p)."""
    if not -PROB_RANGE_TOL <= p <= 1.0 + PROB_RANGE_TOL:
        raise ValueError(f"binary_entropy argument {p} outside [0, 1]")
    p = min(max(p, 0.0), 1.0)
    return float(entropy_from_eigenvalues(np.array([p, 1.0 - p])))
