"""Output checks of the benchmark.  Each raises CheckFailed with a message
naming the quantity and the margin; each is tested in test_checks.py to
reject a wrong input."""

from __future__ import annotations

import math

import numpy as np

import reference

SEARCH_BELOW = 5e-3
"""A search is a lower bound: it may fall this far below the closed form."""
SEARCH_ABOVE = 1e-6
"""...and may exceed it only by round-off."""
REEVALUATION_TOL = 1e-9
GAP_RANGE = (-1e-9, 1e-3)
QUANTITY_TOL = 1e-9
BOUNDARY_TOL = 1e-12
PARETO_TOL = 1e-8

UNIT_PROTOCOLS = ((0.0, -1.0, 1.0), (-1.0, 1.0, -1.0), (1.0, -1.0, 0.0))
"""Secret-key distribution, one-time pad and private-as-public: the rows of
the unit protocol matrix, inside every region."""


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def search_value(value: float, closed: float, what: str) -> None:
    """closed - 5e-3 <= value <= closed + 1e-6."""
    _require(
        math.isfinite(value) and closed - SEARCH_BELOW <= value <= closed + SEARCH_ABOVE,
        f"{what}: search value {value!r} outside [{closed - SEARCH_BELOW!r}, "
        f"{closed + SEARCH_ABOVE!r}] around the closed form {closed!r}",
    )


def reevaluated(value: float, kraus, ensemble, lam: float, mu: float, what: str) -> None:
    """The returned ensemble, evaluated by explicit Kraus sums, gives the returned value."""
    q = reference.kraus_quantities(kraus, ensemble.probs, ensemble.states)
    again = q.rp + lam * q.ps + mu * q.rps
    _require(abs(again - value) <= REEVALUATION_TOL,
             f"{what}: returned value {value!r}, returned ensemble re-evaluates to {again!r}")


def additivity(gap: float, what: str) -> None:
    lo, hi = GAP_RANGE
    _require(math.isfinite(gap) and lo <= gap <= hi,
             f"{what}: additivity gap {gap!r} outside [{lo}, {hi}]")


def quantities(got, expected: reference.Quantities, what: str) -> None:
    """Library (rp, ps, rps) against the reference evaluator."""
    diff = max(abs(got.rp - expected.rp), abs(got.ps - expected.ps), abs(got.rps - expected.rps))
    _require(diff <= QUANTITY_TOL,
             f"{what}: region quantities {got} differ from the reference {expected} by {diff:.3e}")


def rate_ranges(q, dim_out: int, what: str) -> None:
    """0 <= rp <= log2 dim_out, ps <= rp and rps <= rp."""
    tol = QUANTITY_TOL
    _require(-tol <= q.rp <= math.log2(dim_out) + tol,
             f"{what}: rp = {q.rp!r} outside [0, log2 {dim_out}]")
    _require(q.ps <= q.rp + tol, f"{what}: ps = {q.ps!r} exceeds rp = {q.rp!r}")
    _require(q.rps <= q.rp + tol, f"{what}: rps = {q.rps!r} exceeds rp = {q.rp!r}")


def pauli_monotone(before: float, after: float, what: str) -> None:
    """Pauli symmetrization never lowers the dephasing objective."""
    _require(after >= before - QUANTITY_TOL,
             f"{what}: Pauli symmetrization lowered the objective from {before!r} to {after!r}")


def boundary(samples, triples, grid_size: int, what: str) -> None:
    """sample_boundary output against the closed form at a uniform grid on [0, 1/2]."""
    _require(len(samples) == grid_size, f"{what}: {len(samples)} samples, expected {grid_size}")
    params = np.array([b.param for b in samples])
    got = np.array([[b.b_rp, b.b_ps, b.b_rps] for b in samples])
    expected = np.stack(triples(np.linspace(0.0, 0.5, grid_size)), axis=1)
    dp = float(np.abs(params - np.linspace(0.0, 0.5, grid_size)).max())
    db = float(np.abs(got - expected).max())
    _require(dp <= BOUNDARY_TOL and db <= BOUNDARY_TOL,
             f"{what}: boundary samples differ from the closed form by {max(dp, db):.3e}")


def pareto(value: float, expected: float, what: str) -> None:
    _require(abs(value - expected) <= PARETO_TOL,
             f"{what}: pareto_point value {value!r}, dense-grid maximum {expected!r}")


def inside(result, point, what: str) -> None:
    _require(bool(result.inside), f"{what}: unit protocol {point} reported outside the region")
