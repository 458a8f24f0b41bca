"""Region geometry: the unit protocol matrix, the coding corner of an
ensemble, closed-form boundary surfaces for the solved channel families,
membership tests, Pareto sampling, and two-copy additivity checks.

Every region here is a union over a single boundary parameter of
translated copies of the unit cone {R+P <= 0, P+S <= 0, R+P+S <= 0};
the translation at one parameter is recorded as a BoundTriple of the
three right-hand sides.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .channels import KrausChannel, positive_int, tensor_channels
from .entropy import binary_entropy, entropy_from_eigenvalues
from .search import XorShift64Star
from .tradeoff import (
    CqEvaluation,
    SearchConfig,
    TradeoffWeights,
    maximize_p,
    tensor_ensembles,
)

MEMBERSHIP_TOL = 1e-9
NEAR_MISS = 1e-3
GOLDEN_TOL = 1e-9
PARETO_GRID = 33

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RateTriple:
    """Rates in bits per channel use; negative values mean consumption."""

    r: float
    p: float
    s: float


@dataclass(frozen=True)
class BoundTriple:
    """The three region right-hand sides at one boundary parameter."""

    param: float
    b_rp: float
    b_ps: float
    b_rps: float


@dataclass(frozen=True)
class BoundaryFamily:
    """A one-parameter generator of BoundTriples over a closed domain."""

    name: str
    param_name: str
    lo: float
    hi: float
    fn: Callable[[float], BoundTriple]


@dataclass(frozen=True)
class MembershipResult:
    inside: bool
    witness: float | None
    blocking_constraint: str | None
    violation: float

    def __bool__(self) -> bool:
        return self.inside


@dataclass(frozen=True)
class ParetoPoint:
    value: float
    param: float
    bounds: BoundTriple


UNIT_MATRIX = ((0, -1, 1), (-1, 1, -1), (1, -1, 0))
UNIT_MATRIX_INVERSE = ((-1, -1, 0), (-1, -1, -1), (0, -1, -1))


def matrices_are_inverse(a, b) -> bool:
    """Exact integer check that a @ b and b @ a are the identity."""
    for left, right in ((a, b), (b, a)):
        for i in range(3):
            for j in range(3):
                s = sum(left[i][k] * right[k][j] for k in range(3))
                if s != (1 if i == j else 0):
                    return False
    return True


def unit_matrix_inverse_check() -> bool:
    """Verify the protocol matrix and its stated inverse multiply to identity."""
    return matrices_are_inverse(UNIT_MATRIX, UNIT_MATRIX_INVERSE)


def corner_from_cq(ev: CqEvaluation) -> RateTriple:
    """The coding-corner rate triple (I(X;B), I(Y;B|X), -I(Y;E|X))."""
    return RateTriple(
        r=ev.h_b - ev.h_b_x,
        p=ev.h_b_x - ev.h_b_xy,
        s=-(ev.h_e_x - ev.h_e_xy),
    )


# ---------------------------------------------------------------------------
# Closed-form boundary triples
# ---------------------------------------------------------------------------


def dephasing_gamma(nu: float, p: float) -> float:
    """Spectral parameter 1/2 + 1/2 sqrt(1 - 16 (p/2)(1 - p/2) nu (1 - nu))."""
    for name, value in (("nu", nu), ("p", p)):
        if not math.isfinite(value):
            raise ValueError(f"dephasing_gamma {name} must be finite, got {value}")
    inner = 1.0 - 16.0 * (p / 2.0) * (1.0 - p / 2.0) * nu * (1.0 - nu)
    return 0.5 + 0.5 * math.sqrt(max(inner, 0.0))


def dephasing_bounds(p: float, nu: float) -> BoundTriple:
    """(1, H2(nu) - H2(gamma), 1 - H2(gamma)) for the qubit dephasing channel."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"dephasing probability {p} outside [0, 1]")
    if not 0.0 <= nu <= 0.5:
        raise ValueError(f"boundary parameter nu = {nu} outside [0, 1/2]")
    h_gamma = binary_entropy(dephasing_gamma(nu, p))
    return BoundTriple(nu, 1.0, binary_entropy(nu) - h_gamma, 1.0 - h_gamma)


def cloning_spectra(n: int, mu_clone: float):
    """Output and environment spectra {lam_i/D_N}, {eta_i/D_N} of the cloning boundary."""
    n = positive_int(n, "cloning N")
    if not 0.0 <= mu_clone <= 0.5:
        raise ValueError(f"boundary parameter mu_clone = {mu_clone} outside [0, 1/2]")
    delta = n * (n + 1) / 2.0
    i_out = np.arange(n + 1, dtype=float)
    lam = ((n - 2.0 * i_out) * mu_clone + i_out) / delta
    i_env = np.arange(n, dtype=float)
    eta = ((n - 1.0 - 2.0 * i_env) * mu_clone + i_env + 1.0) / delta
    return lam, eta


def cloning_rp_constant(n: int) -> float:
    """1 - log2 N + (1/D_N) sum_i i log2 i, the parameter-free first bound."""
    n = positive_int(n, "cloning N")
    delta = n * (n + 1) / 2.0
    s = sum(i * math.log2(i) for i in range(2, n + 1))
    return 1.0 - math.log2(n) + s / delta


def cloning_bounds(n: int, mu_clone: float) -> BoundTriple:
    """Boundary triple of the 1->N cloning channel at input eigenvalue mu_clone."""
    lam, eta = cloning_spectra(n, mu_clone)
    h_lam = float(entropy_from_eigenvalues(lam))
    h_eta = float(entropy_from_eigenvalues(eta))
    return BoundTriple(mu_clone, cloning_rp_constant(n), h_lam - h_eta,
                       math.log2(n + 1) - h_eta)


def erasure_bounds(eps: float, p: float) -> BoundTriple:
    """(1-eps, (1-2 eps) H2(p), 1 - eps - eps H2(p)) for the erasure channel."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"erasure probability {eps} outside [0, 1]")
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"boundary parameter p = {p} outside [0, 1/2]")
    h = binary_entropy(p)
    return BoundTriple(p, 1.0 - eps, (1.0 - 2.0 * eps) * h, 1.0 - eps - eps * h)


def eb_bounds(holevo: float) -> BoundTriple:
    """(C, 0, C) for an entanglement-breaking channel with Holevo capacity C."""
    if not math.isfinite(holevo):
        raise ValueError(f"Holevo value must be finite, got {holevo}")
    return BoundTriple(0.0, holevo, 0.0, holevo)


def dephasing_family(p: float) -> BoundaryFamily:
    return BoundaryFamily("dephasing", "nu", 0.0, 0.5, lambda nu: dephasing_bounds(p, nu))


def cloning_family(n: int) -> BoundaryFamily:
    return BoundaryFamily("cloning", "mu_clone", 0.0, 0.5,
                          lambda mu: cloning_bounds(n, mu))


def erasure_family(eps: float) -> BoundaryFamily:
    return BoundaryFamily("erasure", "p", 0.0, 0.5, lambda p: erasure_bounds(eps, p))


def eb_family(holevo: float) -> BoundaryFamily:
    bounds = eb_bounds(holevo)
    return BoundaryFamily("eb", "none", 0.0, 0.0, lambda _t: bounds)


# ---------------------------------------------------------------------------
# Sampling, membership, Pareto
# ---------------------------------------------------------------------------


def sample_boundary(family: BoundaryFamily, grid_size: int) -> list[BoundTriple]:
    """BoundTriples at uniformly spaced parameters over the family domain."""
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    return [family.fn(float(t)) for t in np.linspace(family.lo, family.hi, grid_size)]


def _violations(b: BoundTriple, pt: RateTriple):
    return (
        ("R+P", pt.r + pt.p - b.b_rp),
        ("P+S", pt.p + pt.s - b.b_ps),
        ("R+P+S", pt.r + pt.p + pt.s - b.b_rps),
    )


def _scan(family: BoundaryFamily, params, pt: RateTriple):
    best = (math.inf, None, None)
    # a parameter equal to the one before cannot beat the first best
    for t in params[np.concatenate(([True], params[1:] != params[:-1]))]:
        b = family.fn(float(t))
        vio = _violations(b, pt)
        worst_name, worst = max(((n, v) for n, v in vio), key=lambda nv: nv[1])
        if worst < best[0]:
            best = (worst, float(t), worst_name)
        if worst <= MEMBERSHIP_TOL:
            return best, True
    return best, False


def membership(family: BoundaryFamily, point, grid_size: int = 1001) -> MembershipResult:
    """Point-in-region test: true iff some grid parameter satisfies all three
    inequalities within 1e-9; the grid is refined once around near-misses.
    A non-finite coordinate is rejected."""
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    pt = point if isinstance(point, RateTriple) else RateTriple(*point)
    for name, rate in (("R", pt.r), ("P", pt.p), ("S", pt.s)):
        if not math.isfinite(rate):
            raise ValueError(f"rate {name} must be finite, got {rate}")
    (worst, t_best, name), inside = _scan(family, np.linspace(family.lo, family.hi, grid_size), pt)
    if not inside and worst < NEAR_MISS:
        span = (family.hi - family.lo) / (grid_size - 1)
        lo = max(family.lo, t_best - span)
        hi = min(family.hi, t_best + span)
        (worst2, t2, name2), inside = _scan(family, np.linspace(lo, hi, grid_size), pt)
        if worst2 < worst:
            worst, t_best, name = worst2, t2, name2
    if inside:
        return MembershipResult(True, t_best, None, worst)
    return MembershipResult(False, None, name, worst)


def _golden_max(fn: Callable[[float], float], lo: float, hi: float):
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > GOLDEN_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
    t = (a + b) / 2
    return t, fn(t)


def pareto_point(family: BoundaryFamily, w: TradeoffWeights) -> ParetoPoint:
    """Maximize b_rp + lam*b_ps + mu*b_rps over the boundary parameter.

    A coarse grid brackets the maximum (guarding the unimodality
    assumption) and golden-section search refines it.
    """

    def weighted(t: float) -> float:
        b = family.fn(t)
        return b.b_rp + w.lam * b.b_ps + w.mu * b.b_rps

    params = np.linspace(family.lo, family.hi, PARETO_GRID)
    vals = [weighted(float(t)) for t in params]
    k = int(np.argmax(vals))
    lo = params[max(k - 1, 0)]
    hi = params[min(k + 1, PARETO_GRID - 1)]
    t, v = _golden_max(weighted, float(lo), float(hi))
    if vals[k] > v:
        t, v = float(params[k]), vals[k]
    return ParetoPoint(v, t, family.fn(t))


# ---------------------------------------------------------------------------
# Two-copy additivity check
# ---------------------------------------------------------------------------


def additivity_gap(ch: KrausChannel, w: TradeoffWeights,
                   cfg: SearchConfig | None = None) -> float:
    """P2 - 2 P1, where P1 is the single-copy search value and P2 the
    two-copy search value for ch ⊗ ch.

    The two-copy search is seeded with the product of the best
    single-copy ensemble with itself, so the gap is never meaningfully
    negative; a gap at numerical zero means no superadditivity was
    detected.  Two-copy alphabet sizes default to dim_in**2 per axis
    (products of single-copy default ensembles) to keep the search
    tractable.
    """
    cfg = cfg or SearchConfig()
    v1, ens1 = maximize_p(ch, w, cfg)
    ch2 = tensor_channels(ch, ch)
    nx2 = cfg.nx if cfg.nx else ch.dim_in**2
    ny2 = cfg.ny if cfg.ny else ch.dim_in**2
    cfg2 = replace(cfg, seed=XorShift64Star(cfg.seed ^ 0xD1F4).next_u64(), nx=nx2, ny=ny2)
    product = tensor_ensembles(ens1, ens1)
    diag: dict = {}
    v2, _ = maximize_p(ch2, w, cfg2, starts=(product,), diagnostics=diag)
    if diag.get("budget_exhausted"):
        warnings.warn(
            "two-copy search exhausted its refinement budget; the gap may "
            "underestimate the achievable two-copy value",
            stacklevel=2,
        )
    return v2 - 2.0 * v1
