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
from functools import partial
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
    """A one-parameter generator of BoundTriples over a closed domain.

    ``fn`` broadcasts: a float parameter gives a BoundTriple of floats, an
    (n,) array of parameters one BoundTriple of (n,) arrays.
    """

    name: str
    param_name: str
    lo: float
    hi: float
    fn: Callable[[float | np.ndarray], BoundTriple]


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
#
# Each closed form broadcasts over its boundary parameter: a float gives a
# BoundTriple of floats, an (n,) grid a BoundTriple of (n,) arrays whose
# entries are bitwise the float calls, since every array operation is the
# scalar one in the same order.


def _check_param(name: str, t) -> None:
    """A boundary parameter in [0, 1/2]: a float by comparison, a grid by its min and max."""
    lo, hi = (t.min(), t.max()) if isinstance(t, np.ndarray) else (t, t)
    if not (0.0 <= lo and hi <= 0.5):
        raise ValueError(f"boundary parameter {name} = {lo if hi <= 0.5 else hi} "
                         "outside [0, 1/2]")


def _check_probability(what: str, value) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} {value} outside [0, 1]")


def _family(name: str, param_name: str, bounds: Callable) -> BoundaryFamily:
    """A family on [0, 1/2] whose fn builds the BoundTriple of the three
    right-hand sides that ``bounds(t)`` returns.  A grid's range is checked
    first and its constant sides are broadcast; a float call runs only the
    formula, since the scans of ``membership`` and ``pareto_point`` stay
    inside the domain and pay for every call."""

    def fn(t):
        if not isinstance(t, np.ndarray):
            b_rp, b_ps, b_rps = bounds(t)
            return BoundTriple(t, float(b_rp), float(b_ps), float(b_rps))
        _check_param(param_name, t)
        return BoundTriple(t, *(b if isinstance(b, np.ndarray) else np.full(t.shape, b)
                                for b in bounds(t)))

    return BoundaryFamily(name, param_name, 0.0, 0.5, fn)


def _gamma(nu, p):
    inner = 1.0 - 16.0 * (p / 2.0) * (1.0 - p / 2.0) * nu * (1.0 - nu)
    return 0.5 + 0.5 * np.sqrt(np.maximum(inner, 0.0))


def dephasing_gamma(nu, p):
    """Spectral parameter 1/2 + 1/2 sqrt(1 - 16 (p/2)(1 - p/2) nu (1 - nu))."""
    for name, value in (("nu", nu), ("p", p)):
        if not np.isfinite(value).all():
            raise ValueError(f"dephasing_gamma {name} must be finite, got {value}")
    gamma = _gamma(nu, p)
    return gamma if isinstance(gamma, np.ndarray) else float(gamma)


def _dephasing(p: float, nu):
    # H2(nu) and H2(gamma) in one call, whose fixed cost dominates a float call
    h_nu, h_gamma = binary_entropy(np.array([nu, _gamma(nu, p)]))
    return 1.0, h_nu - h_gamma, 1.0 - h_gamma


def dephasing_bounds(p: float, nu) -> BoundTriple:
    """(1, H2(nu) - H2(gamma), 1 - H2(gamma)) for the qubit dephasing channel."""
    family = dephasing_family(p)
    _check_param("nu", nu)
    return family.fn(nu)


def _cloning_spectra(n: int, mu_clone):
    delta = n * (n + 1) / 2.0
    if isinstance(mu_clone, np.ndarray):  # one spectrum per row
        mu_clone = mu_clone[..., None]
    i_out = np.arange(n + 1, dtype=float)
    lam = ((n - 2.0 * i_out) * mu_clone + i_out) / delta
    i_env = np.arange(n, dtype=float)
    eta = ((n - 1.0 - 2.0 * i_env) * mu_clone + i_env + 1.0) / delta
    return lam, eta


def cloning_spectra(n: int, mu_clone):
    """Output and environment spectra {lam_i/D_N}, {eta_i/D_N} of the cloning
    boundary; a grid of mu_clone gives one spectrum per row."""
    n = positive_int(n, "cloning N")
    _check_param("mu_clone", mu_clone)
    return _cloning_spectra(n, mu_clone)


def cloning_rp_constant(n: int) -> float:
    """1 - log2 N + (1/D_N) sum_i i log2 i, the parameter-free first bound."""
    n = positive_int(n, "cloning N")
    delta = n * (n + 1) / 2.0
    s = sum(i * math.log2(i) for i in range(2, n + 1))
    return 1.0 - math.log2(n) + s / delta


def _cloning(n: int, b_rp: float, mu_clone):
    lam, eta = _cloning_spectra(n, mu_clone)
    h_lam = entropy_from_eigenvalues(lam)
    h_eta = entropy_from_eigenvalues(eta)
    return b_rp, h_lam - h_eta, math.log2(n + 1) - h_eta


def cloning_bounds(n: int, mu_clone) -> BoundTriple:
    """Boundary triple of the 1->N cloning channel at input eigenvalue mu_clone."""
    family = cloning_family(n)
    _check_param("mu_clone", mu_clone)
    return family.fn(mu_clone)


def _erasure(eps: float, p):
    h = binary_entropy(p)
    return 1.0 - eps, (1.0 - 2.0 * eps) * h, 1.0 - eps - eps * h


def erasure_bounds(eps: float, p) -> BoundTriple:
    """(1-eps, (1-2 eps) H2(p), 1 - eps - eps H2(p)) for the erasure channel."""
    family = erasure_family(eps)
    _check_param("p", p)
    return family.fn(p)


def eb_bounds(holevo: float) -> BoundTriple:
    """(C, 0, C) for an entanglement-breaking channel with Holevo capacity C."""
    if not math.isfinite(holevo):
        raise ValueError(f"Holevo value must be finite, got {holevo}")
    return BoundTriple(0.0, holevo, 0.0, holevo)


# A family checks its channel parameter once, when it is built, so that its
# fn runs only the closed form (and a grid's range check).


def dephasing_family(p: float) -> BoundaryFamily:
    _check_probability("dephasing probability", p)
    return _family("dephasing", "nu", partial(_dephasing, p))


def cloning_family(n: int) -> BoundaryFamily:
    n = positive_int(n, "cloning N")
    return _family("cloning", "mu_clone", partial(_cloning, n, cloning_rp_constant(n)))


def erasure_family(eps: float) -> BoundaryFamily:
    _check_probability("erasure probability", eps)
    return _family("erasure", "p", partial(_erasure, eps))


def eb_family(holevo: float) -> BoundaryFamily:
    bounds = eb_bounds(holevo)
    fields = (bounds.param, bounds.b_rp, bounds.b_ps, bounds.b_rps)

    def fn(t):  # the one triple at every parameter
        if isinstance(t, np.ndarray):
            return BoundTriple(*(np.full(t.shape, f) for f in fields))
        return bounds

    return BoundaryFamily("eb", "none", 0.0, 0.0, fn)


# ---------------------------------------------------------------------------
# Sampling, membership, Pareto
# ---------------------------------------------------------------------------


def _grid_size(grid_size) -> int:
    if type(grid_size) is not int:  # an int skips the slower general check
        grid_size = positive_int(grid_size, "grid_size")
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    return grid_size


def sample_boundary(family: BoundaryFamily, grid_size: int) -> list[BoundTriple]:
    """BoundTriples at uniformly spaced parameters over the family domain,
    from one call of ``family.fn`` on the whole grid."""
    b = family.fn(np.linspace(family.lo, family.hi, _grid_size(grid_size)))
    fields = (b.param, b.b_rp, b.b_ps, b.b_rps)
    return [BoundTriple(*row) for row in zip(*(f.tolist() for f in fields))]


def _violations(b: BoundTriple, pt: RateTriple):
    return (
        ("R+P", pt.r + pt.p - b.b_rp),
        ("P+S", pt.p + pt.s - b.b_ps),
        ("R+P+S", pt.r + pt.p + pt.s - b.b_rps),
    )


def _grid(lo: float, hi: float, n: int):
    """The floats of np.linspace(lo, hi, n) that differ from the one before
    them (an equal one cannot beat the first best).  The first is computed
    as numpy computes it, so the grid is built only if a scan goes on."""
    yield 0.0 * ((hi - lo) / (n - 1)) + lo
    params = np.linspace(lo, hi, n)
    yield from params[1:][params[1:] != params[:-1]].tolist()


def _scan(family: BoundaryFamily, lo: float, hi: float, grid_size: int, pt: RateTriple):
    best = (math.inf, None, None)
    for t in _grid(lo, hi, grid_size):
        vio = _violations(family.fn(t), pt)
        worst_name, worst = max(((n, v) for n, v in vio), key=lambda nv: nv[1])
        if worst < best[0]:
            best = (worst, t, worst_name)
        if worst <= MEMBERSHIP_TOL:
            return best, True
    return best, False


def membership(family: BoundaryFamily, point, grid_size: int = 1001) -> MembershipResult:
    """Point-in-region test: true iff some grid parameter satisfies all three
    inequalities within 1e-9; the grid is refined once around near-misses.
    A non-finite coordinate is rejected.  The scan calls ``family.fn`` one
    parameter at a time and stops at the first that holds the point."""
    grid_size = _grid_size(grid_size)
    pt = point if isinstance(point, RateTriple) else RateTriple(*point)
    for name, rate in (("R", pt.r), ("P", pt.p), ("S", pt.s)):
        if not math.isfinite(rate):
            raise ValueError(f"rate {name} must be finite, got {rate}")
    (worst, t_best, name), inside = _scan(family, family.lo, family.hi, grid_size, pt)
    if not inside and worst < NEAR_MISS:
        span = (family.hi - family.lo) / (grid_size - 1)
        lo = max(family.lo, t_best - span)
        hi = min(family.hi, t_best + span)
        (worst2, t2, name2), inside = _scan(family, lo, hi, grid_size, pt)
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

    A coarse grid, evaluated in one ``family.fn`` call, brackets the
    maximum (guarding the unimodality assumption) and golden-section
    search refines it one parameter at a time.
    """

    def weighted(t: float) -> float:
        b = family.fn(t)
        return b.b_rp + w.lam * b.b_ps + w.mu * b.b_rps

    params = np.linspace(family.lo, family.hi, PARETO_GRID)
    b = family.fn(params)
    vals = b.b_rp + w.lam * b.b_ps + w.mu * b.b_rps
    k = int(np.argmax(vals))
    lo = params[max(k - 1, 0)]
    hi = params[min(k + 1, PARETO_GRID - 1)]
    t, v = _golden_max(weighted, float(lo), float(hi))
    if vals[k] > v:
        t, v = float(params[k]), float(vals[k])
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
