"""Named verification suites bundling the library's structural checks.

Each suite returns a list of (check name, passed, residual) tuples; the
CLI prints one line per check and fails if any check fails.
"""

from __future__ import annotations

import numpy as np

from .channels import make_dephasing, make_erasure
from .entropy import binary_entropy
from .regions import additivity_gap, erasure_bounds, pareto_point, erasure_family, \
    unit_matrix_inverse_check
from .search import XorShift64Star
from .tradeoff import (
    CqEnsemble,
    SearchConfig,
    TradeoffWeights,
    antidegradable_value,
    cq_tradeoff_f,
    evaluate_ensemble,
    holevo_capacity,
    maximize_p,
    objective_p,
    pauli_symmetrize,
    private_information,
    public_private_tradeoff,
    quantum_dynamic_d,
    region_quantities,
)


AFFINE_GRID = 1001  # boundary parameters the erasure-affine suite checks on [0, 1/2]


def _random_qubit_ensemble(rng: XorShift64Star) -> CqEnsemble:
    """A 2x2 ensemble of random mixed qubit states."""
    raw = 0.1 + rng.uniforms(4)
    probs = (raw / raw.sum()).reshape(2, 2)
    states = np.empty((2, 2, 2, 2), dtype=complex)
    for x in range(2):
        for y in range(2):
            re = 2.0 * rng.uniforms(4) - 1.0
            im = 2.0 * rng.uniforms(4) - 1.0
            m = (re + 1j * im).reshape(2, 2)
            g = m @ m.conj().T
            states[x, y] = g / np.trace(g).real
    return CqEnsemble(probs, states)


def suite_unit_matrix(seed: int = 0):
    ok = unit_matrix_inverse_check()
    return [("unit-matrix/inverse-exact", ok, 0.0)]


def suite_corollaries(seed: int = 0):
    checks = []
    rng = XorShift64Star(seed)
    deph = make_dephasing(0.2)
    worst = 0.0
    for _ in range(30):
        ens = _random_qubit_ensemble(rng)
        ev = evaluate_ensemble(deph, ens)
        diff = abs(objective_p(ev, TradeoffWeights(0.0, 0.0)) - region_quantities(ev).rp)
        worst = max(worst, diff)
    checks.append(("corollaries/classical-capacity-reduction-exact", worst <= 1e-12, worst))
    cfg = SearchConfig(seed=seed)
    pi = private_information(deph, cfg)
    res = abs(pi - 0.5310044064107188)
    checks.append(("corollaries/private-capacity-dephasing-0.2", res <= 5e-3, res))
    hv = holevo_capacity(make_erasure(0.25), cfg)
    res = abs(hv - 0.75)
    checks.append(("corollaries/holevo-erasure-0.25", res <= 5e-3, res))
    return checks


def suite_antidegradable(seed: int = 0, eps: float = 0.6):
    checks = []
    rng = XorShift64Star(seed)
    ch = make_erasure(eps)
    worst = -np.inf
    for _ in range(40):
        ens = _random_qubit_ensemble(rng)
        worst = max(worst, region_quantities(evaluate_ensemble(ch, ens)).ps)
    checks.append((f"antidegradable/erasure-{eps}-ps-nonpositive", worst <= 1e-9, worst))
    cfg = SearchConfig(seed=seed)
    delta = make_dephasing(1.0)
    hv = holevo_capacity(delta, cfg)
    for mu in (0.0, 1.0):
        w = TradeoffWeights(0.0, mu)
        v, _ = maximize_p(delta, w, cfg)
        res = abs(v - antidegradable_value(delta, w, hv))
        checks.append((f"antidegradable/completely-dephasing-mu-{mu}", res <= 5e-3, res))
    return checks


def suite_degradable_compare(seed: int = 0, p: float = 0.2):
    checks = []
    ch = make_dephasing(p)
    cfg = SearchConfig(seed=seed)
    for mu in (0.0, 1.0):
        f = cq_tradeoff_f(ch, mu, cfg)
        pm = public_private_tradeoff(ch, mu, cfg)
        res = abs(f - pm)
        checks.append((f"degradable-compare/f-equals-P-mu-{mu}", res <= 5e-3, res))
    for lam, mu in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        w = TradeoffWeights(lam, mu)
        d_val = quantum_dynamic_d(ch, w, cfg)
        p_val, _ = maximize_p(ch, w, cfg)
        margin = d_val - p_val
        checks.append(
            (f"degradable-compare/D-at-least-P-({lam},{mu})", margin >= -1e-3, margin)
        )
    return checks


def suite_erasure_additivity(seed: int = 0, eps: float = 0.25):
    checks = []
    ch = make_erasure(eps)
    cfg = SearchConfig(seed=seed, restarts=50)
    for lam, mu in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        gap = additivity_gap(ch, TradeoffWeights(lam, mu), cfg)
        checks.append((f"erasure-additivity/gap-({lam},{mu})", gap <= 1e-3, gap))
    return checks


def suite_erasure_affine(seed: int = 0, eps: float = 0.25):
    b0 = erasure_bounds(eps, 0.0)
    b1 = erasure_bounds(eps, 0.5)
    worst = 0.0
    for p in np.linspace(0.0, 0.5, AFFINE_GRID):
        t = binary_entropy(float(p))
        b = erasure_bounds(eps, float(p))
        for got, lo, hi in ((b.b_rp, b0.b_rp, b1.b_rp), (b.b_ps, b0.b_ps, b1.b_ps),
                            (b.b_rps, b0.b_rps, b1.b_rps)):
            worst = max(worst, abs(got - ((1.0 - t) * lo + t * hi)))
    checks = [(f"erasure-affine/eps-{eps}", worst <= 1e-12, worst)]
    v = pareto_point(erasure_family(eps), TradeoffWeights(0.4, 1.0))
    res = abs(v.value - (1.0 - eps) * 2.0)
    checks.append(("erasure-affine/suff-condition-collapse", res <= 1e-6 and v.param <= 1e-4, res))
    return checks


def suite_pauli_symmetry(seed: int = 0, p: float = 0.2):
    ch = make_dephasing(p)
    rng = XorShift64Star(seed)
    worst = -np.inf
    for lam, mu in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (2.0, 0.5)):
        w = TradeoffWeights(lam, mu)
        for _ in range(10):
            ens = _random_qubit_ensemble(rng)
            before = objective_p(evaluate_ensemble(ch, ens), w)
            after = objective_p(evaluate_ensemble(ch, pauli_symmetrize(ens)), w)
            worst = max(worst, before - after)
    return [("pauli-symmetry/objective-never-decreases", worst <= 1e-9, worst)]


SUITES = {
    "unit-matrix": suite_unit_matrix,
    "corollaries": suite_corollaries,
    "antidegradable": suite_antidegradable,
    "degradable-compare": suite_degradable_compare,
    "erasure-additivity": suite_erasure_additivity,
    "erasure-affine": suite_erasure_affine,
    "pauli-symmetry": suite_pauli_symmetry,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, seed: int = 0, **kwargs):
    if name not in SUITES:
        raise ValueError(f"unknown suite '{name}'; choose from {', '.join(SUITE_NAMES)}")
    return SUITES[name](seed=seed, **kwargs)
