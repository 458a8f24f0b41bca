"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The long-running criteria (2 and 5) use the default search
configuration deliberately.  Where a `privcap verify` suite already
checks a criterion, the test runs that suite once through the CLI and
asserts on its residuals rather than recomputing them.
"""

import math
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from privcap import (
    CqEnsemble,
    KrausChannel,
    RateTriple,
    SearchConfig,
    TradeoffWeights,
    cloning_bounds,
    cloning_family,
    cloning_spectra,
    corner_from_cq,
    dephasing_bounds,
    dephasing_family,
    eb_bounds,
    eb_family,
    erasure_bounds,
    erasure_family,
    evaluate_ensemble,
    holevo_capacity,
    make_cloning,
    make_dephasing,
    make_erasure,
    make_identity,
    maximize_p,
    membership,
    objective_p,
    pareto_point,
    region_quantities,
    unit_matrix_inverse_check,
)
from privcap.entropy import binary_entropy
from privcap.linalg import dag
from privcap.verify import SUITE_NAMES
from conftest import random_density, random_ensemble, random_unitary
from oracles import partial_trace, von_neumann_entropy

CLI = [sys.executable, "-m", "privcap"]
# suites that AC4-AC7 run; AC10 runs every other suite
ACCEPTANCE_SUITES = {"erasure-affine", "erasure-additivity", "corollaries",
                     "degradable-compare"}


def report(name, detail):
    print(f"[{name}] PASS  {detail}")


def verify_suite(name):
    """Run `privcap verify --suite name --seed 0` once: {check name: residual}."""
    res = subprocess.run(CLI + ["verify", "--suite", name, "--seed", "0"],
                         capture_output=True, text=True, timeout=900)
    assert res.returncode == 0 and "FAIL" not in res.stdout, res.stdout + res.stderr
    found = [re.fullmatch(r"PASS (\S+) residual=(\S+)", line) for line in res.stdout.splitlines()]
    assert found and all(found), res.stdout
    return {m[1]: float(m[2]) for m in found}


def test_ac01_completely_dephasing_eb_region():
    t0 = time.perf_counter()
    hv = holevo_capacity(make_dephasing(1.0), SearchConfig())
    b = eb_bounds(hv)
    assert b.b_rp == pytest.approx(1.0, abs=5e-3)
    assert b.b_ps == pytest.approx(0.0, abs=5e-3)
    assert b.b_rps == pytest.approx(1.0, abs=5e-3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report("AC1", f"eb_bounds(holevo(Delta)) = ({b.b_rp:.5f}, {b.b_ps:.5f}, {b.b_rps:.5f}) "
                  f"in {elapsed:.1f}s")


def test_ac02_dephasing_boundary_and_search():
    t0 = time.perf_counter()
    b = dephasing_bounds(0.2, 0.5)
    reference = 1.0 - binary_entropy(0.9)
    assert b.b_ps == pytest.approx(reference, abs=1e-12)
    assert b.b_rps == pytest.approx(reference, abs=1e-12)
    assert b.b_ps == pytest.approx(0.53100, abs=1e-4)
    ch = make_dephasing(0.2)
    fam = dephasing_family(0.2)
    cfg = SearchConfig()
    worst = 0.0
    for lam in (0.0, 0.5, 1.0, 2.0):
        for mu in (0.0, 0.5, 1.0, 2.0):
            w = TradeoffWeights(lam, mu)
            numeric, _ = maximize_p(ch, w, cfg)
            closed = pareto_point(fam, w).value
            worst = max(worst, abs(numeric - closed))
            assert numeric == pytest.approx(closed, abs=5e-3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report("AC2", f"16 weight pairs, worst |search - closed| = {worst:.2e} in {elapsed:.0f}s")


def test_ac03_cloning_bounds():
    for n, expect in ((1, 1.0), (2, 2.0 / 3.0), (10, None)):
        delta = n * (n + 1) / 2
        direct = 1.0 - math.log2(n) + sum(i * math.log2(i) for i in range(2, n + 1)) / delta
        got = cloning_bounds(n, 0.3).b_rp
        assert got == pytest.approx(direct, abs=1e-12)
        if expect is not None:
            assert got == pytest.approx(expect, abs=1e-12)
    b = cloning_bounds(1, 0.5)
    assert (b.b_rp, b.b_ps, b.b_rps) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        mu = float(rng.uniform(0.0, 0.5))
        lam, eta = cloning_spectra(n, mu)
        for spec in (lam, eta):
            assert spec.min() >= -1e-12
            assert spec.sum() == pytest.approx(1.0, abs=1e-12)
    report("AC3", "b_rp exact for N in {1,2,10}; N=1 sanity (1,1,1); 200 spectra valid")


def test_ac04_erasure_bounds():
    b = erasure_bounds(0.25, 0.5)
    assert (b.b_rp, b.b_ps, b.b_rps) == (0.75, 0.5, 0.5)
    checks = verify_suite("erasure-affine")
    affinity = checks["erasure-affine/eps-0.25"]
    assert affinity <= 1e-12 and "erasure-affine/suff-condition-collapse" in checks
    eps = 0.25
    fam = erasure_family(eps)
    rng = np.random.default_rng(7)
    for _ in range(20):
        mu = float(rng.uniform(0.5, 4.0))
        lam = float(rng.uniform(0.0, 0.95) * mu * eps / (1 - 2 * eps))
        assert lam * (1 - 2 * eps) < mu * eps
        pp = pareto_point(fam, TradeoffWeights(lam, mu))
        assert pp.param == pytest.approx(0.0, abs=1e-4)
        assert pp.value == pytest.approx((1 - eps) * (1 + mu), abs=1e-6)
    report("AC4", f"(0.75, 0.5, 0.5) exact; affinity residual {affinity:.1e}; 20 collapse pairs")


def test_ac05_erasure_additivity():
    t0 = time.perf_counter()
    checks = verify_suite("erasure-additivity")
    elapsed = time.perf_counter() - t0
    gaps = [checks[f"erasure-additivity/gap-{w}"] for w in ("(1.0,0.0)", "(0.0,1.0)", "(1.0,1.0)")]
    assert max(gaps) <= 1e-3
    assert elapsed < 600.0
    report("AC5", f"two-copy gaps {', '.join(f'{g:.1e}' for g in gaps)} in {elapsed:.0f}s")


def test_ac06_formula_reductions():
    rng = np.random.default_rng(11)
    ch = make_dephasing(0.2)
    w0 = TradeoffWeights(0.0, 0.0)
    worst = 0.0
    for _ in range(100):
        ev = evaluate_ensemble(ch, random_ensemble(rng, 2, 2, 2))
        worst = max(worst, abs(objective_p(ev, w0) - region_quantities(ev).rp))
    assert worst <= 1e-12
    checks = verify_suite("corollaries")
    assert checks["corollaries/classical-capacity-reduction-exact"] <= 1e-12
    # the suite measures from the closed form 0.5310044064107188, not from 0.5310
    pi_res = checks["corollaries/private-capacity-dephasing-0.2"]
    assert pi_res <= 5e-3 - abs(0.5310044064107188 - 0.5310)
    hv_res = checks["corollaries/holevo-erasure-0.25"]
    assert hv_res <= 5e-3
    report("AC6", f"HSW reduction exact; |DCWY(dephasing) - closed| = {pi_res:.1e}; "
                  f"|holevo(erasure) - 0.75| = {hv_res:.1e}")


def test_ac07_formula_comparisons():
    checks = verify_suite("degradable-compare")
    for mu in (0.0, 1.0):
        assert checks[f"degradable-compare/f-equals-P-mu-{mu}"] <= 5e-3
    for w in ("(0.0,0.0)", "(1.0,0.0)", "(0.0,1.0)", "(1.0,1.0)"):
        assert checks[f"degradable-compare/D-at-least-P-{w}"] >= -1e-3
    report("AC7", "f_mu = P_mu (mu in {0,1}); D >= P at four weight pairs")


def test_ac08_geometry():
    assert unit_matrix_inverse_check()
    families = (
        dephasing_family(0.2),
        erasure_family(0.25),
        cloning_family(10),
        eb_family(1.0),
    )
    protocol_points = (
        RateTriple(-1.0, 1.0, -1.0),
        RateTriple(0.0, -1.0, 1.0),
        RateTriple(1.0, -1.0, 0.0),
    )
    for fam in families:
        for point in protocol_points:
            assert membership(fam, point).inside
    rng = np.random.default_rng(13)
    ch = make_erasure(0.25)
    for _ in range(100):
        ev = evaluate_ensemble(ch, random_ensemble(rng, 2, 2, 2))
        c = corner_from_cq(ev)
        q = region_quantities(ev)
        assert abs(c.r + c.p - q.rp) <= 1e-9
        assert abs(c.p + c.s - q.ps) <= 1e-9
        assert abs(c.r + c.p + c.s - q.rps) <= 1e-9
    report("AC8", "matrix inverse exact; unit protocols inside; 100 corner saturations")


def test_ac09_property_suite():
    rng = np.random.default_rng(17)
    # entropy axioms
    for _ in range(20):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        assert von_neumann_entropy(np.outer(v, v.conj())) == pytest.approx(0.0, abs=1e-9)
        rho = random_density(rng, 4)
        u = random_unitary(rng, 4)
        assert von_neumann_entropy(u @ rho @ dag(u)) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-9
        )
    # the partial-trace channel A_k = I ⊗ <k| has output A and environment B,
    # so the library's evaluation of rho_AB gives H(A), H(B) and H(AB)
    trace_b = KrausChannel(4, 2, tuple(np.kron(np.eye(2), np.eye(2)[k:k + 1]) for k in range(2)))
    for _ in range(200):
        rho_ab = random_density(rng, 4)
        h_ab = von_neumann_entropy(rho_ab)
        h_a = von_neumann_entropy(partial_trace(rho_ab, [2, 2], {0}))
        h_b = von_neumann_entropy(partial_trace(rho_ab, [2, 2], {1}))
        assert h_ab <= h_a + h_b + 1e-9
        ev = evaluate_ensemble(trace_b, CqEnsemble(np.ones((1, 1)), rho_ab[None, None]))
        assert max(abs(ev.h_b - h_a), abs(ev.h_e - h_b), abs(ev.h_in_x - h_ab)) < 1e-12
        assert ev.h_in_x <= ev.h_b + ev.h_e + 1e-9
    # chain rule residual on cq evaluations
    ch = make_erasure(0.3)
    for _ in range(20):
        ev = evaluate_ensemble(ch, random_ensemble(rng, 2, 2, 2))
        q = region_quantities(ev)
        assert abs(q.rp - ((ev.h_b - ev.h_b_x) + (ev.h_b_x - ev.h_b_xy))) < 1e-9
    # Kraus completeness of every constructor
    channels = [make_dephasing(0.2), make_dephasing(1.0), make_erasure(0.25),
                make_erasure(0.7), make_cloning(1), make_cloning(2), make_cloning(10),
                make_identity(2)]
    for ch in channels:
        s = sum(dag(a) @ a for a in ch.kraus)
        assert np.abs(s - np.eye(ch.dim_in)).max() < 1e-12
    # partial-trace oracle agreement
    for _ in range(20):
        rho = random_density(rng, 8)
        got = partial_trace(rho, [2, 2, 2], keep={1})
        expect = np.zeros((2, 2), dtype=complex)
        for j in range(2):
            for jp in range(2):
                for i in range(2):
                    for k in range(2):
                        expect[j, jp] += rho[4 * i + 2 * j + k, 4 * i + 2 * jp + k]
        assert np.abs(got - expect).max() < 1e-12
    report("AC9", "entropy axioms (oracle and library), chain rule, Kraus completeness, "
           "partial-trace oracle")


def test_ac10_cli_regression(tmp_path):
    figure_channels = (
        ("dephasing", ["--p", "0.2"]),
        ("cloning", ["--n", "10"]),
        ("erasure", ["--eps", "0.25"]),
    )
    for name, flags in figure_channels:
        outputs = []
        for run in range(2):
            out = tmp_path / f"{name}_{run}.csv"
            res = subprocess.run(
                CLI + ["region", "--channel", name, *flags, "--grid", "101",
                       "--out", str(out), "--seed", "7"],
                capture_output=True, text=True, timeout=300,
            )
            assert res.returncode == 0, res.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
    others = [name for name in SUITE_NAMES if name not in ACCEPTANCE_SUITES]
    assert ACCEPTANCE_SUITES | set(others) == set(SUITE_NAMES)
    for suite in others:
        verify_suite(suite)
    report("AC10", f"CSV byte-stable for the three figure channels; {', '.join(others)} pass")
