import math
import warnings
from dataclasses import fields
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privcap import search, tradeoff
from privcap import (
    CqEnsemble,
    SearchConfig,
    TradeoffWeights,
    additivity_gap,
    antidegradable_value,
    cq_tradeoff_f,
    dephasing_gamma,
    eb_bounds,
    eb_family,
    evaluate_ensemble,
    holevo_capacity,
    make_cloning,
    make_dephasing,
    make_erasure,
    make_identity,
    maximize_p,
    objective_p,
    pauli_symmetrize,
    private_information,
    public_private_tradeoff,
    quantum_dynamic_d,
    region_quantities,
    tensor_channels,
    tensor_ensembles,
    tensor_product,
)
from privcap.channels import branch_outputs
from privcap.entropy import binary_entropy
from privcap.search import coordinate_ascent
from privcap.tradeoff import (
    _ALL_FIELDS,
    _bundle,
    _eigvals_psd,
    _entropies_psd,
    _expect,
    _ParamSpace,
    _linear_form,
    _ProbeObjective,
    _solve,
)
from conftest import random_density, random_ensemble
from oracles import evolve, partial_trace, von_neumann_entropy

FAST = SearchConfig(seed=3, restarts=8, iters=200)

ERASURE = make_erasure(0.25)
PROBE_CHANNELS = (make_dephasing(0.2), ERASURE, make_cloning(10),
                  tensor_channels(ERASURE, ERASURE))


def basis_state(d, i):
    rho = np.zeros((d, d), dtype=complex)
    rho[i, i] = 1.0
    return rho


def correlated_basis_ensemble(nu):
    """X uniform on {0,1}; Y|X has weights (nu, 1-nu); states are |y>."""
    probs = np.array([[nu / 2, (1 - nu) / 2], [(1 - nu) / 2, nu / 2]])
    states = np.array(
        [
            [basis_state(2, 0), basis_state(2, 1)],
            [basis_state(2, 0), basis_state(2, 1)],
        ]
    )
    return CqEnsemble(probs, states)


def basis_x_ensemble(d=2):
    probs = np.full((d, 1), 1.0 / d)
    states = np.array([[basis_state(d, x)] for x in range(d)])
    return CqEnsemble(probs, states)


class TestEvaluateEnsemble:
    def test_point_mass_identity_pure(self):
        ens = CqEnsemble(np.array([[1.0]]), np.array([[basis_state(2, 0)]]))
        ev = evaluate_ensemble(make_identity(2), ens)
        for h in (ev.h_b, ev.h_b_x, ev.h_b_xy, ev.h_e_x, ev.h_e_xy):
            assert h == pytest.approx(0.0, abs=1e-12)

    def test_completely_dephasing_basis_x(self):
        ev = evaluate_ensemble(make_dephasing(1.0), basis_x_ensemble())
        assert ev.h_b - ev.h_b_x == pytest.approx(1.0, abs=1e-12)  # I(X;B) = 1

    def test_dephasing_basis_ensemble_ps_quantity(self):
        ev = evaluate_ensemble(make_dephasing(0.2), correlated_basis_ensemble(0.5))
        q = region_quantities(ev)
        assert q.ps == pytest.approx(1.0 - binary_entropy(0.9), abs=1e-12)

    def test_marginal_consistency(self, rng):
        # H(B|X) and H(E|X) are the p(x)-weighted entropies of the conditional
        # states sum_y p(y|x) N(rho_{x,y}) and its environment counterpart
        ch = make_erasure(0.25)
        ens = random_ensemble(rng, 2, 2, 3)
        ev = evaluate_ensemble(ch, ens)
        p_x = ens.probs.sum(axis=1)
        h_b_x = h_e_x = 0.0
        for x in range(ens.nx):
            outs = [evolve(ch, ens.states[x, y]) for y in range(ens.ny)]
            rho_b_x = sum(ens.probs[x, y] / p_x[x] * b for y, (b, _) in enumerate(outs))
            rho_e_x = sum(ens.probs[x, y] / p_x[x] * e for y, (_, e) in enumerate(outs))
            h_b_x += p_x[x] * von_neumann_entropy(rho_b_x)
            h_e_x += p_x[x] * von_neumann_entropy(rho_e_x)
        assert ev.h_b_x == pytest.approx(h_b_x, abs=1e-10)
        assert ev.h_e_x == pytest.approx(h_e_x, abs=1e-10)

    def test_against_dense_state_oracle(self, rng):
        # entropies from the vectorized path match brute-force entropies
        # of the explicit cq density matrix
        ch = make_erasure(0.3)
        ens = random_ensemble(rng, 2, 2, 2)
        ev = evaluate_ensemble(ch, ens)
        nx, ny, db = 2, 2, 3
        sigma = np.zeros((nx * ny * db,) * 2, dtype=complex)
        for x in range(nx):
            for y in range(ny):
                px = np.zeros((nx, nx))
                px[x, x] = 1.0
                py = np.zeros((ny, ny))
                py[y, y] = 1.0
                rho_b, _ = evolve(ch, ens.states[x, y])
                sigma += ens.probs[x, y] * tensor_product(tensor_product(px, py), rho_b)
        dims = [nx, ny, db]
        h_b = von_neumann_entropy(partial_trace(sigma, dims, {2}))
        h_bx = von_neumann_entropy(partial_trace(sigma, dims, {0, 2})) - von_neumann_entropy(
            partial_trace(sigma, dims, {0})
        )
        h_bxy = von_neumann_entropy(sigma) - von_neumann_entropy(
            partial_trace(sigma, dims, {0, 1})
        )
        assert ev.h_b == pytest.approx(h_b, abs=1e-9)
        assert ev.h_b_x == pytest.approx(h_bx, abs=1e-9)
        assert ev.h_b_xy == pytest.approx(h_bxy, abs=1e-9)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            evaluate_ensemble(make_erasure(0.25), random_ensemble(rng, 3, 1, 1))


class TestRegionQuantities:
    def test_no_correlation(self):
        probs = np.full((2, 2), 0.25)
        states = np.array([[np.eye(2, dtype=complex) / 2] * 2] * 2)
        q = region_quantities(evaluate_ensemble(make_dephasing(0.2), CqEnsemble(probs, states)))
        assert q.rp == pytest.approx(0.0, abs=1e-12)
        assert q.ps == pytest.approx(0.0, abs=1e-12)
        assert q.rps == pytest.approx(0.0, abs=1e-12)

    def test_completely_dephasing_example(self):
        q = region_quantities(evaluate_ensemble(make_dephasing(1.0), basis_x_ensemble()))
        assert q.rp == pytest.approx(1.0, abs=1e-12)
        assert q.ps == pytest.approx(0.0, abs=1e-12)
        assert q.rps == pytest.approx(1.0, abs=1e-12)

    def test_erasure_basis_ensemble_point(self):
        q = region_quantities(evaluate_ensemble(make_erasure(0.25), correlated_basis_ensemble(0.5)))
        assert q.ps == pytest.approx(0.5, abs=1e-12)
        assert q.rps == pytest.approx(0.5, abs=1e-12)

    def test_chain_rule_identity(self, rng):
        ch = make_dephasing(0.3)
        for _ in range(10):
            ev = evaluate_ensemble(ch, random_ensemble(rng, 2, 2, 2))
            q = region_quantities(ev)
            i_x_b = ev.h_b - ev.h_b_x
            i_y_b_x = ev.h_b_x - ev.h_b_xy
            assert q.rp == pytest.approx(i_x_b + i_y_b_x, abs=1e-9)
            # rp - rps = I(Y;E|X) >= 0 up to numerics
            assert q.rp - q.rps >= -1e-9


class TestObjective:
    def test_zero_weights_is_rp_exactly(self, rng):
        ch = make_erasure(0.25)
        w = TradeoffWeights(0.0, 0.0)
        for _ in range(10):
            ev = evaluate_ensemble(ch, random_ensemble(rng, 2, 2, 2))
            assert objective_p(ev, w) == region_quantities(ev).rp

    def test_zero_ensemble_zero_for_all_weights(self):
        probs = np.array([[1.0]])
        states = np.array([[np.eye(2, dtype=complex) / 2]])
        ev = evaluate_ensemble(make_dephasing(0.2), CqEnsemble(probs, states))
        for lam, mu in ((0, 0), (1, 0), (0, 1), (2, 3)):
            assert objective_p(ev, TradeoffWeights(lam, mu)) == pytest.approx(0.0, abs=1e-11)

    def test_dephasing_basis_ensemble_objective(self):
        ev = evaluate_ensemble(make_dephasing(0.2), correlated_basis_ensemble(0.5))
        got = objective_p(ev, TradeoffWeights(1.0, 0.0))
        assert got == pytest.approx(1.0 + 1.0 - binary_entropy(0.9), abs=1e-12)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            TradeoffWeights(-0.1, 0.0)

    def test_non_finite_weights_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="lam"):
                TradeoffWeights(bad, 0.0)
            with pytest.raises(ValueError, match="mu"):
                TradeoffWeights(0.0, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name, call", [
        ("mu", lambda v: cq_tradeoff_f(make_dephasing(0.2), v)),
        ("mu", lambda v: public_private_tradeoff(make_dephasing(0.2), v)),
        ("Holevo", eb_bounds),
        ("Holevo", eb_family),
        ("Holevo", lambda v: antidegradable_value(make_erasure(0.7), TradeoffWeights(1, 0), v)),
        ("nu", lambda v: dephasing_gamma(v, 0.2)),
        ("p", lambda v: dephasing_gamma(0.25, v)),
    ], ids=["cq_tradeoff_f", "public_private_tradeoff", "eb_bounds", "eb_family",
            "antidegradable_value", "dephasing_gamma-nu", "dephasing_gamma-p"])
    def test_non_finite_input_is_named(self, name, call, bad):
        with pytest.raises(ValueError, match=f"{name} .*must be finite"):
            call(bad)


class TestSearchConfig:
    def test_bad_field_is_named(self):
        for kwargs, message in (
            ({"seed": 1.7}, "seed must be an integer, got 1.7"),
            ({"seed": "3"}, "seed must be an integer, got '3'"),
            ({"restarts": True}, "restarts must be an integer, got True"),
            ({"restarts": 0}, "restarts must be at least 1, got 0"),
            ({"iters": float("nan")}, "iters must be an integer, got nan"),
            ({"iters": -2}, "iters must be at least 1, got -2"),
            ({"nx": float("inf")}, "nx must be an integer, got inf"),
            ({"nx": 0}, "nx must be at least 1, got 0"),
            ({"ny": 2.0}, "ny must be an integer, got 2.0"),
        ):
            with pytest.raises(ValueError, match=f"search {message}$"):
                SearchConfig(**kwargs)

    def test_smallest_config_runs(self):
        # any integer seed, numpy integers, and budgets of 1
        cfg = SearchConfig(seed=-3, restarts=np.int64(1), iters=1, nx=1, ny=None)
        assert 0.0 <= holevo_capacity(make_dephasing(0.2), cfg) <= 1.0


class TestMaximizeP:
    def test_identity_reaches_two(self):
        v, _ = maximize_p(make_identity(2), TradeoffWeights(1.0, 0.0), FAST)
        assert v >= 2.0 - 1e-3

    def test_completely_dephasing_collapses(self):
        for lam, mu in ((0.0, 0.0), (1.0, 0.0), (0.5, 2.0)):
            v, _ = maximize_p(make_dephasing(1.0), TradeoffWeights(lam, mu), FAST)
            assert v == pytest.approx(1.0 + mu, abs=5e-3)

    def test_deterministic(self):
        w = TradeoffWeights(1.0, 1.0)
        v1, e1 = maximize_p(make_dephasing(0.2), w, FAST)
        v2, e2 = maximize_p(make_dephasing(0.2), w, FAST)
        assert v1 == v2
        assert np.array_equal(e1.probs, e2.probs)
        assert np.array_equal(e1.states, e2.states)

    def test_monotone_in_restarts(self):
        w = TradeoffWeights(0.5, 0.5)
        ch = make_erasure(0.25)
        vals = [
            maximize_p(ch, w, SearchConfig(seed=9, restarts=r, iters=60))[0]
            for r in (2, 5, 9)
        ]
        assert vals[0] <= vals[1] + 1e-15
        assert vals[1] <= vals[2] + 1e-15

    def test_returns_feasible_ensemble(self):
        w = TradeoffWeights(1.0, 0.0)
        v, ens = maximize_p(make_erasure(0.25), w, FAST)
        ev = evaluate_ensemble(make_erasure(0.25), ens)
        assert objective_p(ev, w) == pytest.approx(v, abs=1e-9)

    def test_warm_start_is_respected(self):
        w = TradeoffWeights(1.0, 0.0)
        cfg = SearchConfig(seed=5, restarts=1, iters=10)
        _, best = maximize_p(make_dephasing(0.2), w, SearchConfig(seed=5, restarts=6, iters=200))
        v, _ = maximize_p(make_dephasing(0.2), w, cfg, starts=(best,))
        assert v >= objective_p(evaluate_ensemble(make_dephasing(0.2), best), w) - 1e-12

    def test_search_value_is_public_evaluation(self):
        # the search objective and evaluate_ensemble run the same code, so
        # re-evaluating the returned ensemble reproduces the value exactly
        w = TradeoffWeights(1.0, 0.5)
        for ch in (make_dephasing(0.2), make_erasure(0.25)):
            v, ens = maximize_p(ch, w, FAST)
            assert v == objective_p(evaluate_ensemble(ch, ens), w)


class TestAntidegradable:
    def test_values(self):
        ch = make_erasure(0.75)
        assert antidegradable_value(ch, TradeoffWeights(0.0, 0.0), 1.0) == 1.0
        assert antidegradable_value(ch, TradeoffWeights(0.0, 3.0), 1.0) == 4.0

    def test_lambda_independent(self):
        ch = make_erasure(0.75)
        vals = {
            antidegradable_value(ch, TradeoffWeights(lam, 1.0), 0.7) for lam in (0.0, 1.0, 9.0)
        }
        assert len(vals) == 1

    def test_warns_on_label_mismatch(self):
        with pytest.warns(UserWarning, match="antidegradable"):
            antidegradable_value(make_dephasing(0.2), TradeoffWeights(0.0, 0.0), 1.0)

    def test_erasure_above_half_has_nonpositive_ps(self, rng):
        ch = make_erasure(0.6)
        for _ in range(20):
            q = region_quantities(evaluate_ensemble(ch, random_ensemble(rng, 2, 2, 2)))
            assert q.ps <= 1e-9


class TestScalarCapacities:
    def test_holevo_identity(self):
        assert holevo_capacity(make_identity(2), FAST) == pytest.approx(1.0, abs=1e-4)

    def test_holevo_completely_dephasing(self):
        assert holevo_capacity(make_dephasing(1.0), FAST) == pytest.approx(1.0, abs=1e-4)

    def test_holevo_erasure(self):
        assert holevo_capacity(make_erasure(0.25), FAST) == pytest.approx(0.75, abs=5e-3)

    def test_private_identity(self):
        assert private_information(make_identity(2), FAST) == pytest.approx(1.0, abs=1e-3)

    def test_private_erasure_half(self):
        assert private_information(make_erasure(0.5), FAST) == pytest.approx(0.0, abs=1e-3)

    def test_private_dephasing(self):
        expect = 1.0 - binary_entropy(0.9)
        assert private_information(make_dephasing(0.2), FAST) == pytest.approx(expect, abs=5e-3)


class TestComparisonFormulas:
    def test_f_identity(self):
        # for the noiseless channel the bracket collapses and the value
        # is the maximal output entropy
        assert cq_tradeoff_f(make_identity(2), 0.0, FAST) == pytest.approx(1.0, abs=1e-3)

    def test_f_bounded_by_holevo_for_antidegradable(self):
        ch = make_erasure(0.6)
        f = cq_tradeoff_f(ch, 0.5, FAST)
        hv = holevo_capacity(ch, FAST)
        assert f <= hv + 1e-6

    def test_f_equals_public_private_for_dephasing(self):
        for mu in (0.0, 1.0):
            f = cq_tradeoff_f(make_dephasing(0.2), mu, FAST)
            pm = public_private_tradeoff(make_dephasing(0.2), mu, FAST)
            assert f == pytest.approx(pm, abs=5e-3)

    def test_d_identity(self):
        v = quantum_dynamic_d(make_identity(2), TradeoffWeights(0.0, 0.0), FAST)
        assert v == pytest.approx(2.0, abs=1e-3)

    def test_d_completely_dephasing(self):
        v = quantum_dynamic_d(make_dephasing(1.0), TradeoffWeights(1.0, 0.0), FAST)
        assert v == pytest.approx(1.0, abs=5e-3)

    def test_d_dominates_p_for_dephasing(self):
        w = TradeoffWeights(1.0, 0.0)
        d_val = quantum_dynamic_d(make_dephasing(0.2), w, FAST)
        p_val, _ = maximize_p(make_dephasing(0.2), w, FAST)
        assert d_val >= p_val - 1e-3


class TestEnsembleOps:
    def test_pauli_symmetrize_structure(self, rng):
        ens = random_ensemble(rng, 2, 2, 2)
        sym = pauli_symmetrize(ens)
        assert sym.nx == 8 and sym.ny == 2
        assert sym.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(sym.states[0] - ens.states[0]).max() < 1e-12  # j=0 is identity

    def test_pauli_symmetrize_never_decreases_objective(self, rng):
        ch = make_dephasing(0.2)
        for lam, mu in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.5, 0.5)):
            w = TradeoffWeights(lam, mu)
            for _ in range(5):
                ens = random_ensemble(rng, 2, 2, 2)
                before = objective_p(evaluate_ensemble(ch, ens), w)
                after = objective_p(evaluate_ensemble(ch, pauli_symmetrize(ens)), w)
                assert after >= before - 1e-9

    def test_tensor_ensembles_objective_adds(self, rng):
        from privcap import tensor_channels

        ch = make_erasure(0.25)
        pair = tensor_channels(ch, ch)
        w = TradeoffWeights(1.0, 0.5)
        e1 = random_ensemble(rng, 2, 2, 2)
        e2 = random_ensemble(rng, 2, 2, 2)
        v1 = objective_p(evaluate_ensemble(ch, e1), w)
        v2 = objective_p(evaluate_ensemble(ch, e2), w)
        v12 = objective_p(evaluate_ensemble(pair, tensor_ensembles(e1, e2)), w)
        assert v12 == pytest.approx(v1 + v2, abs=1e-9)

    def test_tensor_ensembles_is_the_kron_loop(self, rng):
        # indices of the first ensemble are most significant, and every state
        # is bitwise the Kronecker product of its two factors
        for (da, nxa, nya), (db, nxb, nyb) in (((2, 2, 3), (2, 3, 1)), ((2, 1, 2), (3, 2, 2))):
            a, b = random_ensemble(rng, da, nxa, nya), random_ensemble(rng, db, nxb, nyb)
            t = tensor_ensembles(a, b)
            assert t.probs.shape == (nxa * nxb, nya * nyb)
            for xa, xb, ya, yb in np.ndindex(nxa, nxb, nya, nyb):
                x, y = xa * nxb + xb, ya * nyb + yb
                assert t.probs[x, y] == pytest.approx(a.probs[xa, ya] * b.probs[xb, yb], abs=1e-15)
                assert np.array_equal(t.states[x, y], np.kron(a.states[xa, ya], b.states[xb, yb]))


class TestInternals:
    def test_analytic_2x2_eigenvalues(self, rng):
        batch = np.stack([random_density(rng, 2) for _ in range(20)])
        got = _eigvals_psd(batch)
        expect = np.linalg.eigvalsh(batch)
        assert np.abs(np.sort(got, axis=-1) - expect).max() < 1e-12

    def test_cq_ensemble_validation(self):
        with pytest.raises(ValueError, match="sum"):
            CqEnsemble(np.array([[0.7, 0.7]]), np.array([[np.eye(2) / 2] * 2]))
        bad_state = np.array([[np.diag([0.9, 0.2])]])
        with pytest.raises(ValueError, match="trace"):
            CqEnsemble(np.array([[1.0]]), bad_state.astype(complex))

    def test_cq_ensemble_rejects_non_finite(self):
        mixed = np.array([[np.eye(2) / 2] * 2], dtype=complex)
        with pytest.raises(ValueError, match="probs"):
            CqEnsemble(np.array([[np.nan, 1.0]]), mixed)
        with pytest.raises(ValueError, match="probs"):
            CqEnsemble(np.array([[np.inf, 1.0]]), mixed)
        bad = mixed.copy()
        bad[0, 1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="states"):
            CqEnsemble(np.array([[0.5, 0.5]]), bad)

    def test_expect_is_the_unbatched_dot(self, rng):
        # batched averages keep the arithmetic of np.dot / np.tensordot per row
        for n in (1, 3, 8, 16, 256):
            p = rng.dirichlet(np.ones(n), size=3)
            h = rng.random((3, n))
            rho = rng.normal(size=(3, n, 3, 3)) + 1j * rng.normal(size=(3, n, 3, 3))
            for r in range(3):
                assert _expect(p, h)[r] == np.dot(p[r], h[r])
                assert np.array_equal(_expect(p, rho)[r], np.tensordot(p[r], rho[r], axes=1))

    def test_batched_bundle_rows_are_exact(self, rng):
        # every row of a batched evaluation is bitwise its evaluation alone
        for ch in PROBE_CHANNELS:
            d = ch.dim_in
            for _ in range(4):
                rows = int(rng.integers(1, 7))
                nx, ny = (int(n) for n in rng.integers(1, 5, size=2))
                probs = rng.dirichlet(np.ones(nx * ny), size=rows).reshape(rows, nx, ny)
                if nx > 1:  # row 0 has an x of zero weight: the placeholder path
                    probs[0, 0] = 0.0
                    probs[0] /= probs[0].sum()
                states = np.array([[random_density(rng, d) for _ in range(nx * ny)]
                                   for _ in range(rows)])
                batch = _bundle(ch, probs, states)
                for r in range(rows):
                    alone = _bundle(ch, probs[r:r + 1], states[r:r + 1])
                    for f in fields(batch):
                        assert np.array_equal(getattr(batch, f.name)[r],
                                              getattr(alone, f.name)[0]), f.name

    def test_channel_step_computes_only_read_systems(self, monkeypatch):
        # one channel pass per system that a read field names: a Holevo search
        # reads no environment field and makes no S_E product
        systems, evaluations = [], []

        def recorded(ch, states, system):
            systems.append(system)
            return branch_outputs(ch, states, system)

        def counted(*args, **kwargs):
            evaluations.append(1)
            return evaluate(*args, **kwargs)

        evaluate = tradeoff._evaluate
        monkeypatch.setattr(tradeoff, "branch_outputs", recorded)
        monkeypatch.setattr(tradeoff, "_evaluate", counted)
        cfg = SearchConfig(restarts=2, iters=20)
        holevo_capacity(make_dephasing(1.0), cfg)
        assert systems == ["B"] * len(evaluations)
        systems.clear()
        evaluations.clear()
        maximize_p(make_dephasing(0.2), TradeoffWeights(1.0, 0.0), cfg)
        assert systems == ["B", "E"] * len(evaluations)
        systems.clear()
        evaluations.clear()
        # at zero weights the objective is rp = H(B) - H(B|XY): no S_E product
        maximize_p(make_dephasing(0.2), TradeoffWeights(0.0, 0.0), cfg)
        assert systems == ["B"] * len(evaluations)

    def test_probe_cache_holds_inputs_and_entropies(self, rng):
        # the per-branch cache holds the input states and branch entropies,
        # nothing of the output or environment size
        ch = make_cloning(10)
        space = _ParamSpace(2, 3, ch.dim_in, mixed=True)
        objective = _ProbeObjective(ch, space, dict.fromkeys(_ALL_FIELDS, 1.0))
        objective(rng.uniform(-1.0, 1.0, size=(4, space.size)))
        assert sorted(objective.kept) == ["h_b_xy", "h_e_xy", "h_in_x", "inputs"]
        assert objective.kept["inputs"].shape == (4, space.nb, 2, 2)
        for key in ("h_b_xy", "h_e_xy", "h_in_x"):
            assert objective.kept[key].shape == (4, space.nb)

    def test_solve_is_one_solve_per_stack(self, rng):
        # stacks of sizes 2 (the closed form), 3 and 4 (LAPACK), grouped by
        # size in any order, give the entropies of each stack solved alone
        for _ in range(5):
            sizes = rng.choice([2, 3, 4], size=int(rng.integers(1, 8)))
            stacks = {k: np.array([random_density(rng, d) for _ in range(int(rng.integers(1, 6)))])
                      for k, d in enumerate(sizes)}
            got = _solve(stacks)
            assert got.keys() == stacks.keys()
            for k, stack in stacks.items():
                assert got[k].tobytes() == _entropies_psd(stack).tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(data=st.data())
    def test_incremental_rows_are_exact(self, data):
        # each call's rows are probes of 0-2 coordinates from a row of any
        # earlier call; every field read of every row is bitwise the full
        # evaluation, and the fields not read are None
        ch = data.draw(st.sampled_from(PROBE_CHANNELS), label="channel")
        nx, ny = data.draw(st.integers(1, 4), label="nx"), data.draw(st.integers(1, 4), label="ny")
        space = _ParamSpace(nx, ny, ch.dim_in, mixed=data.draw(st.booleans(), label="mixed"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        theta0 = rng.uniform(-1.0, 1.0, size=space.size)
        if nx > 1 and data.draw(st.booleans(), label="zero-weight x"):
            theta0[:ny] = 0.0
        reads = data.draw(st.sets(st.sampled_from(sorted(_ALL_FIELDS)), min_size=1), label="reads")
        objective = _ProbeObjective(ch, space, dict.fromkeys(reads, 1.0))
        points = [theta0]
        stack = theta0[None]
        for _ in range(data.draw(st.integers(1, 5), label="calls")):
            got = objective.evaluate(stack)
            want = _bundle(ch, *space.decode(stack))
            for f in fields(want):
                if f.name in reads:
                    assert getattr(got, f.name).tobytes() == getattr(want, f.name).tobytes(), f.name
                else:
                    assert getattr(got, f.name) is None, f.name
            points.extend(stack)
            rows = []
            for _ in range(data.draw(st.integers(1, 8), label="rows")):
                row = points[data.draw(st.integers(0, len(points) - 1), label="from")].copy()
                for _ in range(data.draw(st.integers(0, 2), label="changes")):
                    if data.draw(st.booleans(), label="probability"):
                        i = data.draw(st.integers(0, space.nb - 1), label="coordinate")
                    else:
                        i = data.draw(st.integers(space.nb, space.size - 1), label="coordinate")
                    row[i] += data.draw(st.sampled_from((0.35, -0.35, 0.3, -0.3, 0.0375)))
                rows.append(row)
            stack = np.array(rows)

    def test_incremental_search_is_exact(self, monkeypatch):
        # the searches, and every ascent of every restart in them, return what
        # evaluating every branch of every probe returns
        class EveryBranch:
            def __init__(self, ch, space, coeffs):  # evaluates every field
                self.ch, self.space, self.coeffs = ch, space, coeffs

            def __call__(self, theta):
                return _linear_form(_bundle(self.ch, *self.space.decode(theta)), self.coeffs)

        out = []

        def recorded(*args, **kwargs):
            value, theta, used = coordinate_ascent(*args, **kwargs)
            out.extend((repr(value), theta.tobytes(), used))
            return value, theta, used

        monkeypatch.setattr(tradeoff, "coordinate_ascent", recorded)
        calls = (partial(maximize_p, make_cloning(10), TradeoffWeights(1.0, 0.0)),
                 partial(maximize_p, make_dephasing(0.2), TradeoffWeights(0.5, 2.0)),
                 partial(holevo_capacity, make_dephasing(1.0)),
                 partial(additivity_gap, ERASURE, TradeoffWeights(1.0, 0.0)))

        def run():
            out.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for seed in range(3):
                    for call in calls:
                        got = call(SearchConfig(seed=seed, restarts=6, iters=40))
                        value, ens = got if isinstance(got, tuple) else (got, None)
                        out.append(repr(value))
                        if ens is not None:
                            out.extend((ens.probs.tobytes(), ens.states.tobytes()))
            return list(out)

        incremental = run()
        monkeypatch.setattr(tradeoff, "_ProbeObjective", EveryBranch)
        assert run() == incremental

    def test_search_values_are_full_evaluations(self, monkeypatch):
        # each search reads only some fields; its value is its objective at
        # the full evaluation of the ensemble it returns, bit for bit
        runs = []

        def recorded(ch, coeffs, cfg, **kwargs):
            out = run_search(ch, coeffs, cfg, **kwargs)
            runs.append((ch, coeffs, out))
            return out

        run_search = tradeoff._run_search
        monkeypatch.setattr(tradeoff, "_run_search", recorded)
        cfg = SearchConfig(seed=2, restarts=4, iters=40)
        w = TradeoffWeights(0.5, 2.0)
        for ch in (make_dephasing(0.2), ERASURE, make_cloning(3)):
            maximize_p(ch, w, cfg)
            holevo_capacity(ch, cfg)
            private_information(ch, cfg)
            cq_tradeoff_f(ch, 0.5, cfg)
            public_private_tradeoff(ch, 0.5, cfg)
            quantum_dynamic_d(ch, w, cfg)
        assert len(runs) == 18
        for ch, coeffs, (value, probs, states, _) in runs:
            nx, ny = probs.shape
            ens = CqEnsemble(probs, states.reshape(nx, ny, ch.dim_in, ch.dim_in))
            assert repr(float(_linear_form(evaluate_ensemble(ch, ens), coeffs))) == repr(value)

    def test_speculative_ascent_is_one_probe_at_a_time(self, rng, monkeypatch):
        # probes evaluated ahead in batches leave value, point and count of the
        # plain search unchanged, for budgets that end mid-coordinate and
        # mid-ride, a coordinate subset, a flat objective that runs the step
        # down to step_min, and NaN values
        ch = make_dephasing(0.2)
        w = TradeoffWeights(1.0, 0.5)
        space = _ParamSpace(2, 2, 2, mixed=True)

        def bundle(theta):
            return objective_p(_bundle(ch, *space.decode(theta)), w)

        def nan_above(theta):
            v = bundle(theta)
            return np.where(theta[:, 0] > 0.8, np.nan, v)

        def flat(theta):
            return np.zeros(len(theta))

        cases = [(fn, budget, coords) for fn in (bundle, nan_above)
                 for budget, coords in ((1, None), (7, None), (33, range(4)), (400, None))]
        cases.append((flat, 400, range(2)))
        for fn, budget, coords in cases:
            theta = rng.uniform(-1.0, 1.0, size=space.size)
            v0 = fn(theta[None])[0]
            want = _plain_ascent(lambda c: fn(c[None])[0], theta, v0, coords=coords,
                                 step=0.3, budget=budget)
            for lookahead in (1, 2, 8, 13):
                monkeypatch.setattr(search, "LOOKAHEAD", lookahead)
                sizes = []

                def counted(cands):
                    sizes.append(len(cands))
                    return fn(cands)

                got = coordinate_ascent(counted, theta, v0, coords=coords, step=0.3,
                                        budget=budget)
                assert got[0] == want[0] or np.isnan(got[0]) and np.isnan(want[0])
                assert np.array_equal(got[1], want[1])
                assert got[2] == want[2] <= budget
                assert max(sizes) <= lookahead
                assert lookahead > 1 or sum(sizes) == want[2]


def _plain_ascent(fn, theta, value, *, coords, step, budget, shrink=0.5, step_min=1e-7):
    """The coordinate pattern search with one objective call per probe."""
    theta = np.array(theta, dtype=float)
    order = list(range(len(theta))) if coords is None else list(coords)
    used = cursor = stale = 0
    while used < budget and step > step_min:
        i = order[cursor % len(order)]
        improved = False
        for delta in (step, -step):
            cand = theta.copy()
            cand[i] += delta
            v = fn(cand)
            used += 1
            if v > value:
                theta, value = cand, v
                improved = True
                while used < budget:
                    cand = theta.copy()
                    cand[i] += delta
                    v = fn(cand)
                    used += 1
                    if v > value:
                        theta, value = cand, v
                    else:
                        break
                break
            if used >= budget:
                break
        stale = 0 if improved else stale + 1
        if stale >= len(order):
            step *= shrink
            stale = 0
        cursor += 1
    return value, theta, used
