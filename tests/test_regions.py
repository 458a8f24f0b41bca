import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privcap import (
    RateTriple,
    SearchConfig,
    TradeoffWeights,
    additivity_gap,
    cloning_bounds,
    cloning_family,
    cloning_spectra,
    corner_from_cq,
    dephasing_bounds,
    dephasing_family,
    dephasing_gamma,
    eb_bounds,
    eb_family,
    erasure_bounds,
    erasure_family,
    evaluate_ensemble,
    make_cloning,
    make_dephasing,
    make_erasure,
    membership,
    pareto_point,
    region_quantities,
    sample_boundary,
    unit_matrix_inverse_check,
)
from privcap.entropy import binary_entropy
from privcap.regions import (
    MEMBERSHIP_TOL,
    NEAR_MISS,
    UNIT_MATRIX,
    UNIT_MATRIX_INVERSE,
    MembershipResult,
    _violations,
    matrices_are_inverse,
)
from privcap.verify import _boundary_ensemble
from conftest import random_ensemble

OTP = RateTriple(-1.0, 1.0, -1.0)
SKD = RateTriple(0.0, -1.0, 1.0)
P2P = RateTriple(1.0, -1.0, 0.0)


class TestUnitRegion:
    # eb_family(0.0) has the single bound triple (0, 0, 0): exactly the unit cone
    def test_protocol_points_inside(self):
        for point in (OTP, SKD, P2P):
            assert membership(eb_family(0.0), point).inside

    def test_positive_rate_outside(self):
        assert not membership(eb_family(0.0), RateTriple(0.1, 0.0, 0.0)).inside
        # a near-miss also runs the refinement scan, on the one-point domain
        res = membership(eb_family(0.0), RateTriple(5e-4, 0.0, 0.0))
        assert not res.inside
        assert (res.blocking_constraint, res.violation) == ("R+P", 5e-4)

    def test_matrix_inverse_exact(self):
        assert unit_matrix_inverse_check()

    def test_perturbed_inverse_fails(self):
        bad = [list(row) for row in UNIT_MATRIX_INVERSE]
        bad[0][0] = 1
        assert not matrices_are_inverse(UNIT_MATRIX, bad)
        assert not matrices_are_inverse(bad, UNIT_MATRIX)


class TestCorner:
    def test_zero_ensemble(self):
        from privcap import CqEnsemble

        ens = CqEnsemble(np.array([[1.0]]), np.array([[np.eye(2, dtype=complex) / 2]]))
        c = corner_from_cq(evaluate_ensemble(make_dephasing(0.2), ens))
        assert (c.r, c.p, c.s) == pytest.approx((0.0, 0.0, 0.0), abs=1e-11)

    def test_completely_dephasing_basis(self):
        from privcap import CqEnsemble

        probs = np.full((2, 1), 0.5)
        states = np.array([[np.diag([1.0, 0.0]).astype(complex)],
                           [np.diag([0.0, 1.0]).astype(complex)]])
        ev = evaluate_ensemble(make_dephasing(1.0), CqEnsemble(probs, states))
        c = corner_from_cq(ev)
        assert (c.r, c.p, c.s) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_corner_saturates_translated_halfspaces(self, rng):
        ch = make_erasure(0.25)
        for _ in range(20):
            ev = evaluate_ensemble(ch, random_ensemble(rng, 2, 2, 2))
            c = corner_from_cq(ev)
            q = region_quantities(ev)
            assert c.r + c.p == pytest.approx(q.rp, abs=1e-9)
            assert c.p + c.s == pytest.approx(q.ps, abs=1e-9)
            assert c.r + c.p + c.s == pytest.approx(q.rps, abs=1e-9)

    def test_translated_region_of_zero_ensemble_is_unit(self):
        from privcap import CqEnsemble

        ens = CqEnsemble(np.array([[1.0]]), np.array([[np.eye(2, dtype=complex) / 2]]))
        q = region_quantities(evaluate_ensemble(make_dephasing(0.2), ens))
        assert max(abs(q.rp), abs(q.ps), abs(q.rps)) < 1e-11


@pytest.mark.parametrize("make, bounds, param", [
    (make_dephasing, dephasing_bounds, st.floats(0.0, 1.0)),
    (make_erasure, erasure_bounds, st.floats(0.0, 1.0)),
    (make_cloning, cloning_bounds, st.integers(1, 12)),
])
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data())
def test_closed_forms_meet_the_evaluator(make, bounds, param, data):
    # the evaluator at the achieving ensemble gives the closed-form boundary,
    # so a search that falls short of a closed form has missed its optimum
    t = data.draw(st.floats(0.0, 0.5), label="t")
    a = data.draw(param, label="channel parameter")
    q = region_quantities(evaluate_ensemble(make(a), _boundary_ensemble(t)))
    b = bounds(a, t)
    assert (q.rp, q.ps, q.rps) == pytest.approx((b.b_rp, b.b_ps, b.b_rps), abs=1e-12, rel=0)


class TestDephasingBounds:
    def test_nu_zero(self):
        b = dephasing_bounds(0.2, 0.0)
        assert (b.b_rp, b.b_ps, b.b_rps) == pytest.approx((1.0, 0.0, 1.0), abs=1e-12)

    def test_noiseless(self):
        b = dephasing_bounds(0.0, 0.5)
        assert (b.b_rp, b.b_ps, b.b_rps) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)

    def test_reference_point(self):
        b = dephasing_bounds(0.2, 0.5)
        expect = 1.0 - binary_entropy(0.9)
        assert b.b_ps == pytest.approx(expect, abs=1e-12)
        assert b.b_rps == pytest.approx(expect, abs=1e-12)

    def test_domains(self):
        with pytest.raises(ValueError):
            dephasing_bounds(0.2, 0.7)
        with pytest.raises(ValueError):
            dephasing_bounds(-0.1, 0.3)


class TestCloningBounds:
    def test_identity_case(self):
        b = cloning_bounds(1, 0.5)
        assert (b.b_rp, b.b_ps, b.b_rps) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)

    def test_two_clones(self):
        b = cloning_bounds(2, 0.5)
        assert b.b_rp == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert b.b_ps == pytest.approx(math.log2(3) - 1.0, abs=1e-12)
        assert b.b_rps == pytest.approx(math.log2(3) - 1.0, abs=1e-12)

    def test_rp_formula_direct(self):
        for n in (1, 2, 10):
            delta = n * (n + 1) / 2
            expect = 1.0 - math.log2(n) + sum(i * math.log2(i) for i in range(2, n + 1)) / delta
            assert cloning_bounds(n, 0.25).b_rp == pytest.approx(expect, abs=1e-12)

    def test_spectra_are_distributions(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 12))
            mu = float(rng.uniform(0.0, 0.5))
            lam, eta = cloning_spectra(n, mu)
            for spec, size in ((lam, n + 1), (eta, n)):
                assert spec.shape == (size,)
                assert spec.min() >= -1e-12
                assert spec.sum() == pytest.approx(1.0, abs=1e-12)


class TestErasureBounds:
    def test_noiseless(self):
        b = erasure_bounds(0.0, 0.5)
        assert (b.b_rp, b.b_ps, b.b_rps) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)

    def test_antidegradable_boundary(self):
        for p in (0.0, 0.2, 0.5):
            assert erasure_bounds(0.5, p).b_ps == 0.0

    def test_quarter(self):
        b = erasure_bounds(0.25, 0.5)
        assert (b.b_rp, b.b_ps, b.b_rps) == (0.75, 0.5, 0.5)

    def test_affine_in_binary_entropy(self):
        b0 = erasure_bounds(0.25, 0.0)
        b1 = erasure_bounds(0.25, 0.5)
        for p in np.linspace(0.0, 0.5, 101):
            t = binary_entropy(float(p))
            b = erasure_bounds(0.25, float(p))
            assert abs(b.b_rp - ((1 - t) * b0.b_rp + t * b1.b_rp)) < 1e-12
            assert abs(b.b_ps - ((1 - t) * b0.b_ps + t * b1.b_ps)) < 1e-12
            assert abs(b.b_rps - ((1 - t) * b0.b_rps + t * b1.b_rps)) < 1e-12


class TestEbBounds:
    def test_unit_holevo(self):
        b = eb_bounds(1.0)
        assert (b.b_rp, b.b_ps, b.b_rps) == (1.0, 0.0, 1.0)

    def test_zero_holevo_gives_unit_region(self):
        b = eb_bounds(0.0)
        assert (b.b_rp, b.b_ps, b.b_rps) == (0.0, 0.0, 0.0)


class TestMembership:
    def test_dephasing_hsw_point(self):
        res = membership(dephasing_family(0.2), (1.0, 0.0, 0.0))
        assert res.inside
        assert res.witness == pytest.approx(0.0, abs=1e-9)

    def test_dephasing_private_excess(self):
        over = 1.0 - binary_entropy(0.9) + 0.01
        res = membership(dephasing_family(0.2), (0.0, over, 0.0))
        assert not res.inside
        assert res.blocking_constraint is not None

    def test_protocol_points_inside_every_family(self):
        families = (
            dephasing_family(0.2),
            erasure_family(0.25),
            cloning_family(10),
            eb_family(1.0),
        )
        for fam in families:
            for point in (OTP, SKD, P2P):
                assert membership(fam, point).inside

    def test_cloning_rp_excess(self):
        res = membership(cloning_family(2), (0.7, 0.0, 0.0))
        assert not res.inside

    def test_monotone_under_discarding(self):
        fam = erasure_family(0.25)
        base = RateTriple(0.3, 0.2, 0.0)
        assert membership(fam, base).inside
        for delta in (0.1, 0.5, 2.0):
            weaker = RateTriple(base.r - delta, base.p - delta, base.s - delta)
            assert membership(fam, weaker).inside

    def test_one_point_domain_is_scanned_once(self):
        # eb's domain is one parameter: its 1001 grid copies cost one call,
        # and the near-miss refinement one more
        calls = []

        def counted(t):
            calls.append(t)
            return eb_bounds(1.0)

        fam = replace(eb_family(1.0), fn=counted)
        for point, inside, n in (((1.1, 0.0, 0.0), False, 1), ((1.0005, 0.0, 0.0), False, 2),
                                 ((0.5, 0.0, 0.0), True, 1)):
            calls.clear()
            res = membership(fam, point)
            assert res.inside == inside and len(calls) == n
            assert res == membership(eb_family(1.0), point)

    def test_near_boundary_refinement(self):
        fam = dephasing_family(0.2)
        b = dephasing_bounds(0.2, 0.337)
        corner = RateTriple(b.b_rps - b.b_ps, b.b_rp + b.b_ps - b.b_rps, b.b_rps - b.b_rp)
        assert membership(fam, corner, grid_size=101).inside

    def test_scan_is_the_full_grid_scan(self):
        # taking the first grid parameter before building the grid leaves every
        # field of the result as the scan over the whole np.linspace grid gives it
        for fam in (dephasing_family(0.2), erasure_family(0.25), cloning_family(10),
                    eb_family(1.0)):
            mid = fam.fn(0.5 * (fam.lo + fam.hi))
            corner = (mid.b_rps - mid.b_ps, mid.b_rp + mid.b_ps - mid.b_rps, mid.b_rps - mid.b_rp)
            top = max(b.b_ps for b in sample_boundary(fam, 101))
            points = (OTP, SKD, P2P, tuple(c - 0.05 for c in corner),
                      (corner[0] + 5e-4, corner[1], corner[2]), (0.0, top + 0.01, 0.0))
            for point in points:
                assert repr(membership(fam, point)) == repr(_full_grid_membership(fam, point))


def _full_grid_membership(family, point, grid_size=1001):
    """``membership`` as a scan over the whole np.linspace grid, skipping a
    parameter equal to the one before by a mask over the grid."""
    pt = point if isinstance(point, RateTriple) else RateTriple(*point)

    def scan(params):
        best = (math.inf, None, None)
        for t in params[np.concatenate(([True], params[1:] != params[:-1]))]:
            worst_name, worst = max(_violations(family.fn(float(t)), pt), key=lambda nv: nv[1])
            if worst < best[0]:
                best = (worst, float(t), worst_name)
            if worst <= MEMBERSHIP_TOL:
                return best, True
        return best, False

    (worst, t_best, name), inside = scan(np.linspace(family.lo, family.hi, grid_size))
    if not inside and worst < NEAR_MISS:
        span = (family.hi - family.lo) / (grid_size - 1)
        lo, hi = max(family.lo, t_best - span), min(family.hi, t_best + span)
        (worst2, t2, name2), inside = scan(np.linspace(lo, hi, grid_size))
        if worst2 < worst:
            worst, t_best, name = worst2, t2, name2
    if inside:
        return MembershipResult(True, t_best, None, worst)
    return MembershipResult(False, None, name, worst)


class TestPareto:
    def test_erasure_collapse_region(self):
        pp = pareto_point(erasure_family(0.25), TradeoffWeights(0.4, 1.0))
        assert pp.value == pytest.approx(1.5, abs=1e-9)
        assert pp.param == pytest.approx(0.0, abs=1e-4)

    def test_erasure_interior(self):
        pp = pareto_point(erasure_family(0.25), TradeoffWeights(1.0, 0.0))
        assert pp.value == pytest.approx(1.25, abs=1e-9)
        assert pp.param == pytest.approx(0.5, abs=1e-6)

    def test_dephasing_constant_objective(self):
        pp = pareto_point(dephasing_family(0.2), TradeoffWeights(0.0, 0.0))
        assert pp.value == pytest.approx(1.0, abs=1e-12)

    def test_matches_grid_maximum(self):
        fam = dephasing_family(0.2)
        for lam, mu in ((0.7, 0.0), (1.0, 1.0), (0.0, 2.0), (2.0, 0.3)):
            w = TradeoffWeights(lam, mu)
            pp = pareto_point(fam, w)
            grid_best = max(
                b.b_rp + lam * b.b_ps + mu * b.b_rps for b in sample_boundary(fam, 1001)
            )
            assert pp.value >= grid_best - 1e-6


class TestSampling:
    def test_dephasing_grid(self):
        triples = sample_boundary(dephasing_family(0.2), 3)
        assert [b.param for b in triples] == pytest.approx([0.0, 0.25, 0.5])

    def test_cloning_identity_rp_constant(self):
        triples = sample_boundary(cloning_family(1), 7)
        assert all(b.b_rp == pytest.approx(1.0, abs=1e-12) for b in triples)

    def test_eb_family_is_constant(self):
        triples = sample_boundary(eb_family(0.8), 4)
        assert len(triples) == 4
        assert all(b.b_rp == 0.8 for b in triples)

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            sample_boundary(dephasing_family(0.2), 1)


FIELDS = ("param", "b_rp", "b_ps", "b_rps")


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(family=st.one_of(st.floats(0.0, 1.0).map(dephasing_family),
                        st.floats(0.0, 1.0).map(erasure_family),
                        st.integers(1, 40).map(cloning_family),
                        st.floats(0.0, 2.0).map(eb_family)),
       grid_size=st.integers(2, 1001))
def test_grid_rows_are_float_calls(family, grid_size):
    # one fn call on a grid gives, row by row, bitwise the float calls
    grid = np.linspace(family.lo, family.hi, grid_size)
    b = family.fn(grid)
    assert all(getattr(b, f).shape == (grid_size,) for f in FIELDS)
    rows = zip(*(getattr(b, f).tolist() for f in FIELDS))
    for t, row in zip(grid.tolist(), rows):
        one = family.fn(t)
        assert [repr(x) for x in row] == [repr(getattr(one, f)) for f in FIELDS]


class TestGridCalls:
    def test_sample_boundary_is_one_call(self):
        base = dephasing_family(0.2)
        calls = []

        def counted(t):
            calls.append(t)
            return base.fn(t)

        fam = replace(base, fn=counted)
        assert sample_boundary(fam, 101) == sample_boundary(base, 101)
        assert len(calls) == 1 and calls[0].shape == (101,)
        # pareto_point brackets with one grid call, then refines one float at a time
        calls.clear()
        assert pareto_point(fam, TradeoffWeights(1.0, 1.0)) == \
            pareto_point(base, TradeoffWeights(1.0, 1.0))
        assert isinstance(calls[0], np.ndarray)
        assert all(type(t) is float for t in calls[1:]) and len(calls) > 1

    def test_public_closed_forms_broadcast(self):
        grid = np.linspace(0.0, 0.5, 23)
        gamma = dephasing_gamma(grid, 0.2)
        lam, eta = cloning_spectra(5, grid)
        assert lam.shape == (23, 6) and eta.shape == (23, 5)
        for i, t in enumerate(grid.tolist()):
            assert repr(gamma[i].item()) == repr(dephasing_gamma(t, 0.2))
            one_lam, one_eta = cloning_spectra(5, t)
            assert lam[i].tobytes() == one_lam.tobytes() and eta[i].tobytes() == one_eta.tobytes()
            for bounds, a in ((dephasing_bounds, 0.2), (erasure_bounds, 0.25),
                              (cloning_bounds, 5)):
                b, one = bounds(a, grid), bounds(a, t)
                assert [repr(getattr(b, f)[i].item()) for f in FIELDS] == \
                    [repr(getattr(one, f)) for f in FIELDS]


class TestInputChecks:
    @pytest.mark.parametrize("bad", [2.5, math.nan, "5", -3.0, True])
    def test_grid_size_is_named(self, bad):
        fam = dephasing_family(0.2)
        with pytest.raises(ValueError, match="grid_size must be a positive integer"):
            sample_boundary(fam, bad)
        with pytest.raises(ValueError, match="grid_size must be a positive integer"):
            membership(fam, OTP, grid_size=bad)

    @pytest.mark.parametrize("build, bad, message", [
        (dephasing_family, 2.0, "dephasing probability 2.0 outside"),
        (dephasing_family, math.nan, "dephasing probability nan outside"),
        (erasure_family, -1, "erasure probability -1 outside"),
        (erasure_family, math.inf, "erasure probability inf outside"),
        (cloning_family, 2.5, "cloning N must be a positive integer"),
        (cloning_family, 0, "cloning N must be a positive integer"),
    ])
    def test_channel_parameter_is_checked_at_construction(self, build, bad, message):
        with pytest.raises(ValueError, match=message):
            build(bad)

    @pytest.mark.parametrize("fam, name", [(dephasing_family(0.2), "nu"),
                                           (erasure_family(0.25), "p"),
                                           (cloning_family(3), "mu_clone")])
    def test_grid_outside_the_domain_is_named(self, fam, name):
        for grid, bad in (([0.1, 0.7], 0.7), ([-0.5, 0.2], -0.5), ([0.1, math.nan], math.nan)):
            with pytest.raises(ValueError, match=f"boundary parameter {name} = {bad} outside"):
                fam.fn(np.array(grid))


class TestAdditivityGap:
    def test_erasure_quick(self):
        cfg = SearchConfig(seed=11, restarts=4, iters=120)
        gap = additivity_gap(make_erasure(0.25), TradeoffWeights(1.0, 0.0), cfg)
        assert -1e-12 <= gap <= 1e-3

    def test_dephasing_quick(self):
        cfg = SearchConfig(seed=11, restarts=4, iters=120)
        gap = additivity_gap(make_dephasing(1.0), TradeoffWeights(0.0, 1.0), cfg)
        assert -1e-12 <= gap <= 1e-3
