import numpy as np
import pytest

from privcap import (
    CqEnsemble,
    binary_entropy,
    entropy_from_eigenvalues,
    evaluate_ensemble,
    make_identity,
    tensor_product,
)
from privcap.entropy import WEIGHT_FLOOR
from conftest import random_density, random_pure_density, random_unitary
from oracles import partial_trace, von_neumann_entropy


def max_correlated(d):
    rho = np.zeros((d * d, d * d), dtype=complex)
    for m in range(d):
        rho[m * d + m, m * d + m] = 1.0 / d
    return rho


def bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return np.outer(v, v.conj())


class TestBinaryEntropy:
    def test_uniform(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_deterministic(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_direct_value(self):
        assert binary_entropy(0.1) == pytest.approx(0.46900, abs=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(1.01)

    def test_array_is_elementwise(self):
        # a grid gives, at each entry, bitwise the float call's value
        p = np.concatenate([np.linspace(0.0, 1.0, 257), [-1e-13, 1.0 + 1e-13]]).reshape(7, 37)
        h = binary_entropy(p)
        assert h.shape == p.shape
        assert [repr(x) for x in h.ravel().tolist()] == \
            [repr(binary_entropy(x)) for x in p.ravel().tolist()]

    @pytest.mark.parametrize("bad", [1.01, -0.2, np.nan])
    def test_array_domain_names_the_value(self, bad):
        with pytest.raises(ValueError, match=f"binary_entropy argument {bad} outside"):
            binary_entropy(np.array([0.3, bad, 0.5]))


class TestShannonEntropy:
    """entropy_from_eigenvalues, the kernel every evaluation takes its entropies from."""

    def test_uniform_four(self):
        assert entropy_from_eigenvalues([0.25] * 4) == pytest.approx(2.0, abs=1e-12)

    def test_point_mass(self):
        assert entropy_from_eigenvalues([1.0, 0.0, 0.0]) == 0.0

    def test_thirds(self):
        assert entropy_from_eigenvalues([1 / 3] * 3) == pytest.approx(np.log2(3), abs=1e-12)

    def test_weights_at_floor_contribute_zero(self):
        for tiny in (WEIGHT_FLOOR, WEIGHT_FLOOR / 2, 0.0, -WEIGHT_FLOOR):
            assert entropy_from_eigenvalues([0.5, 0.5, tiny]) == 1.0

    def test_nan_weight_gives_nan(self):
        # a NaN weight is not below the floor: it propagates, row by row
        assert np.isnan(entropy_from_eigenvalues([np.nan, 1.0]))
        got = entropy_from_eigenvalues([[0.5, 0.5], [np.nan, 1.0]])
        assert got[0] == 1.0 and np.isnan(got[1])

    def test_rows_give_per_row_sums(self):
        rows = np.array([[0.25] * 4, [1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0]])
        got = entropy_from_eigenvalues(rows)
        assert got.shape == (3,)
        for row, h in zip(rows, got):
            assert h == entropy_from_eigenvalues(row)
        assert got == pytest.approx([2.0, 0.0, 1.0], abs=1e-12)


class TestVonNeumann:
    def test_pure_state(self, rng):
        assert von_neumann_entropy(random_pure_density(rng, 3)) == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_spectrum_oracle(self):
        assert von_neumann_entropy(np.diag([0.9, 0.1])) == pytest.approx(
            binary_entropy(0.1), abs=1e-12
        )

    def test_bounds(self, rng):
        for d in (2, 3, 4):
            h = von_neumann_entropy(random_density(rng, d))
            assert -1e-12 <= h <= np.log2(d) + 1e-12

    def test_unitary_invariance(self, rng):
        for _ in range(5):
            rho = random_density(rng, 4)
            u = random_unitary(rng, 4)
            assert von_neumann_entropy(u @ rho @ u.conj().T) == pytest.approx(
                von_neumann_entropy(rho), abs=1e-9
            )


class TestMutualInformation:
    def test_product_state(self, rng):
        rho = tensor_product(random_density(rng, 2), random_density(rng, 3))
        assert mi(rho, [2, 3], {0}, {1}) == pytest.approx(0.0, abs=1e-9)

    def test_bell_pair(self):
        assert mi(bell_state(), [2, 2], {0}, {1}) == pytest.approx(2.0, abs=1e-9)

    def test_max_correlated_qubits(self):
        assert mi(max_correlated(2), [2, 2], {0}, {1}) == pytest.approx(1.0, abs=1e-9)


def h_b_given_x(weights, states):
    """The library's H(B|X) of a noiseless channel, one branch (ny = 1) per x."""
    ens = CqEnsemble(np.array(weights, dtype=float)[:, None], np.array(states)[:, None])
    return evaluate_ensemble(make_identity(ens.dim), ens).h_b_x


class TestCqConditionalEntropy:
    def test_single_branch(self, rng):
        rho = random_density(rng, 2)
        assert h_b_given_x([1.0], [rho]) == pytest.approx(von_neumann_entropy(rho), abs=1e-12)

    def test_two_pure_branches(self, rng):
        states = [random_pure_density(rng, 2), random_pure_density(rng, 2)]
        assert h_b_given_x([0.4, 0.6], states) == pytest.approx(0.0, abs=1e-9)

    def test_weighted_sum(self):
        states = [np.diag([1.0, 0.0]).astype(complex), np.eye(2, dtype=complex) / 2]
        assert h_b_given_x([0.5, 0.5], states) == pytest.approx(0.5, abs=1e-12)


def cmi(rho, dims, a, b, c):
    """I(A;B|C) = H(AC) + H(BC) - H(C) - H(ABC) over subsystem index groups."""

    def h(keep):
        return von_neumann_entropy(partial_trace(rho, dims, keep=keep))

    return h(set(a) | set(c)) + h(set(b) | set(c)) - h(set(c)) - h(set(a) | set(b) | set(c))


def mi(rho, dims, a, b):
    def h(keep):
        return von_neumann_entropy(partial_trace(rho, dims, keep=keep))

    return h(set(a)) + h(set(b)) - h(set(a) | set(b))


class TestIdentities:
    def test_chain_rule(self, rng):
        # I(AB;C) = I(A;C) + I(B;C|A) on random tripartite states
        for _ in range(5):
            rho = random_density(rng, 8)
            dims = [2, 2, 2]
            lhs = mi(rho, dims, {0, 1}, {2})
            rhs = mi(rho, dims, {0}, {2}) + cmi(rho, dims, {1}, {2}, {0})
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_cq_conditional_mi_two_ways(self, rng):
        # I(Y;B|X) via the four-entropy expansion equals the
        # probability-weighted per-x mutual informations for cq states
        nx, ny, d = 2, 2, 2
        probs = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
        states = [[random_density(rng, d) for _ in range(ny)] for _ in range(nx)]
        dim = nx * ny * d
        sigma = np.zeros((dim, dim), dtype=complex)
        for x in range(nx):
            for y in range(ny):
                proj_x = np.zeros((nx, nx))
                proj_x[x, x] = 1.0
                proj_y = np.zeros((ny, ny))
                proj_y[y, y] = 1.0
                sigma += probs[x, y] * tensor_product(tensor_product(proj_x, proj_y), states[x][y])
        expansion = cmi(sigma, [nx, ny, d], {1}, {2}, {0})
        p_x = probs.sum(axis=1)
        weighted = 0.0
        for x in range(nx):
            dim_x = ny * d
            sig_x = np.zeros((dim_x, dim_x), dtype=complex)
            for y in range(ny):
                proj_y = np.zeros((ny, ny))
                proj_y[y, y] = 1.0
                sig_x += (probs[x, y] / p_x[x]) * tensor_product(proj_y, states[x][y])
            weighted += p_x[x] * mi(sig_x, [ny, d], {0}, {1})
        assert expansion == pytest.approx(weighted, abs=1e-9)
