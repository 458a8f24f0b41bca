import numpy as np
import pytest

from privcap import dag, tensor_product
from conftest import random_density
from oracles import hermitian_eigenvalues, partial_trace

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return np.outer(v, v.conj())


class TestTensorProduct:
    def test_identity(self):
        assert np.array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_diag_projectors(self):
        got = tensor_product(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.array_equal(got, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_index_formula(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        t = tensor_product(a, b)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert t[2 * i + k, 2 * j + l] == pytest.approx(a[i, j] * b[k, l])


class TestPartialTrace:
    def test_bell_reduction(self):
        reduced = partial_trace(bell_state(), [2, 2], keep={0})
        assert np.abs(reduced - np.eye(2) / 2).max() < 1e-12

    def test_product_state(self, rng):
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        got = partial_trace(tensor_product(rho_a, rho_b), [2, 3], keep={0})
        assert np.abs(got - rho_a).max() < 1e-12

    def test_double_sum_oracle(self, rng):
        # trace out subsystems 0 and 2 of a random three-qubit state,
        # against an explicit index-summation
        rho = random_density(rng, 8)
        got = partial_trace(rho, [2, 2, 2], keep={1})
        expect = np.zeros((2, 2), dtype=complex)
        for j in range(2):
            for jp in range(2):
                for i in range(2):
                    for k in range(2):
                        expect[j, jp] += rho[4 * i + 2 * j + k, 4 * i + 2 * jp + k]
        assert np.abs(got - expect).max() < 1e-12

    def test_trace_all_is_scalar_trace(self, rng):
        rho = random_density(rng, 8)
        got = partial_trace(rho, [2, 2, 2], keep=set())
        assert got.shape == (1, 1)
        assert got[0, 0] == pytest.approx(np.trace(rho), abs=1e-12)

    def test_tensor_then_trace_recovers_factor(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = random_density(rng, 3)
        big = tensor_product(a, b)
        assert np.abs(partial_trace(big, [2, 3], keep={0}) - a * np.trace(b)).max() < 1e-12
        assert np.abs(partial_trace(big, [2, 3], keep={1}) - b * np.trace(a)).max() < 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), [2, 3], keep={0})


def charpoly_coefficients(a):
    """Monic characteristic polynomial coefficients via the
    Faddeev-LeVerrier trace recursion (no eigensolver involved)."""
    n = a.shape[0]
    coeffs = [1.0]
    m = np.array(a, dtype=complex)
    c = -np.trace(m)
    coeffs.append(c)
    for k in range(2, n + 1):
        m = a @ (m + c * np.eye(n))
        c = -np.trace(m) / k
        coeffs.append(c)
    return np.array(coeffs)


class TestHermitianEigenvalues:
    def test_diagonal(self):
        assert np.allclose(hermitian_eigenvalues(np.diag([0.9, 0.1])), [0.1, 0.9])

    def test_pauli_x(self):
        assert np.allclose(hermitian_eigenvalues(PAULI_X), [-1.0, 1.0])

    def test_characteristic_polynomial_oracle(self, rng):
        for _ in range(10):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = (m + dag(m)) / 2
            eigs = hermitian_eigenvalues(h)
            assert np.sum(eigs) == pytest.approx(np.trace(h).real, abs=1e-9)
            for lam in eigs:
                scale = max(1.0, np.abs(h).max()) ** 4
                assert abs(np.linalg.det(h - lam * np.eye(4))) < 1e-8 * scale
            roots = np.sort(np.roots(charpoly_coefficients(h)).real)
            assert np.abs(roots - eigs).max() < 1e-8

    def test_unitary_conjugation_of_diagonal(self, rng):
        # unitary built from composed complex Givens rotations
        d = np.diag([0.05, 0.2, 0.3, 0.45])
        u = np.eye(4, dtype=complex)
        for i, j in ((0, 1), (1, 2), (2, 3), (0, 3), (1, 3)):
            theta = rng.uniform(0, 2 * np.pi)
            phi = rng.uniform(0, 2 * np.pi)
            g = np.eye(4, dtype=complex)
            g[i, i] = np.cos(theta)
            g[j, j] = np.cos(theta)
            g[i, j] = -np.exp(1j * phi) * np.sin(theta)
            g[j, i] = np.exp(-1j * phi) * np.sin(theta)
            u = g @ u
        eigs = hermitian_eigenvalues(u @ d @ dag(u))
        assert np.abs(eigs - np.diag(d)).max() < 1e-8

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

