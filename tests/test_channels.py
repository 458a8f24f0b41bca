import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privcap import (
    KrausChannel,
    TradeoffWeights,
    antidegradable_value,
    channel_document,
    dag,
    is_antidegradable_label,
    load_channel,
    make_cloning,
    make_dephasing,
    make_erasure,
    make_identity,
    tensor_channels,
    tensor_product,
)
from privcap.channels import branch_outputs
from privcap.regions import dephasing_gamma
from privcap.entropy import binary_entropy
from conftest import random_density, random_pure_density, random_unitary
from oracles import evolve, isometric_extension, partial_trace, von_neumann_entropy

PLUS = np.full((2, 2), 0.5, dtype=complex)


def completeness_deficit(ch):
    s = sum(dag(a) @ a for a in ch.kraus)
    return np.abs(s - np.eye(ch.dim_in)).max()


class TestDephasing:
    def test_p0_is_identity(self, rng):
        ch = make_dephasing(0.0)
        rho = random_density(rng, 2)
        assert np.abs(ch.apply(rho) - rho).max() < 1e-12

    def test_completely_dephasing_kills_coherence(self):
        out = make_dephasing(1.0).apply(PLUS)
        assert np.abs(out - np.eye(2) / 2).max() < 1e-12

    def test_convex_form(self):
        out = make_dephasing(0.2).apply(PLUS)
        assert out[0, 1] == pytest.approx(0.4, abs=1e-12)
        assert out[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_matches_stated_convex_combination(self, rng):
        # (1-p) rho + p Delta(rho) on a full operator basis
        p = 0.37
        ch = make_dephasing(p)
        for basis in (np.eye(2), np.diag([1.0, -1.0]), np.array([[0, 1], [1, 0]]),
                      np.array([[0, -1j], [1j, 0]])):
            expect = (1 - p) * basis + p * np.diag(np.diag(basis))
            assert np.abs(ch.apply(basis.astype(complex)) - expect).max() < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            make_dephasing(1.5)


class TestErasure:
    def test_eps0_embeds(self, rng):
        rho = random_density(rng, 2)
        out = make_erasure(0.0).apply(rho)
        assert np.abs(out[:2, :2] - rho).max() < 1e-12
        assert abs(out[2, 2]) < 1e-12

    def test_eps1_always_flag(self, rng):
        out = make_erasure(1.0).apply(random_density(rng, 2))
        assert np.abs(out - np.diag([0.0, 0.0, 1.0])).max() < 1e-12

    def test_quarter_on_mixed(self):
        out = make_erasure(0.25).apply(np.eye(2, dtype=complex) / 2)
        assert np.allclose(np.diag(out), [0.375, 0.375, 0.25], atol=1e-12)

    def test_flag_decomposition(self, rng):
        # conditioning on the erasure flag recovers (1-eps) H(rho)
        eps = 0.3
        rho = random_density(rng, 2)
        out = make_erasure(eps).apply(rho)
        keep = out[:2, :2] / (1 - eps)
        h_cond = (1 - eps) * von_neumann_entropy(keep)
        assert h_cond == pytest.approx((1 - eps) * von_neumann_entropy(rho), abs=1e-9)


class TestCloning:
    def test_n1_is_identity(self):
        ch = make_cloning(1)
        assert ch.num_kraus == 1
        assert np.abs(ch.kraus[0] - np.eye(2)).max() < 1e-12

    def test_n2_completeness(self):
        assert completeness_deficit(make_cloning(2)) < 1e-12

    def test_n10_support(self):
        out = make_cloning(10).apply(np.eye(2, dtype=complex) / 2)
        assert out.shape == (11, 11)
        assert (np.diag(out).real > 1e-9).all()

    def test_covariance_spectrum_only(self, rng):
        # output entropy depends only on the input spectrum
        ch = make_cloning(3)
        for _ in range(5):
            rho = random_density(rng, 2)
            u = random_unitary(rng, 2)
            h1 = von_neumann_entropy(ch.apply(rho))
            h2 = von_neumann_entropy(ch.apply(u @ rho @ dag(u)))
            assert h1 == pytest.approx(h2, abs=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            make_cloning(0)


class TestIsometricExtension:
    def test_identity_channel(self):
        v = isometric_extension(make_identity(2))
        assert v.shape == (2, 2)
        assert np.abs(v - np.eye(2)).max() < 1e-12

    def test_is_isometry(self):
        for ch in (make_dephasing(0.2), make_erasure(0.25), make_cloning(2)):
            v = isometric_extension(ch)
            assert np.abs(dag(v) @ v - np.eye(ch.dim_in)).max() <= 1e-9

    def test_traces_back_to_channel(self, rng):
        for ch in (make_dephasing(0.2), make_erasure(0.25), make_cloning(2)):
            v = isometric_extension(ch)
            rho = random_density(rng, 2)
            joint = v @ rho @ dag(v)
            back = partial_trace(joint, [ch.dim_out, ch.num_kraus], keep={0})
            assert np.abs(back - ch.apply(rho)).max() < 1e-10

    def test_erasure_complementary_is_swapped_erasure(self, rng):
        eps = 0.25
        ch = make_erasure(eps)
        swapped = make_erasure(1 - eps)
        rho = random_density(rng, 2)
        v = isometric_extension(ch)
        joint = v @ rho @ dag(v)
        env = partial_trace(joint, [3, 3], keep={1})
        assert np.abs(env - swapped.apply(rho)).max() < 1e-10


def random_kraus_channel(rng, dim_in, dim_out, num_kraus):
    """Kraus operators A_k[i, j] = V[i K + k, j] of a random isometry V."""
    m = rng.standard_normal((dim_out * num_kraus, dim_in)) + 1j * rng.standard_normal(
        (dim_out * num_kraus, dim_in))
    v = np.linalg.qr(m)[0].reshape(dim_out, num_kraus, dim_in)
    return KrausChannel(dim_in, dim_out, tuple(v[:, k] for k in range(num_kraus)))


ORACLE_CHANNELS = (make_dephasing(0.2), make_erasure(0.25), make_cloning(10),
                   tensor_channels(make_erasure(0.25), make_erasure(0.25)))
# (dim_in, dim_out, number of Kraus operators) of random channels
RANDOM_SHAPES = ((2, 2, 3), (2, 3, 2), (3, 2, 3))


class TestEvolve:
    def test_identity(self, rng):
        rho = random_density(rng, 2)
        rho_b, rho_e = evolve(make_identity(2), rho)
        assert np.abs(rho_b - rho).max() < 1e-12
        assert von_neumann_entropy(rho_e) == pytest.approx(0.0, abs=1e-12)

    def test_pure_input_purity(self, rng):
        for ch in (make_dephasing(0.3), make_erasure(0.4), make_cloning(3)):
            psi = random_pure_density(rng, 2)
            rho_b, rho_e = evolve(ch, psi)
            assert von_neumann_entropy(rho_b) == pytest.approx(
                von_neumann_entropy(rho_e), abs=1e-9
            )

    def test_dephasing_output_entropy_closed_form(self):
        rho_b, _ = evolve(make_dephasing(0.2), PLUS)
        expect = binary_entropy(dephasing_gamma(0.5, 0.2))
        assert von_neumann_entropy(rho_b) == pytest.approx(expect, abs=1e-12)

    def test_trace_preservation(self, rng):
        for ch in (make_dephasing(0.7), make_erasure(0.6), make_cloning(2)):
            rho_b, rho_e = evolve(ch, random_density(rng, 2))
            assert np.trace(rho_b).real == pytest.approx(1.0, abs=1e-9)
            assert np.trace(rho_e).real == pytest.approx(1.0, abs=1e-9)

    def test_cloning_spectra_match_boundary_form(self):
        # diag(mu, 1-mu) input: output/environment spectra are the
        # boundary weights {lam_i / D_N} and {eta_i / D_N}
        from privcap import cloning_spectra

        n, mu = 3, 0.3
        rho_b, rho_e = evolve(make_cloning(n), np.diag([mu, 1 - mu]).astype(complex))
        lam, eta = cloning_spectra(n, mu)
        assert np.allclose(np.sort(np.diag(rho_b).real), np.sort(lam), atol=1e-12)
        assert np.allclose(np.sort(np.diag(rho_e).real), np.sort(eta), atol=1e-12)

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_branch_outputs_match_isometry(self, data):
        # the Kraus action every search uses, against the dense V rho V† oracle
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        ch = data.draw(st.sampled_from(ORACLE_CHANNELS + RANDOM_SHAPES), label="channel")
        if not isinstance(ch, KrausChannel):
            ch = random_kraus_channel(rng, *ch)
        count = data.draw(st.integers(1, 6), label="inputs")
        rhos = np.array([random_density(rng, ch.dim_in) for _ in range(count)])
        rho_b, rho_e = branch_outputs(ch.kraus_stack, rhos)
        for n, rho in enumerate(rhos):
            want_b, want_e = evolve(ch, rho)
            assert np.abs(rho_b[n] - want_b).max() < 1e-12
            assert np.abs(rho_e[n] - want_e).max() < 1e-12
            assert np.abs(ch.apply(rho) - want_b).max() < 1e-12


class TestTensorChannels:
    def test_identity_pair(self, rng):
        ch = tensor_channels(make_identity(2), make_identity(2))
        rho = random_density(rng, 4)
        assert np.abs(ch.apply(rho) - rho).max() < 1e-12

    def test_erasure_pair_completeness(self):
        pair = tensor_channels(make_erasure(0.25), make_erasure(0.25))
        assert pair.dim_out == 9
        assert completeness_deficit(pair) < 1e-12

    def test_product_factorization(self, rng):
        a = make_dephasing(0.2)
        pair = tensor_channels(a, make_identity(2))
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 2)
        got = pair.apply(tensor_product(rho_a, rho_b))
        assert np.abs(got - tensor_product(a.apply(rho_a), rho_b)).max() < 1e-11


class TestChannelDocuments:
    def test_identity_round_trip(self):
        doc = channel_document(make_identity(2))
        ch = load_channel(doc)
        assert ch.dim_in == ch.dim_out == 2
        assert np.abs(ch.kraus[0] - np.eye(2)).max() < 1e-12

    def test_rejects_completeness_deficit(self):
        doc = {
            "dim_in": 2,
            "dim_out": 2,
            "kraus": [[[[np.sqrt(0.9), 0.0], [0.0, 0.0]], [[0.0, 0.0], [np.sqrt(0.9), 0.0]]]],
        }
        with pytest.raises(ValueError, match="completeness"):
            load_channel(doc)

    def test_dephasing_document_action(self, rng):
        doc = channel_document(make_dephasing(0.2))
        ch = load_channel(doc)
        ref = make_dephasing(0.2)
        for basis in (np.eye(2), np.diag([1.0, -1.0]), np.array([[0, 1], [1, 0]]),
                      np.array([[0, -1j], [1j, 0]])):
            assert np.abs(ch.apply(basis.astype(complex)) - ref.apply(basis.astype(complex))).max() < 1e-12

    def test_rejects_non_finite_entry(self):
        doc = channel_document(make_dephasing(0.2))
        doc["kraus"][0][0][0] = [float("nan"), 0.0]
        with pytest.raises(ValueError, match="Kraus operator 0 has a non-finite entry"):
            load_channel(doc)
        doc = channel_document(make_dephasing(0.2))
        doc["kraus"][1][1][1] = [0.0, float("inf")]
        with pytest.raises(ValueError, match="Kraus operator 1"):
            load_channel(doc)

    def test_parse_error(self):
        with pytest.raises(ValueError, match="missing"):
            load_channel({"dim_in": 2})

    def test_rejects_malformed_fields(self):
        # dimensions are positive JSON integers, params a list of finite reals;
        # nothing is truncated or coerced
        base = channel_document(make_identity(2))
        for name, value in (("dim_in", None), ("dim_in", 2.9), ("dim_in", 2.0), ("dim_in", "2"),
                            ("dim_out", True), ("dim_out", 0), ("dim_out", -2)):
            with pytest.raises(ValueError, match=f"'{name}' must be a positive integer"):
                load_channel(dict(base, **{name: value}))
        for params in (5, None, "0.2", ["nan"], [float("nan")], [float("-inf")], [10**400], [True],
                       [[0.2]]):
            with pytest.raises(ValueError, match="'params' must be a list of finite reals"):
                load_channel(dict(base, params=params))
        assert load_channel(dict(base, params=[1, 0.5])).params == (1.0, 0.5)

    def test_rejects_non_finite_params(self):
        for bad in (float("nan"), float("inf"), "-inf"):
            with pytest.raises(ValueError, match="params must be finite"):
                KrausChannel(2, 2, (np.eye(2),), params=(0.5, bad))


class TestLabels:
    def test_antidegradable(self):
        assert is_antidegradable_label(make_erasure(0.6))
        assert is_antidegradable_label(make_dephasing(1.0))
        assert not is_antidegradable_label(make_dephasing(0.2))

    def test_loaded_labels_are_checked_against_the_operators(self):
        # the label and params of a document do not make the identity antidegradable
        assert is_antidegradable_label(load_channel(channel_document(make_erasure(0.6))))
        doc = channel_document(make_identity(2))
        for label, params in (("dephasing", []), ("erasure", [0.9]), ("dephasing", [1.0])):
            ch = load_channel(dict(doc, label=label, params=params))
            assert not is_antidegradable_label(ch)
            with pytest.warns(UserWarning, match="antidegradable"):
                antidegradable_value(ch, TradeoffWeights(0.0, 0.0), 1.0)

    def test_kraus_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            KrausChannel(2, 2, (np.eye(3),))
