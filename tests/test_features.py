"""Feature bank sampling, the cosine map, and kernel approximation."""

import numpy as np
import pytest

from rffseg.features import FeatureBank, sample_feature_bank


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sample_feature_bank(0, 1.0, seed=1)
    with pytest.raises(ValueError):
        sample_feature_bank(10, 0.0, seed=1)
    with pytest.raises(ValueError):
        sample_feature_bank(10, -2.0, seed=1)


def test_same_seed_reproduces_bank_bit_exactly():
    a = sample_feature_bank(20, 1.0, seed=1234)
    b = sample_feature_bank(20, 1.0, seed=1234)
    assert np.array_equal(a.omegas, b.omegas)
    assert np.array_equal(a.phases, b.phases)
    c = sample_feature_bank(20, 1.0, seed=1235)
    assert not np.array_equal(a.omegas, c.omegas)


def test_phases_lie_in_zero_two_pi():
    bank = sample_feature_bank(5000, 0.7, seed=3)
    assert np.all(bank.phases >= 0.0)
    assert np.all(bank.phases < 2.0 * np.pi)


def test_single_feature_bank_boundary():
    bank = sample_feature_bank(1, 1.0, seed=99)
    assert bank.omegas.shape == (1,)
    assert 0.0 <= bank.phases[0] < 2.0 * np.pi


def test_spectral_moments_match_lengthscale():
    # law of large numbers: omega ~ Normal(0, 1/l^2)
    bank = sample_feature_bank(100_000, 1.0, seed=7)
    assert abs(bank.omegas.mean()) < 0.02
    assert abs(bank.omegas.var() - 1.0) < 0.02
    half = sample_feature_bank(100_000, 2.0, seed=7)
    assert abs(half.omegas.var() - 0.25) < 0.01


def test_phi_closed_forms():
    flat = FeatureBank(n_features=1, lengthscale=1.0, seed=0,
                       omegas=np.array([0.0]), phases=np.array([0.0]))
    assert np.allclose(flat.phi(-3.0), np.sqrt(2.0))
    assert np.allclose(flat.phi(17.5), np.sqrt(2.0))
    pair = FeatureBank(n_features=2, lengthscale=1.0, seed=0,
                       omegas=np.array([0.0, 0.0]),
                       phases=np.array([0.0, np.pi]))
    for t in (0.0, 1.0, -4.2):
        np.testing.assert_allclose(pair.phi(t), [1.0, -1.0], atol=1e-15)


def test_phi_vectorized_matches_scalar():
    bank = sample_feature_bank(16, 1.5, seed=5)
    ts = np.array([1.0, 2.0, 9.5])
    batched = bank.phi(ts)
    assert batched.shape == (3, 16)
    for i, t in enumerate(ts):
        assert np.array_equal(batched[i], bank.phi(t))


def test_phi_norm_bounded_by_two():
    rng = np.random.default_rng(0)
    for seed in range(5):
        bank = sample_feature_bank(int(rng.integers(1, 200)), 1.0, seed=seed)
        for t in rng.normal(0, 20, size=20):
            assert float(bank.phi(t) @ bank.phi(t)) <= 2.0 + 1e-12


def test_kernel_symmetry_is_exact():
    bank = sample_feature_bank(64, 1.0, seed=11)
    rng = np.random.default_rng(1)
    for a, b in rng.normal(0, 10, size=(25, 2)):
        assert bank.phi(a) @ bank.phi(b) == bank.phi(b) @ bank.phi(a)


def test_zero_frequency_bank_is_constant_in_inputs():
    bank = FeatureBank(n_features=3, lengthscale=1.0, seed=0,
                       omegas=np.zeros(3),
                       phases=np.array([0.1, 2.0, 4.0]))
    ref = bank.phi(0.0) @ bank.phi(0.0)
    for a, b in [(1.0, 5.0), (-3.0, 2.0), (100.0, -7.0)]:
        assert bank.phi(a) @ bank.phi(b) == pytest.approx(ref, abs=1e-12)


def test_kernel_approaches_rbf_with_many_features():
    # |k_hat(0, 1) - exp(-1/2)| small at M = 2000 for a fixed seed
    bank = sample_feature_bank(2000, 1.0, seed=21)
    exact = np.exp(-0.5)
    assert abs(bank.phi(0.0) @ bank.phi(1.0) - exact) < 0.05
    assert bank.phi(3.0) @ bank.phi(3.0) == pytest.approx(1.0, abs=0.05)


def _mean_max_error(n_features, seeds, t_p, t_q, exact):
    errs = []
    for seed in seeds:
        bank = sample_feature_bank(n_features, 1.0, seed=seed)
        phi_p = bank.phi(t_p)
        phi_q = bank.phi(t_q)
        approx = np.sum(phi_p * phi_q, axis=1)
        errs.append(np.max(np.abs(approx - exact)))
    return float(np.mean(errs))


def test_kernel_error_decreases_with_feature_count():
    # 100 pairs with |t_p - t_q| <= 5, averaged over 20 seeds
    t_p = np.linspace(0.0, 30.0, 100)
    t_q = t_p + np.linspace(-5.0, 5.0, 100)
    exact = np.exp(-0.5 * (t_p - t_q) ** 2)
    seeds = range(100, 120)
    errs = {m: _mean_max_error(m, seeds, t_p, t_q, exact)
            for m in (10, 100, 1000)}
    assert errs[10] > errs[100] > errs[1000]


def test_gram_matrix_is_positive_semidefinite():
    rng = np.random.default_rng(8)
    for seed in range(4):
        bank = sample_feature_bank(int(rng.integers(2, 60)), 1.0, seed=seed)
        ts = rng.normal(0, 15, size=40)
        phi = bank.phi(ts)
        gram = phi @ phi.T
        assert np.linalg.eigvalsh(gram).min() >= -1e-8


def test_serialization_roundtrip_is_bit_exact():
    import json

    bank = sample_feature_bank(20, 0.8, seed=4242)
    restored = FeatureBank.from_dict(json.loads(json.dumps(bank.to_dict())))
    assert restored.n_features == bank.n_features
    assert restored.lengthscale == bank.lengthscale
    assert restored.seed == bank.seed
    assert np.array_equal(restored.omegas, bank.omegas)
    assert np.array_equal(restored.phases, bank.phases)


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
def test_serialized_seed_may_be_any_uint64(seed):
    # a trained bank's seed is drawn as a uint64
    import json

    bank = sample_feature_bank(3, 1.0, seed=seed)
    assert FeatureBank.from_dict(json.loads(json.dumps(bank.to_dict()))).seed == seed


@pytest.mark.parametrize("field, value, message", [
    ("seed", -1, "bank.seed must hold integers within uint64, got -1"),
    ("seed", 2**64, "bank.seed must hold integers within uint64"),
    ("n_features", [3], r"bank.n_features must have shape \(\), got \(1,\)"),
])
def test_malformed_serialized_bank_is_refused(field, value, message):
    d = sample_feature_bank(3, 1.0, seed=5).to_dict()
    d[field] = value
    with pytest.raises(ValueError, match=message):
        FeatureBank.from_dict(d)


def test_position_features_match_direct_products():
    bank = sample_feature_bank(20, 1.0, seed=21)
    kmax = 30
    bank.position_features(7)  # the cache then grows by appended rows
    early = bank.position_features(7).copy()
    phi = bank.phi(np.arange(1, kmax + 1, dtype=np.float64))
    np.testing.assert_array_equal(bank.position_features(kmax), phi)
    np.testing.assert_array_equal(bank.position_features(7), early)
    with pytest.raises(ValueError):
        bank.position_features(5)[0, 0] = 1.0
