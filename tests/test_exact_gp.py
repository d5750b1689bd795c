"""Exact GP predictive: closed forms, cache correctness, cross-checks."""

import numpy as np
import pytest

from rffseg.blr import ClassModel
from rffseg.exact_gp import GpClassData, rbf_kernel
from rffseg.features import sample_feature_bank
from rffseg.hsmm import gaussian_log_table

from helpers import direct_log_table, gaussian_logpdf

BETA = 10.0


def test_rbf_kernel_values():
    assert rbf_kernel(3.0, 3.0) == 1.0
    assert rbf_kernel(0.0, 1.0) == pytest.approx(np.exp(-0.5), rel=1e-15)
    assert rbf_kernel(0.0, 2.0, lengthscale=2.0) == pytest.approx(
        np.exp(-0.5), rel=1e-15)
    mat = rbf_kernel(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
    assert mat.shape == (2, 3)
    assert mat[0, 0] == 1.0


def test_empty_data_gives_prior():
    gp = GpClassData(3, beta=BETA)
    mean, var = gp.gp_predictive(4.0)
    np.testing.assert_array_equal(mean, np.zeros(3))
    assert var == pytest.approx(1.0 + 1.0 / BETA, rel=1e-15)


def test_single_observation_shrinks_toward_zero():
    # scalar predictive by hand: mean = k K^-1 x = 1 / (1 + 1/beta)
    gp = GpClassData(1, beta=BETA)
    gp.set_points([1.0], [[1.0]])
    mean, var = gp.gp_predictive(1.0)
    assert mean[0] == pytest.approx(1.0 / (1.0 + 1.0 / BETA), rel=1e-12)
    assert 0.0 < mean[0] < 1.0
    assert var > 0.0


def test_predictive_matches_dense_solve():
    # both queries against solves on the pooled Gram plus I/beta
    rng = np.random.default_rng(4)
    taus_q = np.arange(1.0, 31.0)
    for n in (5, 60, 500):
        gp = GpClassData(2, beta=BETA)
        taus = rng.integers(1, 31, size=n).astype(float)
        values = rng.normal(0, 1, size=(n, 2))
        gp.set_points(taus, values)
        gram = rbf_kernel(taus, taus) + np.eye(n) / BETA
        kq = rbf_kernel(taus, taus_q)
        want_mean = kq.T @ np.linalg.solve(gram, values)
        want_var = 1.0 + 1.0 / BETA - np.sum(kq * np.linalg.solve(gram, kq), axis=0)
        for tau in (1, 13, 30):
            mean, var = gp.gp_predictive(float(tau))
            np.testing.assert_allclose(mean, want_mean[tau - 1], rtol=1e-8, atol=1e-10)
            assert var == pytest.approx(want_var[tau - 1], rel=1e-8)
        seq = rng.normal(0, 1, size=(2, 40))
        np.testing.assert_allclose(gp.log_emission_table(seq, kmax=30),
                                   direct_log_table(want_mean, want_var, seq),
                                   rtol=1e-8)


def test_empty_class_predictive_is_exactly_the_prior():
    gp = GpClassData(2, beta=BETA)
    mean, var = gp.gp_predictive(4.0)
    np.testing.assert_array_equal(mean, np.zeros(2))
    assert var == 1.0 + 1.0 / BETA
    seq = np.array([[0.3, -1.2], [-0.7, 0.4]])
    table = gp.log_emission_table(seq, kmax=5)
    prior = np.full(5, 1.0 + 1.0 / BETA)
    np.testing.assert_array_equal(
        table, gaussian_log_table(np.zeros((5, 2)), prior, seq))


def test_variance_stays_positive_with_duplicate_times():
    gp = GpClassData(1, beta=BETA)
    taus = np.array([3.0] * 50 + [4.0] * 50)
    rng = np.random.default_rng(5)
    gp.set_points(taus, rng.normal(0, 1, size=(100, 1)))
    for tau in (1.0, 3.0, 4.0, 10.0):
        _, var = gp.gp_predictive(tau)
        assert var > 0.0


def test_logpdf_reduces_to_prior_when_empty():
    gp = GpClassData(2, beta=BETA)
    x = np.array([0.3, -0.7])
    var = 1.0 + 1.0 / BETA
    expected = np.sum(-0.5 * (np.log(2.0 * np.pi) + np.log(var) + x * x / var))
    table = gp.log_emission_table(x[:, None], kmax=5)
    assert table[4, 0] == pytest.approx(expected, rel=1e-12)


def test_logpdf_peaks_at_predictive_mean():
    rng = np.random.default_rng(8)
    gp = GpClassData(2, beta=BETA)
    gp.set_points(np.arange(1, 21, dtype=float), rng.normal(0, 1, size=(20, 2)))
    mean, _ = gp.gp_predictive(7.0)
    frames = np.column_stack(
        [mean] + [mean + rng.normal(0, 0.3, 2) for _ in range(20)])
    at_tau = gp.log_emission_table(frames, kmax=7)[6]
    assert np.all(at_tau[1:] <= at_tau[0])


def test_matches_rff_regression_through_feature_kernel():
    # Woodbury identity: same kernel => identical predictive density
    rng = np.random.default_rng(13)
    bank = sample_feature_bank(20, 1.0, seed=55)
    model = ClassModel(0, 1, 20, beta=BETA, psi=1.0)
    seg = rng.normal(0, 1, size=(1, 25))
    model.add_segment(bank, seg)
    gp = GpClassData(1, beta=BETA, kernel=lambda a, b: bank.phi(a) @ bank.phi(b).T)
    gp.set_points(np.arange(1, 26, dtype=float), seg.T)
    for tau in (1, 9, 25):
        x = rng.normal(0, 1, 1)
        a = gaussian_logpdf(x, *model.predictive(bank, float(tau)))
        b = gaussian_logpdf(x, *gp.gp_predictive(float(tau)))
        assert abs(a - b) / abs(b) < 1e-6


def test_sine_curve_agrees_with_large_feature_bank():
    # 50 points from a sine: exact RBF GP vs M=2000 feature regression
    taus = np.arange(1, 26, dtype=float)
    curve = np.sin(2.0 * np.pi * taus / 12.0)
    gp = GpClassData(1, beta=BETA)
    gp.set_points(np.concatenate([taus, taus]),
                  np.concatenate([curve, curve])[:, None])
    bank = sample_feature_bank(2000, 1.0, seed=31)
    model = ClassModel(0, 1, 2000, beta=BETA, psi=1.0)
    seg = curve[None, :]
    model.add_segment(bank, seg)
    model.add_segment(bank, seg)
    for tau in range(1, 26):
        exact_mean = gp.gp_predictive(float(tau))[0][0]
        rff_mean = model.predictive(bank, float(tau))[0][0]
        assert abs(exact_mean - rff_mean) < 0.05


def test_emission_table_matches_scalar_calls():
    rng = np.random.default_rng(14)
    gp = GpClassData(2, beta=BETA)
    gp.set_points(np.arange(1, 16, dtype=float), rng.normal(0, 1, (15, 2)))
    seq = rng.normal(0, 1, size=(2, 7))
    table = gp.log_emission_table(seq, kmax=5)
    assert table.shape == (5, 7)
    for j in (0, 2, 4):
        for t in (0, 3, 6):
            ref = gaussian_logpdf(seq[:, t], *gp.gp_predictive(float(j + 1)))
            assert table[j, t] == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_emission_table_matches_residual_form(offset):
    # offset 1e4 with 0.1 residuals: un-normalized data far from zero
    rng = np.random.default_rng(16)
    gp = GpClassData(3, beta=BETA)
    gp.set_points(np.tile(np.arange(1.0, 21.0), 3),
                  offset + 0.1 * rng.normal(size=(60, 3)))
    seq = offset + 0.1 * rng.normal(size=(3, 50))
    predictive = [gp.gp_predictive(tau) for tau in range(1, 26)]
    means = np.array([m for m, _ in predictive])
    variances = np.array([v for _, v in predictive])
    table = gp.log_emission_table(seq, kmax=25)
    np.testing.assert_allclose(table, direct_log_table(means, variances, seq),
                               rtol=1e-10, atol=0)


def test_predictive_cost_grows_with_pool_superlinearly():
    # refresh cost is the N^3 solve: observable growth with pooled points
    import time

    rng = np.random.default_rng(15)

    def refresh_seconds(n, repeats=3):
        best = np.inf
        for _ in range(repeats):
            gp = GpClassData(1, beta=BETA)
            gp.set_points(rng.integers(1, 31, size=n).astype(float),
                          rng.normal(0, 1, size=(n, 1)))
            t0 = time.perf_counter()
            gp.refresh()
            best = min(best, time.perf_counter() - t0)
        return best

    small, large = refresh_seconds(150), refresh_seconds(1200)
    # 8x the points must cost well over 8x the time
    assert large > 8.0 * small
