"""Regression statistics bookkeeping and the posterior predictive."""

import json
import math

import numpy as np
import pytest

import rffseg.blr
from rffseg.blr import ClassModel, posterior_predictive
from rffseg.exact_gp import GpClassData
from rffseg.features import sample_feature_bank
from rffseg.trainer import RffEmissions, emissions_from_snapshot

from helpers import add_frames, direct_log_table, gaussian_logpdf

BETA = 10.0
PSI = 1.0


def make_model(n_dims=2, n_features=20, beta=BETA, psi=PSI):
    bank = sample_feature_bank(n_features, 1.0, seed=77)
    return ClassModel(0, n_dims, n_features, beta=beta, psi=psi), bank


def posterior_mean(model):
    """The ``(D, M)`` posterior mean weights: the solve at the identity's rows."""
    proj = np.array([st.proj for st in model.stats])
    means, _ = posterior_predictive(model.shared_precision()[np.newaxis],
                                    proj[np.newaxis], np.eye(model.n_features), model.beta)
    return means[0].T


def assert_bound_to_stacks(model):
    # a rebinding would split the per-dimension reads from the stacked
    # writes without any error
    for d, st in enumerate(model.stats):
        assert np.shares_memory(st.precision, model._precision[d])
        assert np.shares_memory(st.proj, model._proj[d])


def test_empty_model_statistics():
    model, _ = make_model()
    for st in model.stats:
        assert np.array_equal(st.precision, PSI * np.eye(20))
        assert np.array_equal(st.proj, np.zeros(20))
    assert model.n_points == 0


def test_zero_observation_updates_precision_only():
    model, bank = make_model(n_dims=3)
    model.add_segment(bank, np.zeros((3, 1)))
    phi1 = bank.phi(1.0)
    expected = PSI * np.eye(20) + BETA * np.outer(phi1, phi1)
    for st in model.stats:
        np.testing.assert_allclose(st.precision, expected, atol=1e-12)
        assert np.array_equal(st.proj, np.zeros(20))
    assert model.n_points == 1


def test_dimension_mismatch_rejected():
    model, bank = make_model(n_dims=2)
    with pytest.raises(ValueError):
        model.add_segment(bank, np.zeros((3, 4)))
    with pytest.raises(ValueError):
        model.remove_segment(bank, np.zeros((3, 4)))


def test_add_then_remove_restores_empty_stats():
    model, bank = make_model(n_dims=2)
    rng = np.random.default_rng(5)
    seg = rng.normal(0, 1, size=(2, 17))
    model.add_segment(bank, seg)
    model.remove_segment(bank, seg)
    for st in model.stats:
        assert np.max(np.abs(st.precision - PSI * np.eye(20))) < 1e-9
        assert np.max(np.abs(st.proj)) < 1e-9
    assert model.n_points == 0


def test_remove_counts_down():
    model, bank = make_model(n_dims=1)
    segs = [np.ones((1, 8)), np.ones((1, 12))]
    for s in segs:
        model.add_segment(bank, s)
    model.remove_segment(bank, segs[0])
    assert model.n_points == 12


def test_underflow_is_an_error():
    model, bank = make_model(n_dims=1)
    model.add_segment(bank, np.ones((1, 3)))
    with pytest.raises(ValueError, match="bookkeeping"):
        model.remove_segment(bank, np.ones((1, 5)))


def test_interleaved_add_remove_matches_batch():
    # random add/remove orderings land on the surviving set's batch stats
    rng = np.random.default_rng(42)
    model, bank = make_model(n_dims=2)
    segments = [rng.normal(0, 1, size=(2, int(rng.integers(3, 15))))
                for _ in range(12)]
    alive = []
    for i, seg in enumerate(segments):
        model.add_segment(bank, seg)
        alive.append(i)
        if rng.random() < 0.5 and alive:
            drop = alive.pop(int(rng.integers(len(alive))))
            model.remove_segment(bank, segments[drop])
    batch, _ = make_model(n_dims=2)
    for i in alive:
        batch.add_segment(bank, segments[i])
    for st_a, st_b in zip(model.stats, batch.stats):
        assert np.max(np.abs(st_a.precision - st_b.precision)) < 1e-8
        assert np.max(np.abs(st_a.proj - st_b.proj)) < 1e-8
    assert model.n_points == batch.n_points


def test_posterior_matches_dense_ridge_solve():
    # oracle: direct solve of (psi I + beta Phi^T Phi) m = beta Phi^T x
    rng = np.random.default_rng(9)
    n_features = 24
    bank = sample_feature_bank(n_features, 1.0, seed=17)
    model = ClassModel(0, 1, n_features, beta=BETA, psi=PSI)
    taus = []
    values = []
    for _ in range(10):  # 100 points in segments of 10
        seg = rng.normal(0, 1, size=(1, 10))
        model.add_segment(bank, seg)
        taus.extend(range(1, 11))
        values.extend(seg[0])
    phi = bank.phi(np.asarray(taus, dtype=float))
    lhs = PSI * np.eye(n_features) + BETA * phi.T @ phi
    rhs = BETA * phi.T @ np.asarray(values)
    oracle_mean = np.linalg.solve(lhs, rhs)
    assert np.max(np.abs(posterior_mean(model)[0] - oracle_mean)) < 1e-6


def test_cached_mean_solves_the_normal_equations():
    model, bank = make_model(n_dims=2)
    rng = np.random.default_rng(3)
    model.add_segment(bank, rng.normal(0, 1, size=(2, 20)))
    mean = posterior_mean(model)
    for d, st in enumerate(model.stats):
        resid = st.precision @ mean[d] - st.proj
        assert np.linalg.norm(resid) / np.linalg.norm(st.proj) < 1e-8


def test_prior_predictive_closed_form():
    model, bank = make_model(n_dims=3)
    for tau in (1.0, 4.0, 19.0):
        means, variances = model.predictive(bank, tau)
        phi = bank.phi(tau)
        expected_var = 1.0 / BETA + float(phi @ phi) / PSI
        np.testing.assert_allclose(means, 0.0, atol=1e-12)
        np.testing.assert_allclose(variances, expected_var, rtol=1e-12)


def test_logpdf_peaks_at_predictive_mean():
    model, bank = make_model(n_dims=2)
    rng = np.random.default_rng(6)
    model.add_segment(bank, rng.normal(0, 1, size=(2, 10)))
    means, _ = model.predictive(bank, 4.0)
    frames = np.column_stack(
        [means] + [means + rng.normal(0, 0.5, size=2) for _ in range(20)])
    at_tau = model.log_emission_table(bank, frames, kmax=4)[3]
    assert np.all(at_tau[1:] <= at_tau[0])


def test_variance_floor_and_shrinkage():
    model, bank = make_model(n_dims=1)
    rng = np.random.default_rng(11)
    _, var_before = model.predictive(bank, 5.0)
    assert var_before[0] >= 1.0 / BETA
    for _ in range(5):
        seg = rng.normal(0, 1, size=(1, 10))
        var_pre = model.predictive(bank, 5.0)[1][0]
        model.add_segment(bank, seg)
        var_post = model.predictive(bank, 5.0)[1][0]
        assert var_post >= 1.0 / BETA - 1e-12
        assert var_post <= var_pre + 1e-12  # data never inflates variance


def test_noiseless_line_is_recovered():
    # trained on x = tau, interior predictions stay within 0.05 of the line;
    # oracle: exact GP with the same feature-map kernel agrees to 1e-6
    n_features, beta = 400, 1000.0
    bank = sample_feature_bank(n_features, 1.0, seed=9)
    model = ClassModel(0, 1, n_features, beta=beta, psi=1.0)
    line = np.arange(1, 21, dtype=float)[None, :]
    model.add_segment(bank, line)
    oracle = GpClassData(1, beta=beta,
                         kernel=lambda a, b: bank.phi(a) @ bank.phi(b).T)
    oracle.set_points(np.arange(1, 21, dtype=float), line.T)
    for tau in (5, 10, 15):
        mean = model.predictive(bank, float(tau))[0][0]
        ref = oracle.gp_predictive(tau)[0][0]
        assert abs(mean - tau) < 0.05
        assert abs(mean - ref) <= 1e-6 * max(1.0, abs(ref))


def test_logpdf_decomposes_over_dimensions():
    rng = np.random.default_rng(12)
    bank = sample_feature_bank(50, 1.0, seed=3)
    joint = ClassModel(0, 3, 50, beta=BETA, psi=PSI)
    seg = rng.normal(0, 1, size=(3, 12))
    joint.add_segment(bank, seg)
    x = rng.normal(0, 1, 3)

    # same model: the table entry is the per-dimension Gaussian terms summed
    joint_logpdf = gaussian_logpdf(x, *joint.predictive(bank, 4.0))
    joint_table = joint.log_emission_table(bank, x[:, None], kmax=4)
    assert joint_table[3, 0] == pytest.approx(joint_logpdf, rel=1e-12, abs=1e-12)

    # independently built one-dimensional models agree to rounding
    parts = 0.0
    solo_tables = np.zeros((4, 1))
    for d in range(3):
        solo = ClassModel(0, 1, 50, beta=BETA, psi=PSI)
        solo.add_segment(bank, seg[d:d + 1])
        parts += gaussian_logpdf(x[d:d + 1], *solo.predictive(bank, 4.0))
        solo_tables += solo.log_emission_table(bank, x[d:d + 1, None], kmax=4)
    assert math.isclose(joint_logpdf, parts, rel_tol=1e-12, abs_tol=1e-12)
    np.testing.assert_allclose(joint_table, solo_tables, rtol=1e-12, atol=1e-12)


def test_woodbury_equivalence_with_feature_kernel():
    # predictive mean/variance match the exact GP run on the feature Gram
    rng = np.random.default_rng(1)
    for trial in range(10):
        bank = sample_feature_bank(20, 1.0, seed=300 + trial)
        n = int(rng.integers(1, 61))
        taus = rng.integers(1, 31, size=n).astype(float)
        values = rng.normal(0, 1, size=(n, 2))
        model = ClassModel(0, 2, 20, beta=BETA, psi=1.0)
        phi = bank.phi(taus)
        for st, col in zip(model.stats, values.T):
            st.precision += BETA * (phi.T @ phi)
            st.proj += BETA * (phi.T @ col)
            st.n_points += n
        model.dirty = True
        gp = GpClassData(2, beta=BETA,
                         kernel=lambda a, b, bk=bank: bk.phi(a) @ bk.phi(b).T)
        gp.set_points(taus, values)
        for tau in (1.0, 8.0, 15.5, 30.0):
            m_blr, v_blr = model.predictive(bank, tau)
            m_gp, v_gp = gp.gp_predictive(tau)
            assert np.max(np.abs(m_blr - m_gp)
                          / np.maximum(np.abs(m_gp), 1e-12)) < 1e-6
            assert np.max(np.abs(v_blr - v_gp) / abs(v_gp)) < 1e-6


def test_emission_table_matches_scalar_logpdf():
    rng = np.random.default_rng(2)
    model, bank = make_model(n_dims=2)
    model.add_segment(bank, rng.normal(0, 1, size=(2, 14)))
    seq = rng.normal(0, 1, size=(2, 9))
    table = model.log_emission_table(bank, seq, kmax=6)
    assert table.shape == (6, 9)
    for j in (0, 3, 5):
        for t in (0, 4, 8):
            ref = gaussian_logpdf(seq[:, t], *model.predictive(bank, float(j + 1)))
            assert table[j, t] == pytest.approx(ref, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_emission_table_matches_residual_form(offset):
    # offset 1e4 with 0.1 residuals: un-normalized data far from zero
    rng = np.random.default_rng(3)
    model, bank = make_model(n_dims=3)
    for _ in range(4):
        model.add_segment(bank, offset + 0.1 * rng.normal(size=(3, 20)))
    seq = offset + 0.1 * rng.normal(size=(3, 50))
    means, variances = model.predictive(bank, np.arange(1, 26, dtype=np.float64))
    table = model.log_emission_table(bank, seq, kmax=25)
    np.testing.assert_allclose(table, direct_log_table(means, variances, seq),
                               rtol=1e-10, atol=0)


def test_cached_table_follows_every_statistics_change():
    # oracle: a model built fresh from the same statistics, never cached
    rng = np.random.default_rng(21)
    bank = sample_feature_bank(20, 1.0, seed=8)
    seq = rng.normal(size=(2, 40))
    segs = [rng.normal(size=(2, k)) for k in (12, 20, 9)]

    def fresh(*kept):
        model, _ = make_model(n_dims=2)
        for seg in kept:
            model.add_segment(bank, seg)
        return model.log_emission_table(bank, seq, kmax=25)

    model, _ = make_model(n_dims=2)

    def cached(kmax=25):
        return model.log_emission_table(bank, seq, kmax=kmax)

    np.testing.assert_array_equal(cached(), fresh())
    model.add_segment(bank, segs[0])
    np.testing.assert_array_equal(cached(), fresh(segs[0]))
    model.add_segment(bank, segs[1])
    np.testing.assert_array_equal(cached(), fresh(segs[0], segs[1]))
    model.remove_segment(bank, segs[0])
    np.testing.assert_allclose(cached(), fresh(segs[1]), rtol=1e-10)
    model.refresh()
    np.testing.assert_allclose(cached(), fresh(segs[1]), rtol=1e-10)
    np.testing.assert_allclose(cached(kmax=10), fresh(segs[1])[:10], rtol=1e-10)

    # statistics written from outside, then marked dirty (criterion 2's pattern)
    phi = bank.phi(np.arange(1.0, 10.0))
    for st, row in zip(model.stats, segs[2]):
        st.precision += BETA * (phi.T @ phi)
        st.proj += BETA * (phi.T @ row)
        st.n_points += 9
    model.dirty = True
    np.testing.assert_allclose(cached(), fresh(segs[1], segs[2]), rtol=1e-10)


def test_refresh_rejects_disagreeing_precisions():
    model, bank = make_model(n_dims=3)
    model.add_segment(bank, np.ones((3, 5)))
    model.stats[2].precision[0, 0] += 1e-9
    model.dirty = True
    with pytest.raises(ValueError, match="class 0.*dimension 2"):
        model.refresh()


def test_one_factorization_per_dirty_class(monkeypatch):
    calls = []
    real = rffseg.blr.dpotrf

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(rffseg.blr, "dpotrf", counting)
    bank = sample_feature_bank(20, 1.0, seed=4)
    emissions = RffEmissions(bank, 5, 8, 20, beta=BETA, psi=PSI)
    rng = np.random.default_rng(0)
    emissions.refresh()
    emissions.log_emission_tables(rng.normal(size=(8, 30)), 20)
    assert len(calls) == 5
    for c in (1, 3):
        add_frames(emissions, c, c, rng.normal(size=(8, 15)))
    calls.clear()
    emissions.refresh()
    emissions.log_emission_tables(rng.normal(size=(8, 30)), 20)
    assert len(calls) == 2
    calls.clear()
    emissions.refresh()
    assert calls == []
    # a class alone caches nothing: one factorization per table
    emissions.class_models[0].log_emission_table(bank, rng.normal(size=(8, 30)), kmax=20)
    assert len(calls) == 1


def test_statistics_stay_views_of_the_stacks():
    rng = np.random.default_rng(13)
    model, bank = make_model(n_dims=3)
    assert_bound_to_stacks(model)
    segs = [rng.normal(size=(3, k)) for k in (7, 11)]
    for seg in segs:
        model.add_segment(bank, seg)
    model.remove_segment(bank, segs[0])
    assert_bound_to_stacks(model)
    # criterion 2's pattern: statistics written from outside, in place
    phi = bank.phi(np.arange(1.0, 6.0))
    for st, row in zip(model.stats, rng.normal(size=(3, 5))):
        st.precision += BETA * (phi.T @ phi)
        st.proj += BETA * (phi.T @ row)
        st.n_points += 5
    model.dirty = True
    assert_bound_to_stacks(model)
    model.refresh()
    # the posterior reads what was written through the views
    want = np.linalg.solve(model.stats[0].precision, np.array([st.proj for st in model.stats]).T)
    np.testing.assert_allclose(posterior_mean(model).T, want, rtol=1e-10)


def test_statistics_restored_from_a_snapshot_grid():
    # oracle: a standalone model fed the same segments through add_segment
    rng = np.random.default_rng(14)
    model, bank = make_model(n_dims=3)
    seg = rng.normal(size=(3, 12))
    model.add_segment(bank, seg)
    counts = [1] * 12 + [0] * 8
    sums = np.vstack([seg.T, np.zeros((8, 3))]).tolist()
    snap = json.loads(json.dumps({
        "backend": "rff", "bank": bank.to_dict(), "hsmm": {"n_classes": 1, "kmax": 20},
        "counts": [counts], "sums": [sums]}))
    restored_bank, emissions = emissions_from_snapshot(snap, 3, BETA, PSI, 1.0)
    np.testing.assert_array_equal(emissions.counts, [counts])
    np.testing.assert_array_equal(emissions.sums, [sums])
    seq = rng.normal(size=(3, 30))

    def assert_same_tables():
        restored = emissions.class_models[0]
        assert_bound_to_stacks(restored)
        assert restored.n_points == model.n_points
        want = model.log_emission_table(bank, seq, kmax=20)
        np.testing.assert_allclose(emissions.log_emission_tables(seq, 20)[0], want, rtol=1e-12)
        np.testing.assert_allclose(restored.log_emission_table(restored_bank, seq, kmax=20),
                                   want, rtol=1e-12)

    assert_same_tables()
    seg = rng.normal(size=(3, 9))
    add_frames(emissions, None, 0, seg)
    model.add_segment(bank, seg)
    assert_same_tables()
