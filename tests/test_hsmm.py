"""Duration/transition models and the segment lattice DP."""

import math
import shutil

import numpy as np
import pytest
from scipy.stats import chisquare, poisson

import rffseg.hsmm as hsmm
from rffseg.hsmm import (
    ForwardLattice,
    HsmmParams,
    InfeasibleSequenceError,
    Segment,
    backward_sample,
    forward_filter,
    forward_from_table,
    gaussian_log_table,
    number_array,
    tileable,
)

from helpers import (
    TableEmitter,
    direct_log_table,
    enumerate_posterior,
    load_tool,
    poisson_logpmf,
    reference_forward,
    segmentation_key,
)


# the kernel chosen at import: the compiled one wherever a C compiler is found
LOADED = hsmm._kernel
NO_COMPILER = shutil.which("cc") is None


@pytest.fixture
def lattice_kernel(request, monkeypatch):
    """Run the test under its class's ``KERNEL``: ``"numpy"``, or ``"c"`` for the
    kernel chosen at import (the numpy one where none could be compiled)."""
    kernel = hsmm._NUMPY if request.cls.KERNEL == "numpy" else LOADED
    monkeypatch.setattr(hsmm, "_kernel", kernel)
    return kernel


def make_params(**kw):
    base = dict(n_classes=2, kmin=1, kmax=3, mean_length=2.0, alpha=1.0)
    base.update(kw)
    return HsmmParams(**base)


class TestDuration:
    def test_matches_poisson_oracle(self):
        params = make_params(kmin=15, kmax=30, mean_length=20.0)
        np.testing.assert_allclose(params.log_durations(30),
                                   poisson.logpmf(np.arange(15, 31), 20.0), rtol=1e-12)
        assert math.exp(params.log_durations(30)[20 - 15]) == pytest.approx(0.0888, abs=5e-5)

    def test_unimodal_around_mean(self):
        log_dur = make_params(kmin=15, kmax=30, mean_length=20.0).log_durations(30)
        assert log_dur[20 - 15] > log_dur[0]
        assert log_dur[20 - 15] > log_dur[-1]

    def test_unit_mean_boundary(self):
        params = make_params(kmin=1, kmax=3, mean_length=1.0)
        assert math.exp(params.log_durations(3)[0]) == pytest.approx(
            math.exp(-1.0), rel=1e-12)

    def test_out_of_window_mean_warns(self):
        with pytest.warns(UserWarning):
            make_params(kmin=5, kmax=10, mean_length=20.0)

    @pytest.mark.parametrize("field", ["mean_length", "alpha"])
    @pytest.mark.parametrize("value, message", [
        (0.0, "must be > 0, got 0.0"), (-2.0, "must be > 0, got -2.0"),
        (math.nan, "must be finite, got nan"), (math.inf, "must be finite, got inf"),
        (-math.inf, "must be finite, got -inf")])
    def test_rejects_non_positive_or_non_finite_values(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{field} {message}$"):
            make_params(**{field: value})

    def test_duration_vector_is_cached_read_only_and_exact(self):
        params = make_params(kmin=15, kmax=30, mean_length=20.0)
        log_dur = params.log_durations(30)
        assert not log_dur.flags.writeable
        with pytest.raises(ValueError):
            log_dur[0] = 0.0
        assert log_dur.tolist() == [poisson_logpmf(k, 20.0) for k in range(15, 31)]
        assert params.log_durations(30) is log_dur  # one array per window and mean
        # a shorter sequence's window, then a changed mean, give new vectors
        assert params.log_durations(22).tolist() == log_dur[:8].tolist()
        params.mean_length = 17.5
        changed = params.log_durations(30)
        assert changed.tolist() == [poisson_logpmf(k, 17.5) for k in range(15, 31)]
        assert changed.tolist() != log_dur.tolist()


class TestTransition:
    def test_symmetric_prior_is_uniform(self):
        params = HsmmParams(n_classes=10, kmin=1, kmax=3, mean_length=2.0,
                            alpha=1.0)
        np.testing.assert_allclose(np.exp(params.log_transition_matrix()), 0.1,
                                   rtol=1e-12)

    def test_counted_transitions(self):
        counts = np.zeros((10, 10), dtype=np.int64)
        counts[0, 1] = 9  # all nine observed transitions from 0 go to 1
        params = HsmmParams(n_classes=10, kmin=1, kmax=3, mean_length=2.0,
                            alpha=1.0, transition_counts=counts)
        assert math.exp(params.log_transition_matrix()[0, 1]) == pytest.approx(
            10.0 / 19.0, rel=1e-12)

    def test_extra_count_strictly_increases_probability(self):
        counts = np.zeros((3, 3), dtype=np.int64)
        counts[1] = [2, 5, 1]
        before = HsmmParams(n_classes=3, kmin=1, kmax=3, mean_length=2.0,
                            transition_counts=counts.copy()).log_transition_matrix()[1, 0]
        counts[1, 0] += 1
        after = HsmmParams(n_classes=3, kmin=1, kmax=3, mean_length=2.0,
                           transition_counts=counts).log_transition_matrix()[1, 0]
        assert after > before

    def test_rows_normalize_exactly(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 15, size=(4, 4))
        params = HsmmParams(n_classes=4, kmin=1, kmax=3, mean_length=2.0,
                            alpha=0.7, transition_counts=counts)
        rows = np.exp(params.log_transition_matrix()).sum(axis=1)
        np.testing.assert_allclose(rows, 1.0, atol=1e-12)

    def test_absorb_release_roundtrip(self):
        params = make_params(n_classes=3)
        labels = [0, 2, 2, 1, 0]
        params.absorb_labels(labels)
        assert params.class_counts.tolist() == [2, 1, 2]
        assert params.transition_counts.sum() == 4
        params.release_labels(labels)
        assert params.class_counts.sum() == 0
        assert params.transition_counts.sum() == 0


class TestNumberArray:
    @pytest.mark.parametrize("values, dtype, message", [
        ([1.0, True], np.float64, "x must be finite numbers, got True"),
        ([[1.0, 2.0], [3.0]], np.float64, r"x must be a rectangular array, got row \[3.0\]"),
        ({}, np.float64, r"x must be finite numbers, got \{\}"),
        (None, np.float64, "x must be finite numbers, got None"),
        ([[0.5], [math.nan]], np.float64, "x must be finite numbers, got nan"),
        ([1, 2.5], np.int64, "x must hold integers within int64, got 2.5"),
        (-1, np.uint64, "x must hold integers within uint64, got -1"),
    ], ids=["bool", "ragged", "dict", "none", "nan", "fraction", "uint64-negative"])
    def test_refusal_names_the_field_and_the_first_bad_value(self, values, dtype, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            number_array("x", values, dtype=dtype)

    def test_none_axis_takes_any_length(self):
        assert number_array("x", [[1, 2]] * 3, (None, 2)).shape == (3, 2)
        assert number_array("x", [], (None,)).shape == (0,)
        with pytest.raises(ValueError, match=r"^x must have shape \(None, 3\), got \(2, 2\)$"):
            number_array("x", [[1, 2], [3, 4]], (None, 3))

    def test_integers_keep_their_range(self):
        top = number_array("x", 2**64 - 1, (), np.uint64)
        assert top.dtype == np.uint64 and int(top) == 2**64 - 1
        assert number_array("x", [2.0, 3], dtype=np.int64).tolist() == [2, 3]


def test_tileable():
    assert tileable(0, 15, 30)
    assert tileable(30, 15, 30)
    assert tileable(163, 15, 30)
    assert not tileable(7, 15, 30)
    assert not tileable(31, 16, 30)  # gap between one and two segments


def fixed_instance(seed=7, n_frames=6, kmin=1, kmax=3, n_classes=2,
                   mean_length=2.0):
    rng = np.random.default_rng(seed)
    tables = rng.normal(-1.0, 1.0, size=(n_classes, kmax, n_frames))
    emitters = [TableEmitter(tables[c]) for c in range(n_classes)]
    params = HsmmParams(
        n_classes=n_classes, kmin=kmin, kmax=kmax, mean_length=mean_length,
        alpha=0.5,
        transition_counts=np.array([[3, 1], [0, 2]]),
        class_counts=np.array([5, 3]))
    seq = np.zeros((1, n_frames))
    return seq, tables, emitters, params


@pytest.mark.usefixtures("lattice_kernel")
class TestForwardFilter:
    KERNEL = "c"

    def test_too_short_sequence_is_infeasible(self):
        seq, _, emitters, params = fixed_instance()
        params.kmin = 4
        with pytest.raises(InfeasibleSequenceError):
            forward_filter(np.zeros((1, 3)), emitters, params)

    def test_marginal_matches_enumeration(self):
        for seed in (7, 8, 9):
            seq, tables, _, params = fixed_instance(seed=seed)
            lattice = forward_from_table(tables, params)
            _, log_marginal = enumerate_posterior(tables, params, seq.shape[1])
            assert abs(lattice.total_loglik - log_marginal) < 1e-10

    def test_emission_tables_built_once_per_class(self):
        seq, _, emitters, params = fixed_instance()
        forward_filter(seq, emitters, params)
        assert [e.calls for e in emitters] == [1, 1]

    @pytest.mark.parametrize("n_frames,kmax", [(6, 3), (5, 9)])
    def test_equals_forward_from_table_on_stacked_table(self, n_frames, kmax):
        # kmax > T: forward_filter builds the table at min(kmax, T) positions
        seq, tables, emitters, params = fixed_instance(n_frames=n_frames, kmax=kmax)
        got = forward_filter(seq, emitters, params)
        want = forward_from_table(tables[:, :min(kmax, n_frames)], params)
        np.testing.assert_array_equal(got.log_alpha, want.log_alpha)
        np.testing.assert_array_equal(got.log_norm, want.log_norm)
        assert (got.kmin, got.kmax) == (want.kmin, want.kmax)

    def test_lattice_is_normalized_and_nan_free(self):
        _, tables, _, params = fixed_instance(n_frames=8)
        lattice = forward_from_table(tables, params)
        assert not np.isnan(lattice.log_alpha).any()
        for t in range(lattice.n_frames):
            if np.isfinite(lattice.log_norm[t]):
                total = np.logaddexp.reduce(lattice.log_alpha[t].ravel())
                assert abs(total) < 1e-10
                assert lattice.log_alpha[t].max() <= 1e-10

    def test_impossible_cells_are_log_zero(self):
        _, tables, _, params = fixed_instance(n_frames=8, kmin=2, kmax=3)
        lattice = forward_from_table(tables, params)
        for t in range(lattice.n_frames):
            for k in range(lattice.kmin, lattice.kmax + 1):
                if k > t + 1:
                    assert np.all(
                        lattice.log_alpha[t, k - lattice.kmin] == -np.inf)

    def test_uniform_emissions_give_uniform_class_posterior(self):
        n_frames, kmax = 8, 3
        table = np.random.default_rng(1).normal(-1, 1, size=(kmax, n_frames))
        params = HsmmParams(n_classes=2, kmin=1, kmax=kmax, mean_length=2.0)
        lattice = forward_from_table(np.stack([table, table.copy()]), params)
        np.testing.assert_allclose(lattice.log_alpha[..., 0],
                                   lattice.log_alpha[..., 1], atol=1e-12)

    def test_label_permutation_permutes_lattice(self):
        seq, tables, _, params = fixed_instance(n_classes=2)
        lattice = forward_from_table(tables, params)
        perm = [1, 0]
        swapped = HsmmParams(
            n_classes=2, kmin=params.kmin, kmax=params.kmax,
            mean_length=params.mean_length, alpha=params.alpha,
            transition_counts=params.transition_counts[np.ix_(perm, perm)],
            class_counts=params.class_counts[perm])
        lattice_p = forward_from_table(tables[perm], swapped)
        np.testing.assert_array_equal(lattice_p.log_alpha[..., perm],
                                      lattice.log_alpha)
        np.testing.assert_array_equal(lattice_p.log_norm, lattice.log_norm)
        # enumerated posterior mass is label-equivariant too
        out, lm = enumerate_posterior(tables, params, seq.shape[1])
        out_p, lm_p = enumerate_posterior(tables[perm], swapped, seq.shape[1])
        assert abs(lm - lm_p) < 1e-12
        for (lengths, labels), lw in out.items():
            assert out_p[(lengths, tuple(perm[c] for c in labels))] == \
                pytest.approx(lw, rel=1e-12)

    def test_unreachable_tail_is_infeasible(self):
        # 31 frames cannot be tiled with lengths in [16, 30]
        _, tables, _, params = fixed_instance(
            n_frames=31, kmin=16, kmax=30, mean_length=20.0)
        with pytest.raises(InfeasibleSequenceError):
            forward_from_table(tables, params)

    def test_table_of_another_class_count_is_refused(self):
        _, tables, _, params = fixed_instance(n_classes=2)
        with pytest.raises(ValueError, match="table has 3 classes, the chain has 2"):
            forward_from_table(np.concatenate([tables, tables[:1]]), params)

    @pytest.mark.parametrize("positions", [2, 4])
    def test_table_of_another_position_count_is_refused(self, positions):
        # kmax=3 and T=6: the table must hold min(kmax, T) = 3 positions
        rng = np.random.default_rng(positions)
        _, _, _, params = fixed_instance()
        with pytest.raises(ValueError, match=f"table has {positions} positions"):
            forward_from_table(rng.normal(size=(2, positions, 6)), params)

    def test_table_shorter_than_kmin_is_infeasible(self):
        _, tables, _, params = fixed_instance()
        params.kmin = 4
        with pytest.raises(InfeasibleSequenceError,
                           match="sequence of 3 frames is shorter than kmin=4"):
            forward_from_table(tables[:, :3, :3], params)


def random_instance(rng, n_frames, kmin, kmax, n_classes, scale=1.0):
    """A ``(C, min(kmax, T), T)`` frame table and its chain parameters."""
    tables = rng.normal(-1.0, scale, size=(n_classes, kmax, n_frames))
    params = HsmmParams(
        n_classes=n_classes, kmin=kmin, kmax=kmax,
        mean_length=float(rng.uniform(kmin, kmax)), alpha=float(rng.uniform(0.3, 2.0)),
        transition_counts=rng.integers(0, 6, size=(n_classes, n_classes)))
    return tables[:, :min(kmax, n_frames)], params


@pytest.mark.usefixtures("lattice_kernel")
class TestBlockedRecursion:
    KERNEL = "c"

    # (T, kmin, kmax, C): one-frame blocks (kmin=1), kmax > T, kmin == kmax,
    # partial last blocks, and frames no tiling reaches
    FEASIBLE = [(6, 1, 3, 2), (8, 1, 9, 2), (7, 1, 2, 3), (7, 2, 9, 3),
                (8, 2, 2, 3), (9, 3, 3, 2), (8, 3, 4, 3), (7, 3, 4, 2),
                (8, 3, 5, 1), (8, 4, 8, 2)]
    INFEASIBLE = [(5, 3, 4, 2), (7, 2, 2, 2), (2, 3, 5, 2), (8, 5, 6, 2)]

    @pytest.mark.parametrize("n_frames,kmin,kmax,n_classes", FEASIBLE)
    def test_every_frame_matches_enumeration(self, n_frames, kmin, kmax, n_classes):
        # frame t of the lattice is the forward pass over frames 0..t, so
        # every prefix's enumerated posterior checks one slice
        rng = np.random.default_rng([n_frames, kmin, kmax, n_classes])
        tables, params = random_instance(rng, n_frames, kmin, kmax, n_classes)
        lattice = forward_from_table(tables, params)
        for t in range(n_frames):
            if not tileable(t + 1, kmin, kmax):
                assert lattice.log_norm[t] == -np.inf
                assert np.all(lattice.log_alpha[t] == -np.inf)
                continue
            outcomes, log_marginal = enumerate_posterior(tables, params, t + 1)
            assert abs(lattice.log_norm[t] - log_marginal) < 1e-12
            last = np.zeros_like(lattice.log_alpha[t])
            for (lengths, labels), lw in outcomes.items():
                last[lengths[-1] - kmin, labels[-1]] += math.exp(lw - log_marginal)
            np.testing.assert_allclose(np.exp(lattice.log_alpha[t]), last,
                                       rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n_frames,kmin,kmax,n_classes", INFEASIBLE)
    def test_untileable_lattice_is_infeasible(self, n_frames, kmin, kmax, n_classes):
        rng = np.random.default_rng([n_frames, kmin, kmax, n_classes])
        tables, params = random_instance(rng, n_frames, kmin, kmax, n_classes)
        with pytest.raises(InfeasibleSequenceError):
            forward_from_table(tables, params)

    @pytest.mark.parametrize("n_frames,kmin,kmax,n_classes", [
        (164, 15, 30, 11), (163, 15, 30, 11), (171, 15, 30, 11), (100, 15, 20, 11),
        (64, 1, 5, 11), (164, 15, 30, 1), (27, 5, 30, 11)],
        ids=["164-15-30", "163-15-30", "171-15-30", "100-15-20", "64-1-5",
             "164-15-30-C1", "27-5-30"])
    def test_matches_frame_by_frame_recursion(self, n_frames, kmin, kmax, n_classes):
        # the shapes of the benchmark (C=11), with emissions on the scale
        # of 8-dimensional densities; (100, 15, 20) leaves frames 20..29
        # unreachable, C=1 has a single class row, and T=27 < kmax
        # truncates the table to T positions
        rng = np.random.default_rng([n_frames, kmin, kmax])
        tables, params = random_instance(rng, n_frames, kmin, kmax, n_classes, scale=4.0)
        got = forward_from_table(tables, params)
        want = reference_forward(tables, params)
        np.testing.assert_array_equal(np.isneginf(got.log_alpha),
                                      np.isneginf(want.log_alpha))
        np.testing.assert_array_equal(np.isneginf(got.log_norm),
                                      np.isneginf(want.log_norm))
        assert np.isfinite(got.log_alpha[~np.isneginf(got.log_alpha)]).all()
        reached = np.isfinite(want.log_norm)
        np.testing.assert_allclose(got.log_norm[reached], want.log_norm[reached],
                                   rtol=0, atol=1e-10)
        live = np.isfinite(want.log_alpha)
        np.testing.assert_allclose(got.log_alpha[live], want.log_alpha[live],
                                   rtol=0, atol=1e-10)

    def test_lattices_own_their_memory(self):
        # each block is normalized in place, so a buffer reused across
        # calls would rewrite a lattice the caller still holds
        rng = np.random.default_rng(11)
        tables, params = random_instance(rng, 164, 15, 30, 11, scale=4.0)
        before = tables.copy()
        first = forward_from_table(tables, params)
        kept = (first.log_alpha.copy(), first.log_norm.copy())
        second = forward_from_table(tables, params)
        np.testing.assert_array_equal(tables, before)
        for a, b in ((first.log_alpha, second.log_alpha), (first.log_norm, second.log_norm)):
            assert not np.shares_memory(a, b)
            assert not np.shares_memory(a, tables)
        for lattice in (first, second):
            np.testing.assert_array_equal(lattice.log_alpha, kept[0])
            np.testing.assert_array_equal(lattice.log_norm, kept[1])

    def test_table_layout_does_not_change_the_lattice(self):
        # a Fortran-ordered copy and a strided view into a wider table hold
        # the same values as the contiguous table, so give the same bits
        rng = np.random.default_rng(12)
        tables, params = random_instance(rng, 164, 15, 30, 11, scale=4.0)
        want = forward_from_table(tables, params)
        wider = np.full((11, 32, 2 * 164 + 1), np.nan)
        wider[:, 1:31, 1::2] = tables
        for layout in (np.asfortranarray(tables), wider[:, 1:31, 1::2]):
            before = layout.copy()
            got = forward_from_table(layout, params)
            np.testing.assert_array_equal(layout, before)
            assert got.log_alpha.tobytes() == want.log_alpha.tobytes()
            assert got.log_norm.tobytes() == want.log_norm.tobytes()
        assert np.isnan(wider[:, 0]).all() and np.isnan(wider[:, :, ::2]).all()


class TestGaussianLogTable:
    @pytest.mark.parametrize("offset,spread", [(0.0, 1.0), (1e4, 0.1), (-250.0, 3.0)])
    def test_matches_residual_form(self, offset, spread):
        # (1e4, 0.1) is un-normalized data far from the origin: the
        # expanded square cancels unless frames and means are centred
        rng = np.random.default_rng(5)
        seq = offset + spread * rng.normal(size=(8, 164))
        means = offset + spread * rng.normal(size=(30, 8))
        variances = rng.uniform(0.05, 0.5, size=30)  # shared by every dimension
        table = gaussian_log_table(means, variances, seq)
        want = direct_log_table(means, variances, seq)
        assert table.shape == (30, 164)
        np.testing.assert_allclose(table, want, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("offset,spread", [(0.0, 1.0), (1e4, 0.1)])
    def test_stacked_classes_equal_per_class_calls(self, offset, spread):
        rng = np.random.default_rng(6)
        seq = offset + spread * rng.normal(size=(8, 164))
        means = offset + spread * rng.normal(size=(11, 30, 8))
        variances = rng.uniform(0.05, 0.5, size=(11, 30))
        table = gaussian_log_table(means, variances, seq)
        assert table.shape == (11, 30, 164)
        np.testing.assert_array_equal(
            table, np.stack([gaussian_log_table(m, v, seq)
                             for m, v in zip(means, variances)]))


@pytest.mark.usefixtures("lattice_kernel")
class TestBackwardSample:
    KERNEL = "c"

    def test_spans_tile_exactly(self):
        rng = np.random.default_rng(0)
        _, tables, _, params = fixed_instance(n_frames=8)
        lattice = forward_from_table(tables, params)
        for _ in range(50):
            segs = backward_sample(lattice, params, rng)
            assert segs[0].start == 0
            assert segs[-1].stop == 8
            for a, b in zip(segs[:-1], segs[1:]):
                assert a.stop == b.start
            assert all(params.kmin <= s.length <= params.kmax for s in segs)
            assert sum(s.length for s in segs) == 8

    def test_takes_one_uniform_per_segment(self):
        _, tables, _, params = fixed_instance(n_frames=8)
        lattice = forward_from_table(tables, params)
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(20):
            segs = backward_sample(lattice, params, rng)
            twin.random(len(segs))
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_degenerate_lattice_returns_unique_tiling(self):
        params = HsmmParams(n_classes=1, kmin=3, kmax=3, mean_length=3.0)
        lattice = forward_from_table(np.zeros((1, 3, 9)), params)
        segs = backward_sample(lattice, params, np.random.default_rng(1))
        assert segs == [Segment(0, 3, 0), Segment(3, 6, 0), Segment(6, 9, 0)]

    def test_draw_is_the_draw_of_rng_choice(self):
        # the first draw, at the sequence end, against rng.choice(p=) from
        # the same seed, on random slices with unreachable cells
        rng = np.random.default_rng(13)
        unreachable = 0
        for _ in range(2000):
            n_frames, n_classes = int(rng.integers(1, 9)), int(rng.integers(1, 12))
            log_alpha = rng.normal(scale=3.0, size=(n_frames, n_frames, n_classes))
            log_alpha[rng.random(log_alpha.shape) < 0.4] = -np.inf
            # every frame keeps one reachable cell
            log_alpha[np.arange(n_frames), rng.integers(n_frames, size=n_frames),
                      rng.integers(n_classes, size=n_frames)] = rng.normal(size=n_frames)
            unreachable += int(np.isinf(log_alpha[-1]).sum())
            lattice = ForwardLattice(log_alpha=log_alpha, log_norm=np.zeros(n_frames),
                                     kmin=1, kmax=n_frames)
            params = HsmmParams(n_classes=n_classes, kmin=1, kmax=n_frames,
                                mean_length=1.0)
            seed = int(rng.integers(2**32))
            weights = log_alpha[-1].ravel()
            probs = np.exp(weights - weights.max())
            probs /= probs.sum()
            idx = np.random.default_rng(seed).choice(probs.size, p=probs)
            k, label = 1 + idx // n_classes, idx % n_classes
            segs = backward_sample(lattice, params, np.random.default_rng(seed))
            assert segs[-1] == Segment(n_frames - k, n_frames, label)
        assert unreachable > 1000

    def test_samples_match_enumerated_posterior(self):
        # 20k-sample goodness of fit on the fixed tiny instance
        _, tables, _, params = fixed_instance()
        lattice = forward_from_table(tables, params)
        outcomes, log_marginal = enumerate_posterior(tables, params, 6)
        n_samples = 20_000
        rng = np.random.default_rng(77)
        counts = {}
        for _ in range(n_samples):
            key = segmentation_key(backward_sample(lattice, params, rng))
            counts[key] = counts.get(key, 0) + 1
        observed, expected = [], []
        tail_obs = tail_exp = 0.0
        for key, lw in outcomes.items():
            exp_count = math.exp(lw - log_marginal) * n_samples
            obs_count = counts.get(key, 0)
            if exp_count < 5.0:
                tail_obs += obs_count
                tail_exp += exp_count
            else:
                observed.append(obs_count)
                expected.append(exp_count)
        if tail_exp > 0:
            observed.append(tail_obs)
            expected.append(tail_exp)
        observed = np.asarray(observed, dtype=float)
        expected = np.asarray(expected, dtype=float)
        expected *= observed.sum() / expected.sum()
        assert chisquare(observed, expected).pvalue > 0.01


class TestForwardFilterNumpy(TestForwardFilter):
    KERNEL = "numpy"


class TestBlockedRecursionNumpy(TestBlockedRecursion):
    KERNEL = "numpy"


class TestBackwardSampleNumpy(TestBackwardSample):
    KERNEL = "numpy"


@pytest.mark.skipif(NO_COMPILER, reason="no C compiler")
class TestCompiledKernel:
    def test_is_chosen_where_a_compiler_is_found(self):
        assert LOADED.name == "c"
        assert hsmm.lattice_kernel() == "c"

    def test_agrees_with_numpy_on_the_random_shapes_of_layer_timing(self, monkeypatch):
        # C=1, kmin=1, kmax > T and untileable tables among them
        tool = load_tool("layer_timing")
        feasible = 0
        for lattice, _ in tool.random_cases():
            outcomes = []
            for kernel in (hsmm._NUMPY, LOADED):
                monkeypatch.setattr(hsmm, "_kernel", kernel)
                outcomes.append(tool.lattice_outcome(hsmm, *lattice))
            want, got = outcomes
            if isinstance(want[0], str):
                assert got == want  # the same InfeasibleSequenceError message
                continue
            feasible += 1
            (alpha, norm, spans, state), (alpha2, norm2, spans2, state2) = want, got
            np.testing.assert_array_equal(np.isneginf(alpha2), np.isneginf(alpha))
            np.testing.assert_array_equal(np.isneginf(norm2), np.isneginf(norm))
            live, reached = np.isfinite(alpha), np.isfinite(norm)
            np.testing.assert_allclose(alpha2[live], alpha[live], rtol=0, atol=1e-12)
            np.testing.assert_allclose(norm2[reached], norm[reached], rtol=1e-12, atol=0)
            assert spans2 == spans
            assert state2 == state
        assert 0 < feasible < tool.CHECKS

    def test_a_fresh_cache_builds_the_library_once(self, tmp_path, monkeypatch):
        assert hsmm._load_kernel(tmp_path).name == "c"
        built = list(tmp_path.iterdir())
        assert [p.suffix for p in built] == [".so"]  # no temporary file left
        # the second load finds it, and needs no compiler
        monkeypatch.setenv("PATH", str(tmp_path / "bin"))
        assert hsmm._load_kernel(tmp_path).name == "c"
        assert list(tmp_path.iterdir()) == built

    @pytest.mark.parametrize("fault, fix", [
        ("+ log_dur[i]", ""),  # the forward pass drops the duration term
        ("row[i] + column[i % n_classes]", "row[i]"),  # draws ignore transitions
    ], ids=["forward", "draw"])
    def test_a_kernel_that_fails_its_check_leaves_numpy(self, tmp_path, fault, fix):
        source = tmp_path / "_lattice.c"
        text = hsmm._SOURCE.read_text(encoding="utf-8")
        assert fault in text
        source.write_text(text.replace(fault, fix), encoding="utf-8")
        assert hsmm._load_kernel(tmp_path / "cache", source).name == "numpy"
        # built and loaded: the check refused it
        assert len(list((tmp_path / "cache").glob("_lattice-*.so"))) == 1

    def test_a_source_that_does_not_compile_leaves_numpy(self, tmp_path):
        source = tmp_path / "_lattice.c"
        source.write_text("this is not C\n", encoding="utf-8")
        assert hsmm._load_kernel(tmp_path / "cache", source).name == "numpy"


def test_no_compiler_leaves_numpy(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    assert hsmm._load_kernel(tmp_path / "cache").name == "numpy"
    assert not (tmp_path / "cache").exists()


def test_a_cache_that_cannot_be_written_leaves_numpy(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")  # a file where the directory would go
    assert hsmm._load_kernel(blocker / "cache").name == "numpy"
