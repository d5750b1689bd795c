"""Gibbs trainer: initialization, sweeps, audits, and convergence."""

import json

import numpy as np
import pytest

import rffseg.exact_gp
import rffseg.trainer
from rffseg.blr import ClassModel, grid_statistics
from rffseg.data import PatternSpec, SyntheticSpec, evaluate_nhd, generate_synthetic
from rffseg.exact_gp import GpClassData
from rffseg.features import sample_feature_bank
from rffseg.hsmm import (
    InfeasibleSequenceError,
    Segment,
    backward_sample,
    forward_filter,
    forward_from_table,
    tileable,
)
from rffseg.trainer import (
    BACKENDS,
    AuditError,
    ConfigError,
    ExactGpEmissions,
    RffEmissions,
    TrainerConfig,
    emissions_from_snapshot,
    gibbs_sweep,
    initialize,
    labels_from_spans,
    snapshot_dict,
    train,
    train_with_restarts,
)

from helpers import TableEmitter, add_frames, direct_log_table, reference_random_spans


def small_store(seed=3, n_sequences=4, seq_length=120, sigma=0.05):
    spec = SyntheticSpec(
        patterns=[PatternSpec(kind="sine", period=12.0, sigma=sigma),
                  PatternSpec(kind="constant", value=0.5, sigma=sigma)],
        n_dims=2, n_sequences=n_sequences, seq_length=seq_length,
        block_min=10, block_max=20)
    return generate_synthetic(spec, seed=seed)


def small_config(**kw):
    base = dict(n_classes=2, kmin=8, kmax=24, mean_length=15.0,
                iterations=3, seed=11)
    base.update(kw)
    return TrainerConfig(**base)


class TestConfig:
    def test_window_ordering_error_names_both_fields(self):
        with pytest.raises(ConfigError, match="kmin.*kmax"):
            TrainerConfig(n_classes=2, kmin=20, kmax=10).validate()

    def test_rejects_unknown_backend(self):
        with pytest.raises(ConfigError, match="backend"):
            TrainerConfig(n_classes=2, backend="magic").validate()

    def test_rejects_nonpositive_values(self):
        for field, value in [("n_classes", 0), ("n_features", 0),
                             ("lengthscale", 0.0), ("beta", -1.0),
                             ("psi", 0.0), ("alpha", 0.0), ("kmin", 0),
                             ("iterations", -1), ("restarts", 0),
                             ("mean_length", 0.0)]:
            cfg = small_config()
            setattr(cfg, field, value)
            with pytest.raises(ConfigError, match=field):
                cfg.validate()

    def test_rejects_negative_seed(self):
        # numpy's SeedSequence would refuse it only when the chain is drawn
        with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
            small_config(seed=-1).validate()

    def test_rejects_non_finite_mean_length_and_alpha(self):
        for field in ("mean_length", "alpha", "lengthscale", "beta", "psi"):
            for value in (float("nan"), float("inf"), float("-inf")):
                cfg = small_config()
                setattr(cfg, field, value)
                with pytest.raises(ConfigError, match=f"^{field} must be finite, got {value}$"):
                    cfg.validate()


class TestInitialize:
    def test_minimum_length_sequence_gets_single_segment(self):
        store = small_store(n_sequences=1, seq_length=8)
        state = initialize(store.sequences, small_config())
        assert len(state.assignments[0]) == 1
        assert state.assignments[0][0].length == 8

    def test_every_frame_covered_and_audited(self):
        spec = SyntheticSpec(
            patterns=[PatternSpec(kind="sine"), PatternSpec(kind="ramp")],
            n_dims=3, n_sequences=30, seq_length=90, block_min=10,
            block_max=20)
        store = generate_synthetic(spec, seed=5)
        config = TrainerConfig(n_classes=11, kmin=5, kmax=18,
                               mean_length=12.0, seed=2)
        state = initialize(store.sequences, config)
        for seq, segs in zip(store.sequences, state.assignments):
            covered = labels_from_spans(segs, seq.shape[1])
            assert covered.shape == (seq.shape[1],)  # no gaps: all assigned
            assert segs[0].start == 0 and segs[-1].stop == seq.shape[1]
        state.audit()

    def test_same_seed_reproduces_state(self):
        store = small_store()
        a = initialize(store.sequences, small_config())
        b = initialize(store.sequences, small_config())
        assert a.assignments == b.assignments
        assert np.array_equal(a.bank.omegas, b.bank.omegas)

    def test_infeasible_lengths_report_sequence_ids(self):
        seqs = [np.zeros((1, 40)), np.zeros((1, 31)), np.zeros((1, 45))]
        config = TrainerConfig(n_classes=2, kmin=16, kmax=30,
                               mean_length=20.0)
        with pytest.raises(InfeasibleSequenceError, match=r"\[1\]"):
            initialize(seqs, config)


# gapped windows such as [15, 16] leave some remainders no admissible length
SPAN_WINDOWS = [(1, 1), (1, 3), (5, 18), (7, 9), (8, 24), (15, 16), (15, 30), (30, 30)]
SPAN_GRID = [(n_frames, kmin, kmax) for kmin, kmax in SPAN_WINDOWS
             for n_frames in (kmin, kmax, 2 * kmin + 1, 47, 120, 164, 400)
             if tileable(n_frames, kmin, kmax)]


def reference_assignments(sequences, config):
    """``initialize``'s spans and labels, drawn with ``reference_random_spans``.

    Returns ``(start, stop, label)`` lists, the class and transition
    counts, and the generator afterwards.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[1])
    n_classes = config.n_classes
    counts = np.zeros(n_classes, dtype=np.int64)
    trans = np.zeros((n_classes, n_classes), dtype=np.int64)
    assignments = []
    for seq in sequences:
        spans = reference_random_spans(seq.shape[1], config.kmin, config.kmax, rng)
        labels = rng.integers(0, n_classes, size=len(spans))
        assignments.append([(a, b, int(c)) for (a, b), c in zip(spans, labels)])
        np.add.at(counts, labels, 1)
        np.add.at(trans, (labels[:-1], labels[1:]), 1)
    return assignments, counts, trans, rng


class TestInitialDraws:
    """``initialize`` draws exactly what the plain reference draws."""

    @pytest.mark.parametrize("n_frames, kmin, kmax", SPAN_GRID)
    def test_spans_follow_the_reference_draw_order(self, n_frames, kmin, kmax):
        for seed in range(4):
            have_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            have = rffseg.trainer._random_spans(n_frames, kmin, kmax, have_rng)
            assert have == reference_random_spans(n_frames, kmin, kmax, want_rng)
            assert all(type(a) is int and type(b) is int for a, b in have)
            assert have_rng.random() == want_rng.random()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kmin, kmax", [(8, 24), (15, 16)])
    def test_assignments_and_counts_equal_the_reference(self, backend, kmin, kmax):
        store = small_store(n_sequences=5, seq_length=120)
        config = small_config(backend=backend, n_classes=4, kmin=kmin, kmax=kmax)
        state = initialize(store.sequences, config)
        assignments, counts, trans, rng = reference_assignments(store.sequences, config)
        assert [[(s.start, s.stop, s.label) for s in segs]
                for segs in state.assignments] == assignments
        np.testing.assert_array_equal(state.hsmm.class_counts, counts)
        np.testing.assert_array_equal(state.hsmm.transition_counts, trans)
        assert state.rng.random() == rng.random()


def fresh_emissions(state, backend="rff"):
    """An empty ``backend`` of the same shape and settings as ``state``'s."""
    n_classes, kmax, n_dims = state.emissions.sums.shape
    config = state.config
    if backend == "rff":
        return RffEmissions(state.bank, n_classes, n_dims, kmax, config.beta, config.psi)
    return ExactGpEmissions(n_classes, n_dims, kmax, config.beta, config.lengthscale)


def replayed(state, assignments, backend):
    """A fresh ``backend`` fed each sequence through ``add``, as a sweep feeds it."""
    emissions = fresh_emissions(state, backend)
    for seq_idx, (seq, segs) in enumerate(zip(state.sequences, assignments)):
        emissions.add(seq_idx, seq, segs)
    return emissions


def emptied_class_corpus():
    """An rff chain of 6 classes, and its assignments with class 5 folded into 0."""
    spec = SyntheticSpec(
        patterns=[PatternSpec(kind="sine"), PatternSpec(kind="ramp"),
                  PatternSpec(kind="constant", value=0.3)],
        n_dims=3, n_sequences=12, seq_length=140, block_min=10, block_max=20)
    store = generate_synthetic(spec, seed=9)
    state = initialize(store.sequences, small_config(n_classes=6, kmin=6, kmax=22))
    gibbs_sweep(state)
    assignments = [[Segment(s.start, s.stop, 0 if s.label == 5 else s.label)
                    for s in segs] for segs in state.assignments]
    return state, assignments


class TestRebuild:
    """``rebuild`` against the per-sequence updates that sweeps make."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rebuild_equals_a_per_segment_replay(self, backend):
        state, assignments = emptied_class_corpus()
        have = fresh_emissions(state, backend)
        have.rebuild(state.sequences, assignments)
        want = replayed(state, assignments, backend)
        np.testing.assert_array_equal(have.counts, want.counts)
        assert np.max(np.abs(have.sums - want.sums)) <= 1e-12 * np.max(np.abs(want.sums))
        assert have.dirty.all()
        have.refresh()
        want.refresh()
        np.testing.assert_allclose(have.means, want.means, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(have.variances, want.variances, rtol=0.0, atol=1e-10)
        # the empty class is exactly the prior
        assert not have.counts[5].any() and not have.sums[5].any()
        empty = have.class_models[5]
        assert empty.n_points == 0
        if backend == "rff":
            np.testing.assert_array_equal(empty.shared_precision(),
                                          empty.psi * np.eye(state.bank.n_features))
        else:
            assert not have.means[5].any()
            np.testing.assert_array_equal(have.variances[5], 1.0 + 1.0 / state.config.beta)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_removing_what_a_class_lacks_is_refused(self, backend):
        state = initialize(small_store().sequences, small_config(n_classes=4))
        emissions = fresh_emissions(state, backend)
        seq = state.sequences[0]
        emissions.rebuild([seq], [[Segment(0, 10, 3)]])
        counts, sums = emissions.counts.copy(), emissions.sums.copy()
        for seg in (Segment(0, 12, 3), Segment(0, 8, 1)):
            with pytest.raises(ValueError, match=f"class {seg.label}: removing a {seg.stop}-frame "
                                                 f"segment .*bookkeeping"):
                emissions.remove(None, seq, [seg])
            np.testing.assert_array_equal(emissions.counts, counts)
            np.testing.assert_array_equal(emissions.sums, sums)
        emissions.remove(None, seq, [Segment(0, 10, 3)])
        assert not emissions.counts.any()

    def test_rff_rebuild_replaces_earlier_statistics(self):
        state, assignments = emptied_class_corpus()
        fresh = fresh_emissions(state)
        fresh.rebuild(state.sequences, assignments)
        state.emissions.rebuild(state.sequences, assignments)  # holds a chain's statistics
        np.testing.assert_array_equal(state.emissions.counts, fresh.counts)
        np.testing.assert_array_equal(state.emissions.sums, fresh.sums)

    def test_grid_predictive_equals_per_segment_class_models(self):
        # oracle: a standalone ClassModel per class, fed the same segments
        # through add_segment and remove_segment, which never sees the grid
        rng = np.random.default_rng(31)
        n_classes, n_dims, kmax, beta, psi = 4, 3, 24, 10.0, 1.0
        bank = sample_feature_bank(20, 1.0, seed=6)
        emissions = RffEmissions(bank, n_classes, n_dims, kmax, beta, psi)
        oracles = [ClassModel(c, n_dims, 20, beta=beta, psi=psi) for c in range(n_classes)]
        lengths = [rng.integers(8, kmax + 1, size=6) for _ in range(3)]
        sequences = [rng.normal(size=(n_dims, int(n.sum()))) for n in lengths]
        assignments = [[Segment(int(a), int(b), int(rng.integers(n_classes)))
                        for a, b in zip(np.cumsum(n) - n, np.cumsum(n))] for n in lengths]
        for seq, segs in zip(sequences, assignments):
            emissions.add(None, seq, segs)
            for seg in segs:
                oracles[seg.label].add_segment(bank, seq[:, seg.start:seg.stop])
        # empty class 3, and move every third segment to another class
        for seq, segs in zip(sequences, assignments):
            for i, seg in enumerate(segs):
                if seg.label == 3 or i % 3 == 0:
                    frames = seq[:, seg.start:seg.stop]
                    emissions.remove(None, seq, [seg])
                    oracles[seg.label].remove_segment(bank, frames)
                    segs[i] = Segment(seg.start, seg.stop, (seg.label + 1) % 3)
                    emissions.add(None, seq, [segs[i]])
                    oracles[segs[i].label].add_segment(bank, frames)
        assert not emissions.counts[3].any()
        emissions.refresh()
        taus = np.arange(1, kmax + 1, dtype=np.float64)
        for c, oracle in enumerate(oracles):
            means, variances = oracle.predictive(bank, taus)
            for got, want in ((emissions.means[c], means),
                              (emissions.variances[c], variances[:, 0])):
                assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))
        rebuilt = RffEmissions(bank, n_classes, n_dims, kmax, beta, psi)
        rebuilt.rebuild(sequences, assignments)
        np.testing.assert_array_equal(rebuilt.counts, emissions.counts)


def pooled(sequences, assignments, order, label, n_dims):
    """Class ``label``'s positions and frames over the sequences ``order``,
    in that order, then segment order."""
    segs = [(sequences[i], seg) for i in order for seg in assignments[i] if seg.label == label]
    taus = [np.arange(1, seg.stop - seg.start + 1, dtype=np.float64) for _, seg in segs]
    values = [seq[:, seg.start:seg.stop].T for seq, seg in segs]
    return np.concatenate([np.zeros(0)] + taus), np.vstack([np.zeros((0, n_dims))] + values)


class TestExactGpUpdates:
    """``ExactGpEmissions`` solves each class on stand-in points from its counts and sums."""

    def test_classes_equal_a_gp_on_their_pooled_frames(self):
        # oracle: a GpClassData fed each class's real frames, which never sees the grid
        store = small_store(n_sequences=4, seq_length=60)
        state = initialize(store.sequences, small_config(backend="exact-gp"))
        for _ in range(2):
            gibbs_sweep(state)
        emissions = state.emissions
        emissions.refresh()
        positions = np.arange(1, 25, dtype=np.float64)
        for c, data in enumerate(emissions.class_models):
            oracle = GpClassData(2, beta=10.0, lengthscale=1.0)
            oracle.set_points(*pooled(state.sequences, state.assignments, range(4), c, 2))
            assert data.n_points == emissions.counts[c].sum() == oracle.n_points > 0
            means, variances = oracle._predict(positions)
            for got, want in ((emissions.means[c], means), (emissions.variances[c], variances)):
                assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))

    def test_refresh_predicts_exactly_the_dirty_classes_once(self, monkeypatch):
        emissions, rng = filled("exact-gp")
        seq = rng.normal(size=(3, 40))
        emissions.log_emission_tables(seq, 24)
        means, variances = emissions.means.copy(), emissions.variances.copy()
        positions = np.arange(1, 25, dtype=np.float64)
        predicted, grams = [], []
        real_predict, real_factor = GpClassData._predict, rffseg.exact_gp.cho_factor

        def predicting(data, taus):
            np.testing.assert_array_equal(taus, positions)
            predicted.append([c for c, d in enumerate(emissions.class_models) if d is data])
            return real_predict(data, taus)

        def factoring(gram, **kwargs):
            grams.append(gram.shape[0])
            return real_factor(gram, **kwargs)

        monkeypatch.setattr(GpClassData, "_predict", predicting)
        monkeypatch.setattr(rffseg.exact_gp, "cho_factor", factoring)
        for c in (3, 1):
            add_frames(emissions, (c, 9), c, rng.normal(size=(3, 12)))
        emissions.refresh()
        emissions.refresh()
        emissions.log_emission_tables(seq, 24)
        # classes 1 and 3 only, each once: one Gram rebuild and one prediction
        assert predicted == [[1], [3]]
        assert grams == [emissions.class_models[c].n_points for c in (1, 3)]
        for c in (0, 2, 4):
            np.testing.assert_array_equal(emissions.means[c], means[c])
            np.testing.assert_array_equal(emissions.variances[c], variances[c])
        for c in (1, 3):
            want_means, want_variances = real_predict(emissions.class_models[c], positions)
            np.testing.assert_array_equal(emissions.means[c], want_means)
            np.testing.assert_array_equal(emissions.variances[c], want_variances)
            assert not np.array_equal(emissions.means[c], means[c])


class TestSweep:
    def test_degenerate_window_is_a_noop_on_assignments(self):
        store = small_store(n_sequences=1, seq_length=30)
        config = small_config(n_classes=1, kmin=30, kmax=30,
                              mean_length=30.0, iterations=1)
        state = initialize(store.sequences, config)
        before = list(state.assignments[0])
        gibbs_sweep(state)
        assert state.assignments[0] == before

    def test_remove_and_readd_is_identity(self):
        store = small_store()
        config = small_config()
        state = initialize(store.sequences, config)
        snapshot = [
            (st.precision.copy(), st.proj.copy())
            for m in state.emissions.class_models for st in m.stats
        ]
        trans = state.hsmm.transition_counts.copy()
        seq_idx, seq = 1, state.sequences[1]
        segs = state.assignments[seq_idx]
        state.emissions.remove(seq_idx, seq, segs)
        state.hsmm.release_labels([s.label for s in segs])
        state.emissions.add(seq_idx, seq, segs)
        state.hsmm.absorb_labels([s.label for s in segs])
        flat = [
            (st.precision, st.proj)
            for m in state.emissions.class_models for st in m.stats
        ]
        for (p0, b0), (p1, b1) in zip(snapshot, flat):
            assert np.max(np.abs(p0 - p1)) < 1e-6
            assert np.max(np.abs(b0 - b1)) < 1e-6
        assert np.array_equal(trans, state.hsmm.transition_counts)

    def test_audit_holds_after_every_sweep_for_both_backends(self):
        store = small_store(n_sequences=3, seq_length=60)
        for backend in ("rff", "exact-gp"):
            config = small_config(backend=backend, iterations=2, audit=True)
            state = initialize(store.sequences, config)
            for _ in range(config.iterations):
                gibbs_sweep(state)  # audit=True checks inside


def nudge_a_sum(state):
    state.emissions.sums[0, 0, 0] += 1e-3


def count_an_extra_point(state):
    state.emissions.counts[0, 0] += 1


def count_an_extra_transition(state):
    state.hsmm.transition_counts[0, 1] += 1


def count_an_extra_segment(state):
    state.hsmm.class_counts[0] += 1


class TestAudit:
    @pytest.mark.parametrize("backend, damage, message", [
        ("rff", nudge_a_sum, "drifted 1.000e-03 from batch rebuild"),
        ("rff", count_an_extra_point, "class 0: counts"),
        ("exact-gp", nudge_a_sum, "drifted 1.000e-03 from batch rebuild"),
        ("exact-gp", count_an_extra_point, "class 0: counts"),
        ("rff", count_an_extra_transition, "transition counts diverge"),
        ("rff", count_an_extra_segment, "class counts diverge"),
    ], ids=["drift", "n-points", "exact-gp-drift", "exact-gp-n-points", "transitions",
            "class-counts"])
    def test_corrupted_state_is_caught(self, backend, damage, message):
        store = small_store(n_sequences=3, seq_length=60)
        state = initialize(store.sequences, small_config(backend=backend, audit=True))
        gibbs_sweep(state)  # the healthy chain passes its audit
        damage(state)
        with pytest.raises(AuditError, match=message):
            state.audit()


class TestTrain:
    def test_zero_iterations_returns_initial_labels(self):
        store = small_store()
        config = small_config(iterations=0)
        state = initialize(store.sequences, config)
        result = train(store.sequences, config)
        assert result.loglik_trace == []
        for seq_labels, segs in zip(result.labels, state.assignments):
            np.testing.assert_array_equal(
                seq_labels, labels_from_spans(segs, seq_labels.size))

    def test_identical_runs_are_bit_identical(self):
        store = small_store()
        config = small_config()
        a = train(store.sequences, config)
        b = train(store.sequences, config)
        assert a.loglik_trace == b.loglik_trace
        for la, lb in zip(a.labels, b.labels):
            assert np.array_equal(la, lb)

    def test_segmentation_recovers_synthetic_patterns(self):
        store = small_store(n_sequences=6, seq_length=150)
        config = small_config(iterations=5, restarts=4, seed=1)
        result = train_with_restarts(store.sequences, config)
        report = evaluate_nhd(result.labels, store.labels)
        assert report.nhd <= 0.1

    def test_restarts_keep_highest_final_loglik(self):
        store = small_store()
        config = small_config(restarts=3)
        best = train_with_restarts(store.sequences, config)
        assert len(best.restart_logliks) == 3
        assert best.final_loglik == max(best.restart_logliks)
        assert best.restart_seeds == [11, 12, 13]
        winner = best.restart_logliks.index(best.final_loglik)
        assert best.state.config.seed == best.restart_seeds[winner]

    def test_timing_phases_account_for_wall_clock(self):
        store = small_store(n_sequences=6, seq_length=150)
        result = train(store.sequences, small_config(iterations=4))
        timings = result.timings
        phase_sum = sum(timings[k] for k in
                        ("emission", "dp", "stats", "posterior"))
        assert timings["other"] >= 0.0
        assert abs(timings["total"] - phase_sum - timings["other"]) < 1e-9
        assert phase_sum >= 0.95 * timings["total"]

    def test_loglik_trace_length_and_tendency(self):
        store = small_store()
        result = train(store.sequences, small_config(iterations=5))
        assert len(result.loglik_trace) == 5
        # monitored, not asserted hard: last sweep should beat the first
        assert result.loglik_trace[-1] > result.loglik_trace[0]

    def test_shuffle_flag_changes_visit_order_not_validity(self):
        store = small_store()
        config = small_config(shuffle_sequences=True, audit=True)
        result = train(store.sequences, config)
        result.state.audit()


class TestBackendSwap:
    def test_logliks_track_with_large_feature_bank(self):
        # rff at M=2000 approximates the exact-GP emission closely enough
        # that per-sweep total logliks agree within 5% relative
        spec = SyntheticSpec(
            patterns=[PatternSpec(kind="sine", period=12.0, sigma=0.1),
                      PatternSpec(kind="constant", value=0.5, sigma=0.1)],
            n_dims=2, n_sequences=2, seq_length=60, block_min=8,
            block_max=15)
        store = generate_synthetic(spec, seed=5)
        base = dict(n_classes=2, kmin=5, kmax=16, mean_length=10.0,
                    iterations=2, seed=4)
        rff = train(store.sequences,
                    TrainerConfig(backend="rff", n_features=2000, **base))
        exact = train(store.sequences,
                      TrainerConfig(backend="exact-gp", **base))
        for a, b in zip(rff.loglik_trace, exact.loglik_trace):
            assert abs(a - b) / abs(b) < 0.05


def per_class_tables(emissions, seq, kmax):
    """Each class's own ``log_emission_table``, stacked."""
    if emissions.backend_name == "rff":
        return np.stack([m.log_emission_table(emissions.bank, seq, kmax)
                         for m in emissions.class_models])
    return np.stack([data.log_emission_table(seq, kmax)
                     for data in emissions.class_models])


class TestEmissionTables:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stacked_tables_equal_per_class_tables(self, backend):
        store = small_store()
        emissions = train(store.sequences,
                          small_config(backend=backend, n_classes=3)).state.emissions
        assert emissions.emitters() is emissions
        for seq in store.sequences:
            for kmax in (24, 9):
                tables = emissions.log_emission_tables(seq, kmax)
                assert tables.shape == (3, kmax, seq.shape[1])
                np.testing.assert_array_equal(tables,
                                              per_class_tables(emissions, seq, kmax))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("offset", [0.0, 1e4])
    def test_stacked_tables_match_residual_form(self, backend, offset):
        # offset 1e4 with 0.1 residuals: un-normalized data far from zero
        rng = np.random.default_rng(3)
        if backend == "rff":
            emissions = RffEmissions(sample_feature_bank(20, 1.0, seed=8), 3, 3, 25,
                                     beta=10.0, psi=1.0)
        else:
            emissions = ExactGpEmissions(3, 3, 25, beta=10.0, lengthscale=1.0)
        for c in range(3):
            for i in range(4):
                add_frames(emissions, (c, i), c, offset + 0.1 * rng.normal(size=(3, 20)))
        emissions.refresh()
        seq = offset + 0.1 * rng.normal(size=(3, 50))
        taus = np.arange(1, 26, dtype=np.float64)
        tables = emissions.log_emission_tables(seq, 25)
        for c, table in enumerate(tables):
            if backend == "rff":
                means, variances = emissions.class_models[c].predictive(emissions.bank,
                                                                        taus)
            else:
                pairs = [emissions.class_models[c].gp_predictive(t) for t in taus]
                means = np.array([m for m, _ in pairs])
                variances = np.array([v for _, v in pairs])
            # the atol floor is for entries that cross zero, where no
            # relative bound holds; a lost centring is off by about 1e-7
            np.testing.assert_allclose(table, direct_log_table(means, variances, seq),
                                       rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tables_after_train_need_no_refresh(self, backend):
        # the last add of a sweep leaves classes dirty; a table call solves them
        store = small_store()
        emissions = train(store.sequences,
                          small_config(backend=backend, n_classes=3)).state.emissions
        seq = store.sequences[0]
        first = emissions.log_emission_tables(seq, 24)
        emissions.refresh()
        np.testing.assert_array_equal(first, emissions.log_emission_tables(seq, 24))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_more_positions_than_kmax_are_refused(self, backend):
        emissions, rng = filled(backend)
        seq = rng.normal(size=(3, 40))
        with pytest.raises(ValueError, match="25 positions asked of a model of 24"):
            emissions.log_emission_tables(seq, 25)
        np.testing.assert_array_equal(emissions.log_emission_tables(seq, 9),
                                      emissions.log_emission_tables(seq, 24)[:, :9])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_forward_filter_on_backend_equals_table_emitters(self, backend):
        store = small_store()
        state = train(store.sequences, small_config(backend=backend, n_classes=3)).state
        state.emissions.refresh()  # exact-gp's class models are current only after one
        for seq in store.sequences:
            kmax = min(state.hsmm.kmax, seq.shape[1])
            emitters = [TableEmitter(t)
                        for t in per_class_tables(state.emissions, seq, kmax)]
            got = forward_filter(seq, state.emissions.emitters(), state.hsmm)
            for want in (forward_filter(seq, emitters, state.hsmm),
                         forward_from_table(state.emissions.log_emission_tables(seq, kmax),
                                            state.hsmm)):
                np.testing.assert_array_equal(got.log_alpha, want.log_alpha)
                np.testing.assert_array_equal(got.log_norm, want.log_norm)


def filled(backend="rff", n_classes=5, n_dims=3, seed=4):
    """A backend of 24 positions holding a few random segments in every class."""
    rng = np.random.default_rng(seed)
    if backend == "rff":
        emissions = RffEmissions(sample_feature_bank(20, 1.0, seed=seed), n_classes, n_dims,
                                 24, beta=10.0, psi=1.0)
    else:
        emissions = ExactGpEmissions(n_classes, n_dims, 24, beta=10.0, lengthscale=1.0)
    for c in range(n_classes):
        for i in range(3):
            add_frames(emissions, (c, i), c, rng.normal(size=(n_dims, int(rng.integers(8, 25)))))
    return emissions, rng


class TestRffPosterior:
    """The stacked predictive that ``RffEmissions.refresh`` keeps."""

    def test_refresh_solves_exactly_the_dirty_classes_once(self, monkeypatch):
        emissions, rng = filled()
        seq = rng.normal(size=(3, 40))
        emissions.log_emission_tables(seq, 24)
        means, variances = emissions.means.copy(), emissions.variances.copy()
        solved = []
        real = rffseg.trainer.posterior_predictive

        def recording(precision, proj, phi, beta):
            solved.append(proj.copy())
            return real(precision, proj, phi, beta)

        monkeypatch.setattr(rffseg.trainer, "posterior_predictive", recording)
        for c in (3, 1):
            add_frames(emissions, (c, 9), c, rng.normal(size=(3, 12)))
        emissions.refresh()
        emissions.refresh()
        emissions.log_emission_tables(seq, 24)
        # one solve, of classes 1 and 3 only, each once
        assert len(solved) == 1
        np.testing.assert_array_equal(
            solved[0], grid_statistics(emissions.counts[[1, 3]], emissions.sums[[1, 3]],
                                       emissions.bank.position_features(24), 10.0, 1.0)[1])
        for c in (0, 2, 4):
            np.testing.assert_array_equal(emissions.means[c], means[c])
            np.testing.assert_array_equal(emissions.variances[c], variances[c])
        for c in (1, 3):
            assert not np.array_equal(emissions.means[c], means[c])
            assert np.all(emissions.variances[c] <= variances[c] + 1e-12)

    def test_stacked_predictive_equals_class_predictive(self):
        emissions, rng = filled()
        seq = rng.normal(size=(3, 40))
        emissions.log_emission_tables(seq, 24)
        add_frames(emissions, (2, 9), 2, rng.normal(size=(3, 12)))
        emissions.log_emission_tables(seq, 9)  # a prefix: no new positions
        assert emissions.means.shape == (5, 24, 3)
        taus = np.arange(1, 25, dtype=np.float64)
        for c, model in enumerate(emissions.class_models):
            means, variances = model.predictive(emissions.bank, taus)
            np.testing.assert_array_equal(emissions.means[c], means)
            np.testing.assert_array_equal(emissions.variances[c], variances[:, 0])

    def test_class_models_are_standalone_copies_of_the_grid(self):
        emissions, rng = filled()
        seq = rng.normal(size=(3, 40))
        models = emissions.class_models
        assert [m.n_points for m in models] == emissions.counts.sum(axis=1).tolist()
        # a write to a model does not reach the backend
        before = emissions.log_emission_tables(seq, 24)
        models[1].add_segment(emissions.bank, rng.normal(size=(3, 12)))
        np.testing.assert_array_equal(emissions.log_emission_tables(seq, 24), before)
        assert emissions.class_models[1].n_points == models[1].n_points - 12

    def test_disagreeing_precision_names_class_and_dimension(self):
        emissions, _ = filled()
        model = emissions.class_models[1]
        model.stats[2].precision[0, 0] += 1e-9
        with pytest.raises(ValueError, match="class 1: the precision of dimension 2"):
            model.predictive(emissions.bank, 3.0)


class TestSnapshot:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_round_trip_gives_the_same_emission_tables(self, backend):
        store = small_store()
        config = small_config(backend=backend)
        state = train(store.sequences, config).state
        snap = json.loads(json.dumps(snapshot_dict(state)))
        assert np.shape(snap["counts"]) == (config.n_classes, config.kmax)
        assert np.shape(snap["sums"]) == (config.n_classes, config.kmax, 2)
        bank, emissions = emissions_from_snapshot(
            snap, 2, config.beta, config.psi, config.lengthscale)
        seq = store.sequences[0]

        # either backend reloads the counts and sums it trained on, so bit for bit
        def assert_same_tables():
            np.testing.assert_array_equal(emissions.log_emission_tables(seq, config.kmax),
                                          state.emissions.log_emission_tables(seq, config.kmax))
            np.testing.assert_array_equal(emissions.means, state.emissions.means)
            np.testing.assert_array_equal(emissions.variances, state.emissions.variances)
            for have, want in zip(emissions.class_models, state.emissions.class_models):
                assert have.n_points == want.n_points
            draws = [[backward_sample(forward_filter(s, e, state.hsmm), state.hsmm,
                                      np.random.default_rng(seed))
                      for seed in range(3) for s in store.sequences]
                     for e in (emissions, state.emissions)]
            assert draws[0] == draws[1]

        assert_same_tables()
        # the rebuilt statistics keep absorbing segments like the originals
        for emitted in (emissions, state.emissions):
            emitted.add("extra", seq, [Segment(0, config.kmin, 0)])
            emitted.refresh()
        assert_same_tables()

    def test_exact_gp_round_trip_keeps_an_empty_class(self):
        store = small_store()
        config = small_config(backend="exact-gp")
        state = initialize(store.sequences, config)
        state.assignments = [[Segment(s.start, s.stop, 1 if s.label == 0 else s.label)
                              for s in segs] for segs in state.assignments]
        state.emissions.rebuild(state.sequences, state.assignments)
        snap = json.loads(json.dumps(snapshot_dict(state)))
        assert not np.any(snap["counts"][0]) and not np.any(snap["sums"][0])
        bank, emissions = emissions_from_snapshot(
            snap, 2, config.beta, config.psi, config.lengthscale)
        assert emissions.class_models[0].n_points == 0
        seq = store.sequences[0]
        have = emissions.log_emission_tables(seq, config.kmax)
        want = state.emissions.log_emission_tables(seq, config.kmax)
        np.testing.assert_array_equal(have, want)  # class 0 is the prior, on no points

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_counts_that_increase_along_position_are_refused(self, backend):
        # no chain of segments leaves more frames at a later position
        state = initialize(small_store().sequences, small_config(backend=backend))
        snap = snapshot_dict(state)
        snap["counts"][1][5] = snap["counts"][1][4] + 1
        with pytest.raises(ValueError, match=r"^model.counts must not be negative or increase "
                                             r"along position, got class 1: \["):
            emissions_from_snapshot(snap, 2, 10.0, 1.0, 1.0)

    @pytest.mark.parametrize("damage, message", [
        (lambda snap: snap.update(sums=np.ravel(snap["sums"]).tolist()),
         r"model.sums must have shape \(2, 24, None\), got \(\d+,\)"),
        (lambda snap: snap["sums"][0].pop(), r"model.sums must be a rectangular array"),
        (lambda snap: snap["sums"][0][0].__setitem__(1, float("inf")),
         "model.sums must be finite"),
    ], ids=["flat", "one-row-short", "inf"])
    def test_malformed_values_are_refused(self, damage, message):
        state = initialize(small_store().sequences, small_config(backend="exact-gp"))
        snap = snapshot_dict(state)
        damage(snap)
        with pytest.raises(ValueError, match=message):
            emissions_from_snapshot(snap, 2, 10.0, 1.0, 1.0)

    def test_dimension_count_mismatch_names_both(self):
        store = small_store()
        state = initialize(store.sequences, small_config(backend="exact-gp"))
        snap = snapshot_dict(state)
        with pytest.raises(ValueError, match="trained on 2 dimensions, data has 3"):
            emissions_from_snapshot(snap, 3, 10.0, 1.0, 1.0)
