"""Loading, preprocessing, synthetic generation, and NHD evaluation."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import rffseg.data as data_module
from rffseg.data import (
    DataFormatError,
    LoadSchema,
    PatternSpec,
    SyntheticSpec,
    evaluate_nhd,
    generate_synthetic,
    load_sequences,
    preprocess,
    quickstart_spec,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoader:
    def test_loads_490_by_8_file(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(0, 1, size=(490, 8))
        lines = "\n".join(" ".join(f"{v:.6f}" for v in row) for row in data)
        path = write(tmp_path / "seq.txt", lines + "\n")
        store = load_sequences([path])
        assert len(store.sequences) == 1
        assert store.sequences[0].shape == (8, 490)
        np.testing.assert_allclose(store.sequences[0], data.T, atol=1e-6)
        assert store.labels is None

    def test_empty_file_is_an_error(self, tmp_path):
        path = write(tmp_path / "empty.txt", "")
        with pytest.raises(DataFormatError, match="no data rows"):
            load_sequences([path])

    def test_ragged_row_reports_line(self, tmp_path):
        path = write(tmp_path / "bad.txt", "1 2 3\n4 5\n")
        with pytest.raises(DataFormatError, match=r"bad\.txt:2"):
            load_sequences([path])

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = write(tmp_path / "bad.txt", "1 2\n3 oops\n")
        with pytest.raises(DataFormatError, match=r"bad\.txt:2"):
            load_sequences([path])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_cell_reports_line(self, tmp_path, cell):
        path = write(tmp_path / "bad.txt", f"1 2\n# note\n3 4\n5 {cell}\n6 7\n")
        with pytest.raises(DataFormatError, match=r"bad\.txt:4: non-finite"):
            load_sequences([path])

    def test_infinite_label_reports_line(self, tmp_path):
        path = write(tmp_path / "bad.txt", "1 2 0\n3 4 inf\n")
        with pytest.raises(DataFormatError, match=r"bad\.txt:2: bad label"):
            load_sequences([path], LoadSchema(label_column=2))

    @pytest.mark.parametrize("label", ["1e300", "1e19", "-9.3e18"])
    def test_label_outside_int64_reports_line(self, tmp_path, label):
        path = write(tmp_path / "bad.txt", f"1 2 0\n3 4 {label}\n")
        with pytest.raises(DataFormatError,
                           match=rf"bad\.txt:2: bad label column: {label} is outside the int64"):
            load_sequences([path], LoadSchema(label_column=2))

    @pytest.mark.parametrize("text", ["", "# header\n\n  # note\n"], ids=["empty", "comments"])
    def test_file_without_rows_raises_no_warning(self, tmp_path, text):
        path = write(tmp_path / "none.txt", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match=r"none\.txt: no data rows"):
                load_sequences([path])

    def test_label_column_attached_with_matching_length(self, tmp_path):
        path = write(tmp_path / "seq.txt", "0.5 1.5 0\n0.25 2.5 1\n1.0 0.0 1\n")
        store = load_sequences([path], LoadSchema(label_column=2))
        assert store.sequences[0].shape == (2, 3)
        assert store.labels[0].tolist() == [0, 1, 1]

    @pytest.mark.parametrize("reader", ["fast", "line"])
    @pytest.mark.parametrize("fields, message", [
        (dict(label_column=-1), "label_column must be >= 0, got -1"),
        (dict(columns=[0, 2], label_column=2),
         r"label_column 2 is also listed in columns \[0, 2\]"),
    ], ids=["negative", "listed"])
    def test_label_column_is_never_read_as_an_observation(self, tmp_path, monkeypatch,
                                                          reader, fields, message):
        # either schema would return the labels as the last observation row
        path = write(tmp_path / "seq.txt", "0.5 1.5 0\n0.25 2.5 1\n")
        if reader == "line":
            monkeypatch.setattr(data_module, "_read_fast", lambda path, schema: None)
        with pytest.raises(ValueError, match=message):
            load_sequences([path], LoadSchema(**fields))

    def test_negative_column_reaching_the_label_column_is_refused(self, tmp_path):
        # columns=[0, -1] on 3 cells would read the labels as the second row
        path = write(tmp_path / "seq.txt", "0.5 1.5 0\n0.25 2.5 1\n")
        schema = LoadSchema(columns=[0, -1], label_column=2)
        assert data_module._read_fast(path, schema) is None
        with pytest.raises(DataFormatError,
                           match=r"seq\.txt:1: column -1 of 3 is the label column 2"):
            load_sequences([path], schema)

    def test_negative_column_counts_from_the_end_of_the_line(self, tmp_path):
        path = write(tmp_path / "seq.txt", "0.5 1.5 0\n0.25 2.5 1\n")
        store = load_sequences([path], LoadSchema(columns=[0, -2], label_column=2))
        np.testing.assert_array_equal(store.sequences[0], [[0.5, 0.25], [1.5, 2.5]])
        assert store.labels[0].tolist() == [0, 1]

    def test_column_selection(self, tmp_path):
        path = write(tmp_path / "seq.txt", "9 0.5 1.5\n9 0.25 2.5\n")
        store = load_sequences([path], LoadSchema(columns=[1, 2]))
        np.testing.assert_allclose(store.sequences[0],
                                   [[0.5, 0.25], [1.5, 2.5]])

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path / "seq.txt", "# header\n1 2\n\n3 4\n")
        store = load_sequences([path])
        assert store.sequences[0].shape == (2, 2)

    def test_files_load_in_path_order(self, tmp_path):
        a = write(tmp_path / "a.txt", "1\n2\n")
        b = write(tmp_path / "b.txt", "3\n")
        store = load_sequences([b, a])
        assert store.names == [str(b), str(a)]
        assert store.sequences[0].shape == (1, 1)

    def test_repeated_path_is_parsed_once(self, tmp_path, monkeypatch):
        text = "1 2 0\n3 4 1\n5 6 1\n"
        a, b, c = (write(tmp_path / f"{n}.txt", text) for n in "abc")
        schema = LoadSchema(label_column=2)
        calls = []
        parse = data_module._parse_file
        monkeypatch.setattr(data_module, "_parse_file",
                            lambda path, schema: calls.append(path) or parse(path, schema))
        store = load_sequences([a, a, a], schema)
        assert calls == [a]
        assert store.names == [str(a)] * 3
        copies = load_sequences([a, b, c], schema)
        for got, want in zip(store.sequences + store.labels,
                             copies.sequences + copies.labels):
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable

    def test_csv_delimiter(self, tmp_path):
        path = write(tmp_path / "seq.csv", "1,2\n3,4\n")
        store = load_sequences([path], LoadSchema(delimiter=","))
        np.testing.assert_allclose(store.sequences[0], [[1, 3], [2, 4]])


def read_outcome(reader, path, schema):
    """A reader's arrays with their layout, or its error message."""
    try:
        parsed = reader(path, schema)
    except DataFormatError as exc:
        return "error", str(exc)
    if parsed is None:
        return None
    return tuple(None if a is None else (a.dtype.str, a.shape, a.strides, a.tobytes())
                 for a in parsed)


NUMBERS = st.one_of(st.floats(-1e3, 1e3).map(lambda v: f"{v:.17g}"),
                    st.integers(-50, 50).map(str))
CELLS = st.one_of(
    NUMBERS,
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["nan", "-inf", "inf", "1e400", "-1e400", "1e-400", "1_0", "\u0661\u0662",
                     "oops", "", "+.5", "-0", "1e300", "9.3e18", "-9.3e18", "2.7", "-3.5"]))


@st.composite
def delimited_files(draw):
    """The bytes of a small input file and the schema to read it with.

    Each kind of noise (odd cells, ragged rows, trailing comments, odd
    padding) is switched on for a quarter of the files, so many files
    hold only plain numbers or one kind of noise.
    """
    odd_cells, ragged, trailing, odd_pads = (draw(st.integers(0, 3)) == 0 for _ in range(4))
    delimiter = draw(st.sampled_from([None, ","]))
    n_cells = draw(st.integers(1, 4))
    label_column = draw(st.one_of(st.none(), st.integers(0, n_cells)))
    column = st.integers(-2, n_cells).filter(lambda i: i != label_column)
    columns = draw(st.one_of(st.none(), st.lists(column, min_size=1, max_size=3)))
    pad = st.sampled_from(["", "", " ", "\t"] + (["\xa0", "\x1c"] if odd_pads else []))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "row", "row", "blank", "comment"]))
        if kind == "blank":
            lines.append(draw(pad))
        elif kind == "comment":
            lines.append(draw(pad) + "# " + draw(st.sampled_from(["note", "1 2", "a # b"])))
        else:
            width = n_cells + (draw(st.sampled_from([0, -1, 1])) if ragged else 0)
            cells = [draw(CELLS if odd_cells else NUMBERS) for _ in range(max(width, 1))]
            sep = "," if delimiter == "," else " "
            line = draw(pad) + (draw(pad) + sep + draw(pad)).join(cells) + draw(pad)
            if trailing and draw(st.booleans()):
                line += " # trailing"
            lines.append(line)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return text.encode("utf-8"), LoadSchema(delimiter, columns, label_column)


class TestFastReader:
    """``np.loadtxt`` parses a file only where the line reader would agree."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=delimited_files())
    @example(case=(b"1 2 # note\n", LoadSchema()))
    @example(case=(b"1\x1c,2\n", LoadSchema(delimiter=",")))
    @example(case=(b"1 nan\n", LoadSchema()))
    @example(case=(b"1 2 1e300\n", LoadSchema(label_column=2)))
    @example(case=(b"1 2\n", LoadSchema(label_column=2)))
    @example(case=(b"1 2\n3 4\n", LoadSchema(columns=[1], label_column=0)))
    def test_agrees_with_line_reader(self, tmp_path, case):
        content, schema = case
        path = tmp_path / "seq.txt"
        path.write_bytes(content)
        want = read_outcome(data_module._read_lines, path, schema)
        fast = read_outcome(data_module._read_fast, path, schema)
        assert fast is None or fast == want
        assert read_outcome(data_module._parse_file, path, schema) == want

    @pytest.mark.parametrize("text, schema", [
        ("0.5 -1.25 0\n2.0 3.5 1\n", LoadSchema(label_column=2)),
        ("# header\r\n\r\n  # note\r\n1 2\r\n3 4\r\n", LoadSchema()),
        ("1, 2,x\n3 ,4,y\n", LoadSchema(delimiter=",", columns=[1, 0])),
        ("1 2 -7.9\n3 4 9.2e18\n", LoadSchema(label_column=2)),
    ], ids=["label", "comments-crlf", "csv-unused-text", "last-column-label"])
    def test_clean_files_take_the_fast_path(self, tmp_path, text, schema):
        path = write(tmp_path / "seq.txt", text)
        fast = read_outcome(data_module._read_fast, path, schema)
        assert fast is not None
        assert fast == read_outcome(data_module._read_lines, path, schema)


class TestPreprocess:
    def test_identity_when_disabled(self):
        from rffseg.data import SequenceStore

        seqs = [np.array([[0.0, 10.0, 5.0]])]
        store = SequenceStore(seqs, ["s"], None)
        out = preprocess(store, downsample=1, normalize=False)
        np.testing.assert_array_equal(out.sequences[0], seqs[0])

    def test_endpoints_map_to_plus_minus_one(self):
        from rffseg.data import SequenceStore

        store = SequenceStore([np.array([[0.0, 10.0, 5.0]])], ["s"], None)
        out = preprocess(store)
        np.testing.assert_allclose(out.sequences[0], [[-1.0, 1.0, 0.0]])

    def test_constant_dimension_maps_to_zero(self):
        from rffseg.data import SequenceStore

        store = SequenceStore([np.array([[3.0, 3.0], [1.0, 2.0]])], ["s"], None)
        out = preprocess(store)
        np.testing.assert_allclose(out.sequences[0][0], [0.0, 0.0])
        np.testing.assert_allclose(out.sequences[0][1], [-1.0, 1.0])

    def test_statistics_pool_over_all_sequences(self):
        from rffseg.data import SequenceStore

        store = SequenceStore([np.array([[0.0, 1.0]]), np.array([[2.0]])],
                              ["a", "b"], None)
        out = preprocess(store)
        np.testing.assert_allclose(out.sequences[0], [[-1.0, 0.0]])
        np.testing.assert_allclose(out.sequences[1], [[1.0]])

    def test_normalization_is_idempotent(self):
        from rffseg.data import SequenceStore

        rng = np.random.default_rng(1)
        store = SequenceStore([rng.normal(0, 4, size=(3, 50))], ["s"], None)
        once = preprocess(store)
        twice = preprocess(once)
        np.testing.assert_allclose(twice.sequences[0], once.sequences[0],
                                   atol=1e-12)

    def test_downsample_keeps_every_nth_frame_and_label(self):
        from rffseg.data import SequenceStore

        seq = np.arange(10, dtype=float)[None, :]
        labels = [np.arange(10)]
        store = SequenceStore([seq], ["s"], labels)
        out = preprocess(store, downsample=3, normalize=False)
        np.testing.assert_array_equal(out.sequences[0], [[0.0, 3.0, 6.0, 9.0]])
        np.testing.assert_array_equal(out.labels[0], [0, 3, 6, 9])

    def test_record_reapplies_training_statistics(self):
        from rffseg.data import SequenceStore

        train_store = SequenceStore([np.array([[0.0, 10.0]])], ["a"], None)
        trained = preprocess(train_store)
        new_store = SequenceStore([np.array([[5.0, 20.0]])], ["b"], None)
        out = preprocess(new_store, record=trained.record)
        np.testing.assert_allclose(out.sequences[0], [[0.0, 3.0]])

    @pytest.mark.parametrize("downsample", [1, 3])
    @pytest.mark.parametrize("constant", [False, True], ids=["varying", "constant-dimension"])
    def test_scaling_is_byte_and_stride_equal_to_the_formula(self, constant, downsample):
        from rffseg.data import SequenceStore

        rng = np.random.default_rng(5)
        # one Fortran-ordered sequence, as the fast reader returns, one C-ordered
        seqs = [rng.normal(size=(30, 3)).T, rng.normal(size=(3, 41))]
        if constant:
            for seq in seqs:
                seq[1] = 2.5
        out = preprocess(SequenceStore(seqs, ["a", "b"], None), downsample=downsample)
        kept = [seq[:, ::downsample] for seq in seqs]
        stacked = np.hstack(kept)
        mins, maxs = stacked.min(axis=1), stacked.max(axis=1)
        span = maxs - mins
        safe = np.where(span > 0, span, 1.0)
        for have, seq in zip(out.sequences, kept):
            want = 2.0 * (seq - mins[:, None]) / safe[:, None] - 1.0
            want[span == 0, :] = 0.0
            assert (have.dtype, have.shape, have.strides, have.tobytes()) == \
                (want.dtype, want.shape, want.strides, want.tobytes())

    def test_rejects_bad_downsample(self):
        from rffseg.data import SequenceStore

        store = SequenceStore([np.zeros((1, 4))], ["s"], None)
        with pytest.raises(ValueError):
            preprocess(store, downsample=0)


class TestSynthetic:
    def test_every_frame_labeled(self):
        spec = SyntheticSpec(
            patterns=[PatternSpec(kind="sine"), PatternSpec(kind="constant")],
            n_dims=2, n_sequences=10, seq_length=200)
        store = generate_synthetic(spec, seed=1)
        assert len(store.sequences) == 10
        for seq, lab in zip(store.sequences, store.labels):
            assert seq.shape == (2, 200)
            assert lab.shape == (200,)
            assert set(np.unique(lab)) <= {0, 1}

    def test_same_spec_and_seed_reproduce_exactly(self):
        spec = quickstart_spec()
        a = generate_synthetic(spec, seed=9)
        b = generate_synthetic(spec, seed=9)
        for sa, sb in zip(a.sequences, b.sequences):
            assert np.array_equal(sa, sb)
        for la, lb in zip(a.labels, b.labels):
            assert np.array_equal(la, lb)
        c = generate_synthetic(spec, seed=10)
        assert not np.array_equal(a.sequences[0], c.sequences[0])

    def test_noiseless_templates_are_separable(self):
        spec = SyntheticSpec(
            patterns=[PatternSpec(kind="sine", sigma=0.0),
                      PatternSpec(kind="constant", value=0.5, sigma=0.0)],
            n_dims=1, n_sequences=2, seq_length=100, block_min=10,
            block_max=20)
        store = generate_synthetic(spec, seed=2)
        for seq, lab in zip(store.sequences, store.labels):
            flat = seq[0][lab == 1]
            if flat.size:
                assert np.all(flat == 0.5)

    def test_per_sequence_lengths(self):
        spec = SyntheticSpec(
            patterns=[PatternSpec(kind="constant")],
            n_dims=1, n_sequences=3, seq_length=50,
            seq_lengths=[164, 163, 163])
        store = generate_synthetic(spec, seed=0)
        assert [s.shape[1] for s in store.sequences] == [164, 163, 163]
        assert store.total_frames == 490

    def test_invalid_spec_fields_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticSpec(patterns=[]), seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticSpec(
                patterns=[PatternSpec(kind="sine")], block_min=5,
                block_max=4), seed=0)
        with pytest.raises(ValueError):
            PatternSpec(kind="mystery").curve(5, 2)


class TestNhd:
    def test_identical_labels_score_zero(self):
        labels = np.array([0, 0, 1, 2, 2, 1])
        report = evaluate_nhd(labels, labels)
        assert report.nhd == 0.0

    def test_complement_binary_labels_score_zero(self):
        truth = np.array([0, 1, 0, 1, 1, 0])
        report = evaluate_nhd(1 - truth, truth)
        assert report.nhd == 0.0
        assert report.mapping == {0: 1, 1: 0}

    def test_partial_overlap_example(self):
        truth = np.array([1, 1, 2, 2])
        predicted = np.array([3, 3, 3, 4])
        report = evaluate_nhd(predicted, truth)
        assert report.nhd == pytest.approx(0.25)
        assert report.mapping == {3: 1, 4: 2}

    def test_exhaustive_mapping_oracle_on_random_instances(self):
        # oracle: try every injective predicted->truth mapping
        import itertools

        rng = np.random.default_rng(5)
        for _ in range(10):
            truth = rng.integers(0, 3, size=30)
            predicted = rng.integers(0, 3, size=30)
            report = evaluate_nhd(predicted, truth)
            pred_ids = np.unique(predicted)
            truth_ids = list(np.unique(truth)) + [None] * len(pred_ids)
            best = 0
            for perm in itertools.permutations(truth_ids, len(pred_ids)):
                matched = sum(
                    np.sum((predicted == p) & (truth == t))
                    for p, t in zip(pred_ids, perm) if t is not None)
                best = max(best, matched)
            assert report.nhd == pytest.approx(1.0 - best / truth.size)

    def test_invariant_under_relabeling(self):
        rng = np.random.default_rng(6)
        truth = rng.integers(0, 4, size=50)
        predicted = rng.integers(0, 4, size=50)
        base = evaluate_nhd(predicted, truth).nhd
        perm_p = rng.permutation(4)
        perm_t = rng.permutation(4)
        assert evaluate_nhd(perm_p[predicted], truth).nhd == base
        assert evaluate_nhd(predicted, perm_t[truth]).nhd == base

    def test_extra_predicted_classes_count_as_mismatch(self):
        truth = np.array([0, 0, 0, 0])
        predicted = np.array([0, 1, 2, 3])
        report = evaluate_nhd(predicted, truth)
        assert report.nhd == pytest.approx(0.75)

    def test_range_and_errors(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            pred = rng.integers(0, 5, size=40)
            truth = rng.integers(0, 5, size=40)
            assert 0.0 <= evaluate_nhd(pred, truth).nhd <= 1.0
        with pytest.raises(ValueError, match="length"):
            evaluate_nhd(np.zeros(3, dtype=int), np.zeros(4, dtype=int))

    def test_accepts_per_sequence_lists(self):
        report = evaluate_nhd([np.array([0, 0]), np.array([1])],
                              [np.array([5, 5]), np.array([6])])
        assert report.nhd == 0.0
