"""Command-line surface: artifacts, validation, and the bench harness."""

import argparse
import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from rffseg.cli import (
    THREADS_ENV,
    RunConfig,
    _openblas_thread_functions,
    _runconfig_from_args,
    build_parser,
    limit_threads,
    main,
    read_labels,
)
from rffseg.data import DataFormatError
from rffseg.features import FeatureBank
from rffseg.trainer import BACKENDS, ConfigError, TrainerConfig


def run(argv):
    return main([str(a) for a in argv])


def synth_corpus(tmp_path, n_sequences=4, frames=80, seed=42):
    out = tmp_path / "data"
    assert run(["synth", "--out", out, "--preset", "quickstart",
                "--seed", seed, "--sequences", n_sequences,
                "--frames", frames, "--block-min", 10,
                "--block-max", 20]) == 0
    files = sorted(out.glob("synthetic-*.txt"))
    assert len(files) == n_sequences
    return out, files


def stray_sums(model):
    """Empty class 2's last position and give it sums anyway."""
    model["counts"][2][-1] = 0
    model["sums"][2][-1] = [5.0, 5.0]


TRAIN_FLAGS = ["--label-column", 2, "--classes", 3, "--kmin", 8,
               "--kmax", 22, "--mean-length", 14, "--iterations", 3,
               "--seed", 0]


# the flat config echo of model.json, labels.txt, spans.json and result.json
ECHO_KEYS = [
    "alpha", "audit", "backend", "beta", "columns", "data", "delimiter",
    "downsample", "iterations", "kmax", "kmin", "label_column", "lengthscale",
    "mean_length", "n_classes", "n_features", "normalize", "out", "psi",
    "restarts", "seed", "shuffle_sequences", "threads",
]


def verb_parser(verb):
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[verb]


class TestRunConfig:
    def test_model_fields_are_trainer_config_defaults(self):
        assert issubclass(RunConfig, TrainerConfig)
        cfg = RunConfig()
        assert {f.name: getattr(cfg, f.name) for f in fields(TrainerConfig)} == \
            asdict(TrainerConfig(n_classes=11))

    def test_flags_left_out_keep_the_defaults(self):
        args = build_parser().parse_args(["train", "--data", "x", "--out", "y"])
        assert _runconfig_from_args(args) == RunConfig(data=["x"], out="y")

    @pytest.mark.parametrize("verb", ["train", "bench", "segment", "synth"])
    def test_negative_seed_names_the_flag(self, tmp_path, capsys, verb):
        data = [] if verb == "synth" else ["--data", tmp_path / "x.txt"]
        model = ["--model", tmp_path / "model.json"] if verb == "segment" else []
        assert run([verb, *model, *data, "--out", tmp_path / "out", "--seed", -1]) == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("columns", [",", "a", "0,b"])
    def test_bad_column_list_names_the_flag(self, tmp_path, capsys, columns):
        data, files = synth_corpus(tmp_path, n_sequences=2, frames=60)
        assert run(["train", "--data", *files, "--out", tmp_path / "run",
                    "--columns", columns, *TRAIN_FLAGS]) == 2
        assert "--columns" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("verb", ["train", "bench"])
    def test_backend_choices_are_the_trainer_backends(self, verb):
        # train runs one backend; bench runs each one in --backends
        actions = {a.dest: a for a in verb_parser(verb)._actions}
        if verb == "train":
            assert tuple(actions["backend"].choices) == BACKENDS
        else:
            assert tuple(actions["backends"].default.split(",")) == BACKENDS

    def test_model_json_echo_keys(self, tmp_path):
        data, files = synth_corpus(tmp_path, n_sequences=2, frames=60)
        out = tmp_path / "run"
        assert run(["train", "--data", *files, "--out", out, *TRAIN_FLAGS,
                    "--iterations", 1]) == 0
        snap = json.loads((out / "model.json").read_text())
        assert sorted(snap["config"]) == ECHO_KEYS


class TestSynth:
    def test_writes_labeled_corpus(self, tmp_path):
        out, files = synth_corpus(tmp_path)
        meta = json.loads((out / "synth.json").read_text())
        assert meta["label_column"] == 2
        assert meta["frames"] == 4 * 80
        truth = read_labels(out / "truth.txt")
        assert truth.size == 4 * 80

    def test_reproducible(self, tmp_path):
        out1, _ = synth_corpus(tmp_path / "a")
        out2, _ = synth_corpus(tmp_path / "b")
        assert (out1 / "synthetic-000.txt").read_text() == \
            (out2 / "synthetic-000.txt").read_text()


class TestTrain:
    def test_writes_all_artifacts(self, tmp_path):
        data, files = synth_corpus(tmp_path)
        out = tmp_path / "run"
        assert run(["train", "--data", *files, "--out", out,
                    *TRAIN_FLAGS]) == 0
        for name in ("model.json", "labels.txt", "spans.json", "loglik.csv",
                     "result.json"):
            assert (out / name).exists()
        labels = read_labels(out / "labels.txt")
        assert labels.size == 4 * 80
        result = json.loads((out / "result.json").read_text())
        assert result["config"]["n_classes"] == 3
        assert result["config"]["seed"] == 0
        assert "git" in result["build"]
        spans = json.loads((out / "spans.json").read_text())
        assert len(spans["sequences"]) == 4
        for entry in spans["sequences"]:
            assert entry["spans"][0]["start"] == 0
            assert entry["spans"][-1]["end"] == 80

    def test_reruns_are_bit_identical(self, tmp_path):
        data, files = synth_corpus(tmp_path)
        out = tmp_path / "run"
        argv = ["train", "--data", *files, "--out", out, *TRAIN_FLAGS]
        assert run(argv) == 0
        first = {n: (out / n).read_bytes()
                 for n in ("model.json", "labels.txt")}
        assert run(argv) == 0
        assert (out / "model.json").read_bytes() == first["model.json"]
        assert (out / "labels.txt").read_bytes() == first["labels.txt"]

    def test_restart_logliks_are_logged(self, tmp_path):
        data, files = synth_corpus(tmp_path)
        out = tmp_path / "run"
        assert run(["train", "--data", *files, "--out", out, *TRAIN_FLAGS,
                    "--restarts", 3]) == 0
        result = json.loads((out / "result.json").read_text())
        assert len(result["restart_final_logliks"]) == 3
        assert result["restart_seeds"] == [0, 1, 2]
        assert result["final_loglik"] == max(result["restart_final_logliks"])

    def test_window_validation_names_both_fields(self, tmp_path, capsys):
        data, files = synth_corpus(tmp_path)
        code = run(["train", "--data", *files, "--out", tmp_path / "x",
                    "--classes", 2, "--kmin", 25, "--kmax", 10])
        assert code == 2
        err = capsys.readouterr().err
        assert "kmin" in err and "kmax" in err

    @pytest.mark.parametrize("flag, value", [("--mean-length", "nan"), ("--alpha", "inf"),
                                             ("--lengthscale", "inf"), ("--beta", "nan"),
                                             ("--psi", "inf")])
    def test_non_finite_chain_setting_names_the_field(self, tmp_path, capsys, flag, value):
        data, files = synth_corpus(tmp_path)
        assert run(["train", "--data", *files, "--out", tmp_path / "x", *TRAIN_FLAGS,
                    flag, value]) == 2
        err = capsys.readouterr().err
        assert f"{flag[2:].replace('-', '_')} must be finite, got {value}" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("verb", ["train", "segment", "bench"])
    @pytest.mark.parametrize("flags, message", [
        (["--label-column", -1], "--label-column must be >= 0, got -1"),
        (["--label-column", 2, "--columns", "0,2"],
         "--label-column 2 is also listed in --columns '0,2'"),
    ], ids=["negative", "listed"])
    def test_label_column_that_would_be_read_as_data_is_refused(self, tmp_path, capsys,
                                                               verb, flags, message):
        # either way the labels would also be read as an observation row
        data, files = synth_corpus(tmp_path, n_sequences=1)
        model = ["--model", tmp_path / "model.json"] if verb == "segment" else []
        assert run([verb, *model, "--data", *files, "--out", tmp_path / "x",
                    *flags]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert not (tmp_path / "x").exists()

    def test_negative_column_reaching_the_label_column_is_refused(self, tmp_path, capsys):
        # the files hold 2 observation columns and the label: -1 is column 2
        data, files = synth_corpus(tmp_path, n_sequences=1)
        assert run(["train", "--data", *files, "--out", tmp_path / "x", *TRAIN_FLAGS,
                    "--columns=0,-1"]) == 2
        err = capsys.readouterr().err
        assert f"{files[0]}:1: column -1 of 3 is the label column 2" in err
        assert not (tmp_path / "x").exists()

    def test_missing_data_file_fails_cleanly(self, tmp_path, capsys):
        code = run(["train", "--data", tmp_path / "nope.txt",
                    "--out", tmp_path / "x", "--classes", 2])
        assert code != 0

    def test_column_count_mismatch_names_both_files(self, tmp_path, capsys):
        two, three = tmp_path / "two.txt", tmp_path / "three.txt"
        two.write_text("0.1 0.2\n" * 30)
        three.write_text("0.1 0.2 0.3\n" * 30)
        assert run(["train", "--data", two, three, "--out", tmp_path / "run",
                    "--classes", 2]) == 2
        err = capsys.readouterr().err
        assert "files disagree on column count" in err
        assert str(two) in err and str(three) in err
        assert not (tmp_path / "run").exists()

    def test_snapshot_bank_reloads_bit_exactly(self, tmp_path):
        data, files = synth_corpus(tmp_path)
        out = tmp_path / "run"
        assert run(["train", "--data", *files, "--out", out,
                    *TRAIN_FLAGS]) == 0
        snap = json.loads((out / "model.json").read_text())
        bank = FeatureBank.from_dict(snap["model"]["bank"])
        again = FeatureBank.from_dict(
            json.loads((out / "model.json").read_text())["model"]["bank"])
        assert np.array_equal(bank.omegas, again.omegas)
        assert snap["format_version"] == 4
        assert snap["preprocess"]["downsample"] == 1
        counts = np.asarray(snap["model"]["hsmm"]["transition_counts"])
        assert counts.shape == (3, 3)


class TestSegment:
    def test_labels_new_data_with_frozen_model(self, tmp_path):
        data, files = synth_corpus(tmp_path)
        run_dir = tmp_path / "run"
        assert run(["train", "--data", *files, "--out", run_dir,
                    *TRAIN_FLAGS]) == 0
        seg_dir = tmp_path / "seg"
        assert run(["segment", "--model", run_dir / "model.json",
                    "--data", files[0], "--label-column", 2,
                    "--seed", 5, "--out", seg_dir]) == 0
        labels = read_labels(seg_dir / "labels.txt")
        assert labels.size == 80
        echo = json.loads((seg_dir / "spans.json").read_text())["config"]
        assert sorted(echo["segment_config"]) == [
            "columns", "data", "delimiter", "label_column", "out", "seed", "threads"]
        # deterministic given the seed
        seg2 = tmp_path / "seg2"
        assert run(["segment", "--model", run_dir / "model.json",
                    "--data", files[0], "--label-column", 2,
                    "--seed", 5, "--out", seg2]) == 0
        assert np.array_equal(labels, read_labels(seg2 / "labels.txt"))

    @pytest.mark.parametrize("flag", [["--downsample", "3"], ["--no-normalize"]])
    def test_preprocessing_flags_are_a_usage_error(self, capsys, flag):
        # the snapshot's preprocessing record decides how new data is prepared
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["segment", "--model", "m.json", "--data", "x",
                                       "--out", "y", *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_exact_gp_snapshot_round_trips(self, tmp_path):
        data, files = synth_corpus(tmp_path, n_sequences=2, frames=60)
        run_dir = tmp_path / "run"
        assert run(["train", "--data", *files, "--out", run_dir,
                    "--backend", "exact-gp", "--label-column", 2,
                    "--classes", 2, "--kmin", 8, "--kmax", 22,
                    "--mean-length", 14, "--iterations", 2,
                    "--seed", 1]) == 0
        snap = json.loads((run_dir / "model.json").read_text())
        assert snap["model"]["backend"] == "exact-gp"
        # every pooled point is counted once, at its class and position
        assert np.sum(snap["model"]["counts"]) == 2 * 60
        seg_dir = tmp_path / "seg"
        assert run(["segment", "--model", run_dir / "model.json",
                    "--data", files[0], "--label-column", 2,
                    "--seed", 2, "--out", seg_dir]) == 0
        assert read_labels(seg_dir / "labels.txt").size == 60

    def test_unknown_snapshot_version_is_refused(self, tmp_path, capsys):
        data, files = synth_corpus(tmp_path, n_sequences=2)
        run_dir = tmp_path / "run"
        assert run(["train", "--data", *files, "--out", run_dir,
                    *TRAIN_FLAGS]) == 0
        model = run_dir / "model.json"
        snap = json.loads(model.read_text())
        # 1 stored a precision per dimension, 2 one precision per class, 3 one
        # object per class and exact-gp's pooled points
        for version in (1, 2, 3, 99):
            snap["format_version"] = version
            model.write_text(json.dumps(snap))
            capsys.readouterr()
            assert run(["segment", "--model", model, "--data", files[0],
                        "--label-column", 2, "--out", tmp_path / "seg"]) == 2
            err = capsys.readouterr().err
            assert str(model) in err and f"version {version}" in err
            assert not (tmp_path / "seg").exists()

    @pytest.mark.parametrize("backend, normalize, message", [
        ("rff", [], "normalization record covers 2 dimensions, data has 1"),
        ("exact-gp", ["--no-normalize"],
         "snapshot was trained on 2 dimensions, data has 1"),
    ])
    def test_dimension_count_mismatch_is_refused(self, tmp_path, capsys, backend,
                                                 normalize, message):
        data, files = synth_corpus(tmp_path, n_sequences=2, frames=60)
        run_dir = tmp_path / "run"
        assert run(["train", "--data", *files, "--out", run_dir,
                    "--backend", backend, *normalize, *TRAIN_FLAGS]) == 0
        capsys.readouterr()
        assert run(["segment", "--model", run_dir / "model.json",
                    "--data", files[0], "--label-column", 2, "--columns", 0,
                    "--out", tmp_path / "seg"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "seg").exists()

    @pytest.fixture(scope="class")
    def trained_rff(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("trained")
        data, files = synth_corpus(tmp, n_sequences=2)
        assert run(["train", "--data", *files, "--out", tmp / "run",
                    *TRAIN_FLAGS]) == 0
        return files, (tmp / "run" / "model.json").read_text()

    @pytest.mark.parametrize("damage, message", [
        (lambda s: s["model"].update(backend="exact_gp"), "'exact_gp'"),
        (lambda s: s["config"].pop("beta"), "config has no key 'beta'"),
        (lambda s: s["model"].pop("hsmm"), "snapshot model has no key 'hsmm'"),
        (lambda s: s["model"].pop("sums"), "snapshot model has no key 'sums'"),
        (lambda s: s["model"]["counts"][0].__setitem__(-1, -1),
         "model.counts must not be negative or increase along position, got class 0: ["),
        (lambda s: s["model"]["counts"][0].__setitem__(0, 0.5),
         "model.counts must hold integers within int64, got 0.5"),
        (lambda s: [row.pop() for row in s["model"]["counts"]],
         "model.counts must have shape (3, 22), got (3, 21)"),
        (lambda s: s["model"]["sums"][0][0].__setitem__(0, float("nan")),
         "model.sums must be finite"),
        (lambda s: s["model"]["hsmm"]["transition_counts"][0].__setitem__(0, 1e30),
         "hsmm.transition_counts must hold integers within int64, got 1e+30"),
        (lambda s: s["model"]["hsmm"].update(kmin=10.7),
         "hsmm.kmin must hold integers within int64, got 10.7"),
        (lambda s: s["model"]["hsmm"]["class_counts"].__setitem__(0, 2.5),
         "hsmm.class_counts must hold integers within int64, got 2.5"),
        (lambda s: [cell.pop() for row in s["model"]["sums"] for cell in row],
         "snapshot was trained on 1 dimensions, data has 2"),
        (lambda s: s["model"]["counts"].pop(), "model.counts must have shape (3, 22), got (2, 22)"),
        (lambda s: s["model"]["sums"].pop(),
         "model.sums must have shape (3, 22, None), got (2, 22, 2)"),
        (lambda s: [row.pop() for row in s["model"]["sums"]],
         "model.sums must have shape (3, 22, None), got (3, 21, 2)"),
        (lambda s: s["model"]["counts"][1].__setitem__(1, s["model"]["counts"][1][0] + 1),
         "model.counts must not be negative or increase along position, got class 1: ["),
        (lambda s: s["model"]["hsmm"].update(transition_counts=[[1, 0], [0, 1]]),
         "transition_counts must have shape (3, 3) for 3 classes, got (2, 2)"),
        (lambda s: s["model"]["hsmm"]["transition_counts"][0].__setitem__(0, -50),
         "transition_counts must not be negative, got -50"),
        (lambda s: s["model"]["hsmm"]["class_counts"].pop(),
         "class_counts must have shape (3,) for 3 classes, got (2,)"),
        (lambda s: s["model"]["hsmm"].update(kmin=0), "need 1 <= kmin <= kmax, got kmin=0"),
        (lambda s: s["model"]["hsmm"].update(alpha=0), "alpha must be > 0, got 0.0"),
        (lambda s: s["model"]["hsmm"].update(n_classes=0), "n_classes must be >= 1, got 0"),
        (lambda s: s["model"]["hsmm"].update(mean_length=0), "mean_length must be > 0, got 0.0"),
        (lambda s: s["model"]["hsmm"].update(mean_length=float("nan")),
         "mean_length must be finite, got nan"),
        (lambda s: s["model"]["hsmm"].update(mean_length=float("inf")),
         "mean_length must be finite, got inf"),
        (lambda s: s["model"]["hsmm"].update(alpha=float("nan")), "alpha must be finite, got nan"),
        (lambda s: s["model"]["hsmm"].update(alpha=float("inf")), "alpha must be finite, got inf"),
        (lambda s: s["config"].update(beta=float("nan")), "beta must be finite, got nan"),
        (lambda s: s["config"].update(beta=float("inf")), "beta must be finite, got inf"),
        (lambda s: s["config"].update(psi=float("nan")), "psi must be finite, got nan"),
        (lambda s: s["config"].update(psi=float("inf")), "psi must be finite, got inf"),
        (lambda s: s["config"].update(lengthscale=float("nan")),
         "lengthscale must be finite, got nan"),
        (lambda s: s["config"].update(lengthscale=float("inf")),
         "lengthscale must be finite, got inf"),
        (lambda s: s["model"]["hsmm"].update(n_classes=[3]),
         "hsmm.n_classes must have shape (), got (1,)"),
        (lambda s: s["model"]["hsmm"].update(kmax=[30, 31]),
         "hsmm.kmax must have shape (), got (2,)"),
        (lambda s: s["model"]["bank"].update(n_features=20.5),
         "bank.n_features must hold integers within int64, got 20.5"),
        (lambda s: s["model"]["bank"].update(seed=3.7),
         "bank.seed must hold integers within uint64, got 3.7"),
        (lambda s: s.update(model=[]), "snapshot model must be a JSON object, got list"),
        (lambda s: s["preprocess"]["maxs"].pop(),
         "normalization record covers 1 dimensions, data has 2: maxs has shape (1,)"),
        (lambda s: s["preprocess"]["maxs"].__setitem__(0, float("inf")),
         "preprocess.maxs must be finite numbers, got inf"),
        (lambda s: s["preprocess"].update(downsample=1.5),
         "preprocess.downsample must hold integers within int64, got 1.5"),
        (lambda s: s["preprocess"].update(normalized="no"),
         "preprocess.normalized must be true or false, got 'no'"),
        (lambda s: s["model"]["hsmm"].update(mean_length=[15]),
         "hsmm.mean_length must be a number, got [15]"),
        (lambda s: s["model"]["hsmm"].update(alpha="x"), "hsmm.alpha must be a number, got 'x'"),
        (lambda s: s["config"].update(beta="10"), "beta must be a number, got '10'"),
        (lambda s: s["config"].update(psi=None), "psi must be a number, got None"),
        (lambda s: s["model"]["bank"].update(lengthscale=[1.0]),
         "bank.lengthscale must be a number, got [1.0]"),
        (lambda s: s["model"]["bank"].update(lengthscale=float("nan")),
         "bank.lengthscale must be finite, got nan"),
        (lambda s: s["model"]["bank"]["omegas"].__setitem__(0, float("nan")),
         "bank.omegas must be finite"),
        (lambda s: s["model"]["bank"]["phases"].__setitem__(0, float("inf")),
         "bank.phases must be finite"),
        (lambda s: s["preprocess"].update(mins={}),
         "preprocess.mins must be finite numbers, got {}"),
        (lambda s: s["model"]["bank"].update(omegas={}),
         "bank.omegas must be finite numbers, got {}"),
        (lambda s: s["model"].update(sums={}), "model.sums must be finite numbers, got {}"),
        (lambda s: s["model"]["sums"].__setitem__(-1, []),
         "model.sums must be a rectangular array, got row []"),
        (lambda s: s["model"].update(counts=5), "model.counts must have shape (3, 22), got ()"),
        (lambda s: s.update(config=[]), "config must be a JSON object, got list"),
        (lambda s: s["model"].update(bank=[]), "bank must be a JSON object, got list"),
        (lambda s: s["model"].update(hsmm="x"), "hsmm must be a JSON object, got str"),
        (lambda s: s["model"]["sums"][0][0].__setitem__(0, True),
         "model.sums must be finite numbers, got True"),
        (lambda s: s.update(preprocess=None), "preprocess must be a JSON object, got NoneType"),
        (lambda s: s.update(preprocess={}), "preprocess has no key 'normalized'"),
        (lambda s: s.update(preprocess=[]), "preprocess must be a JSON object, got list"),
        (lambda s: s.update(preprocess=0), "preprocess must be a JSON object, got int"),
        (lambda s: s["model"]["bank"].update(omegas="x"),
         "bank.omegas must be finite numbers, got 'x'"),
        (lambda s: s["model"].update(sums="x"), "model.sums must be finite numbers, got 'x'"),
        (lambda s: s["model"]["hsmm"]["transition_counts"][1].pop(),
         "hsmm.transition_counts must be a rectangular array, got row ["),
        (lambda s: s["preprocess"].update(mins=None),
         "preprocess.mins must be finite numbers, got None"),
        (lambda s: s["model"]["hsmm"].pop("alpha"), "hsmm has no key 'alpha'"),
        (lambda s: s["model"]["bank"].pop("seed"), "bank has no key 'seed'"),
        (lambda s: s["preprocess"].update(downsample=0),
         "preprocess.downsample must be >= 1, got 0"),
        (lambda s: s["preprocess"].update(mins=s["preprocess"]["maxs"],
                                                          maxs=s["preprocess"]["mins"]),
         "normalization record's dimension 0 has maxs "),
        (lambda s: stray_sums(s["model"]),
         "model.sums must be 0 where model.counts is 0, got [5.0, 5.0] at class 2, position 22"),
        (lambda s: stray_sums(s["model"]) or s["model"].update(backend="exact-gp"),
         "model.sums must be 0 where model.counts is 0, got [5.0, 5.0] at class 2, position 22"),
    ], ids=["backend-typo", "no-beta", "no-hsmm", "class-without-sums", "grid-count-negative",
            "grid-count-fraction", "grid-counts-short", "grid-sum-nan", "transitions-1e30",
            "kmin-fraction", "class-count-fraction", "sums-dims-short", "one-class-fewer",
            "sums-one-class-fewer", "sums-positions-short", "counts-increase",
            "transitions-2x2", "negative-count", "class-counts-short", "kmin-0", "alpha-0",
            "no-classes", "mean-length-0", "mean-length-nan", "mean-length-inf", "alpha-nan",
            "alpha-inf", "beta-nan", "beta-inf", "psi-nan", "psi-inf", "lengthscale-nan",
            "lengthscale-inf", "n-classes-list", "kmax-list", "n-features-fraction",
            "seed-fraction", "model-list", "maxs-short", "maxs-inf", "downsample-fraction",
            "normalized-string", "mean-length-list", "alpha-string", "beta-string", "psi-null",
            "bank-lengthscale-list", "bank-lengthscale-nan", "omega-nan", "phase-inf",
            "mins-object", "omegas-object", "sums-object", "class-list", "classes-number",
            "config-list", "bank-list", "hsmm-string", "sum-bool", "preprocess-null",
            "preprocess-empty", "preprocess-list", "preprocess-number", "omegas-string",
            "sums-string", "transitions-ragged", "mins-null", "no-alpha", "no-bank-seed",
            "downsample-0", "maxs-below-mins", "stray-sums-rff", "stray-sums-exact-gp"])
    def test_malformed_snapshot_names_the_file(self, tmp_path, capsys, trained_rff,
                                               damage, message):
        files, text = trained_rff
        snap = json.loads(text)
        damage(snap)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(snap))
        capsys.readouterr()
        assert run(["segment", "--model", model, "--data", files[0],
                    "--label-column", 2, "--out", tmp_path / "seg"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: ") and message in err
        assert not (tmp_path / "seg").exists()

    @pytest.mark.parametrize("text, message", [
        ("not json\n", "not a JSON snapshot: Expecting value"),
        ("[1]\n", "snapshot must be a JSON object, got list"),
    ], ids=["not-json", "json-list"])
    def test_unreadable_snapshot_names_the_file(self, tmp_path, capsys, trained_rff,
                                                text, message):
        files, _ = trained_rff
        model = tmp_path / "model.json"
        model.write_text(text)
        capsys.readouterr()
        assert run(["segment", "--model", model, "--data", files[0],
                    "--label-column", 2, "--out", tmp_path / "seg"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: ") and message in err
        assert not (tmp_path / "seg").exists()

    def test_untileable_file_is_named(self, tmp_path, capsys, trained_rff):
        # 5 frames cannot be cut into segments of 8 to 22 frames
        files, text = trained_rff
        short = tmp_path / "short.txt"
        short.write_text("".join(Path(files[0]).read_text().splitlines(True)[:5]))
        model = tmp_path / "model.json"
        model.write_text(text)
        for argv in (["train", *TRAIN_FLAGS],
                     ["bench", *TRAIN_FLAGS, "--trials", 1],
                     ["segment", "--model", model, "--label-column", 2]):
            capsys.readouterr()
            assert run([*argv, "--data", *files, short, "--out", tmp_path / "out"]) == 2
            err = capsys.readouterr().err
            assert f"{short} (5 frames)" in err and "[8, 22]" in err, argv[0]
            assert str(files[0]) not in err
            assert not (tmp_path / "out").exists()

    def test_frozen_model_segments_consistently_with_training(self, tmp_path):
        # labeling the training data again should roughly agree with the
        # training assignment (same patterns, same classes)
        data, files = synth_corpus(tmp_path, n_sequences=6, frames=100)
        run_dir = tmp_path / "run"
        assert run(["train", "--data", *files, "--out", run_dir,
                    *TRAIN_FLAGS, "--restarts", 2]) == 0
        seg_dir = tmp_path / "seg"
        assert run(["segment", "--model", run_dir / "model.json",
                    "--data", *files, "--label-column", 2,
                    "--out", seg_dir]) == 0
        trained = read_labels(run_dir / "labels.txt")
        relabeled = read_labels(seg_dir / "labels.txt")
        assert np.mean(trained == relabeled) > 0.8


class TestEval:
    def test_identical_files_score_zero(self, tmp_path):
        data, files = synth_corpus(tmp_path)
        truth = data / "truth.txt"
        report_path = tmp_path / "report.json"
        assert run(["eval", "--labels", truth, "--truth", truth,
                    "--out", report_path]) == 0
        report = json.loads(report_path.read_text())
        assert report["nhd"] == 0.0

    def test_trained_labels_beat_chance(self, tmp_path):
        data, files = synth_corpus(tmp_path, n_sequences=6, frames=100)
        out = tmp_path / "run"
        assert run(["train", "--data", *files, "--out", out, *TRAIN_FLAGS,
                    "--restarts", 3]) == 0
        report_path = tmp_path / "report.json"
        assert run(["eval", "--labels", out / "labels.txt",
                    "--truth", data / "truth.txt",
                    "--out", report_path]) == 0
        assert json.loads(report_path.read_text())["nhd"] <= 0.2

    def test_mismatched_lengths_fail(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0\n1\n")
        b.write_text("0\n1\n1\n")
        assert run(["eval", "--labels", a, "--truth", b]) == 2
        assert "length" in capsys.readouterr().err

    def test_infinite_label_names_the_line(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text("# rffseg labels\n0\ninf\n")
        with pytest.raises(DataFormatError) as exc:
            read_labels(a)
        assert str(exc.value).startswith(f"{a}:3: bad label")
        assert run(["eval", "--labels", a, "--truth", a]) == 2
        assert f"{a}:3" in capsys.readouterr().err

    def test_label_outside_int64_names_the_line(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text("# rffseg labels\n0\n1e300\n")
        assert run(["eval", "--labels", a, "--truth", a]) == 2
        assert (f"error: {a}:3: bad label: 1e300 is outside the int64 range"
                in capsys.readouterr().err)

    def test_comments_only_file_is_refused(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text("# rffseg labels\n# meta: {}\n")
        assert run(["eval", "--labels", a, "--truth", a, "--out", tmp_path / "r.json"]) == 2
        assert f"error: {a}: no labels found" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


class TestThreads:
    def test_cap_is_read_back_from_both_libraries(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV, raising=False)
        functions = _openblas_thread_functions()
        if not functions:
            pytest.skip("numpy and scipy carry no bundled OpenBLAS here")
        before = [get() for _, get in functions]
        try:
            assert limit_threads(1) == 1
            assert [get() for _, get in functions] == [1] * len(functions)
            assert limit_threads(None) == 1
        finally:
            for (set_threads, _), count in zip(functions, before):
                set_threads(count)
        assert [get() for _, get in functions] == before

    def test_bench_records_the_effective_count(self, tmp_path, monkeypatch):
        monkeypatch.delenv(THREADS_ENV, raising=False)
        before = limit_threads(None)
        if before is None:
            pytest.skip("numpy and scipy carry no bundled OpenBLAS here")
        data, files = synth_corpus(tmp_path, n_sequences=2, frames=60)
        out = tmp_path / "bench"
        try:
            assert run(["bench", "--data", *files, "--out", out,
                        "--label-column", 2, "--classes", 2, "--kmin", 8,
                        "--kmax", 22, "--mean-length", 14, "--iterations", 1,
                        "--backends", "rff", "--trials", 1,
                        "--threads", 1]) == 0
        finally:
            limit_threads(before)
        report = json.loads((out / "bench.json").read_text())
        assert report["environment"]["threads"] == 1

    def test_rejects_non_positive_cap(self, tmp_path, capsys):
        data, files = synth_corpus(tmp_path, n_sequences=2, frames=60)
        assert run(["bench", "--data", *files, "--out", tmp_path / "b",
                    "--label-column", 2, "--classes", 2, "--threads", 0]) == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_environment_errors_name_the_variable(self, monkeypatch, value):
        monkeypatch.setenv(THREADS_ENV, value)
        with pytest.raises(ConfigError, match=THREADS_ENV):
            limit_threads(None)


class TestBench:
    def test_ladder_report_and_phase_accounting(self, tmp_path):
        data, files = synth_corpus(tmp_path, n_sequences=2, frames=60)
        out = tmp_path / "bench"
        assert run(["bench", "--data", *files, "--out", out,
                    "--label-column", 2, "--classes", 2, "--kmin", 8,
                    "--kmax", 22, "--mean-length", 14, "--iterations", 2,
                    "--duplications", "1,3", "--trials", 2,
                    "--seed", 3]) == 0
        report = json.loads((out / "bench.json").read_text())
        assert report["base_frames"] == 120
        frames_seen = {(p["frames"], p["backend"]) for p in report["points"]}
        assert frames_seen == {(120, "rff"), (120, "exact-gp"),
                               (360, "rff"), (360, "exact-gp")}
        for point in report["points"]:
            assert point["trial_count"] == 2
            phases = point["phase_means"]
            core = sum(phases[k] for k in
                       ("emission", "dp", "stats", "posterior"))
            assert core >= 0.95 * phases["total"]
        assert len(report["speedups"]) == 2
        assert report["backends"] == list(BACKENDS)
        assert "backend" not in report["config"] and "restarts" not in report["config"]
        csv_lines = (out / "bench.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "frames,backend,trial,seconds"
        assert len(csv_lines) == 1 + 2 * 2 * 2
        assert (out / "bench.dat").exists()
        assert (out / "bench.gnuplot").exists()

    def test_max_gp_frames_guard_skips_large_exact_runs(self, tmp_path):
        data, files = synth_corpus(tmp_path, n_sequences=2, frames=60)
        out = tmp_path / "bench"
        assert run(["bench", "--data", *files, "--out", out,
                    "--label-column", 2, "--classes", 2, "--kmin", 8,
                    "--kmax", 22, "--mean-length", 14, "--iterations", 1,
                    "--duplications", "1,3", "--trials", 1,
                    "--max-gp-frames", 200]) == 0
        report = json.loads((out / "bench.json").read_text())
        combos = {(p["frames"], p["backend"]) for p in report["points"]}
        assert (360, "exact-gp") not in combos
        assert (360, "rff") in combos
        assert [s["frames"] for s in report["speedups"]] == [120]

    def test_rejects_bad_duplications(self, tmp_path, capsys):
        data, files = synth_corpus(tmp_path, n_sequences=2, frames=60)
        # a repeated rung would be two points pooling the same trials
        for rungs in ("0,2", "1,1", "1,a"):
            capsys.readouterr()
            assert run(["bench", "--data", *files, "--out", tmp_path / "b",
                        "--classes", 2, "--duplications", rungs]) == 2
            assert "--duplications" in capsys.readouterr().err
            assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("backends", [",", "rff,rff", "rff,exactgp"],
                             ids=["empty", "repeated", "unknown"])
    def test_rejects_bad_backends(self, tmp_path, capsys, backends):
        data, files = synth_corpus(tmp_path, n_sequences=2, frames=60)
        capsys.readouterr()
        assert run(["bench", "--data", *files, "--out", tmp_path / "b",
                    "--classes", 2, "--backends", backends]) == 2
        assert "--backends" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("flag", [["--backend", "rff"], ["--restarts", "2"]])
    def test_train_only_flags_are_a_usage_error(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bench", "--data", "x", "--out", "y", *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err

    @pytest.mark.parametrize("trials", [0, -1])
    def test_rejects_non_positive_trials(self, tmp_path, capsys, trials):
        data, files = synth_corpus(tmp_path, n_sequences=2, frames=60)
        assert run(["bench", "--data", *files, "--out", tmp_path / "b",
                    "--classes", 2, "--trials", trials]) == 2
        assert "--trials" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()
