import concurrent.futures
import csv
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from contextlib import suppress
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bottletree import coder, entropy, sweep, verify
from bottletree.cli import build_parser, main
from bottletree.datasets import (Dataset, gen_blobs, gen_regression, load_csv, save_csv,
                                 subsample_train)
from bottletree.sweep import ExperimentSpec, run_sweep
from bottletree.training import config_for
from bottletree.verify import ALL_CHECKS, run_checks


@pytest.fixture(scope="module")
def blob_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "blobs.csv"
    rc = main(["gen", "blobs", "--classes", "3", "--n", "120", "--dim", "5",
               "--spread", "0.4", "--seed", "1", "--out", str(path)])
    assert rc == 0
    return str(path)


@pytest.fixture(scope="module")
def regression_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "reg.csv"
    rc = main(["gen", "regression", "--n", "120", "--dim", "4", "--lo", "0",
               "--hi", "5", "--noise-std", "0.2", "--seed", "2",
               "--out", str(path)])
    assert rc == 0
    return str(path)


@pytest.fixture(scope="module")
def negative_label_csv(tmp_path_factory):
    """Seven rows of integer labels, one of them a train row's -1."""
    path = tmp_path_factory.mktemp("data") / "negative.csv"
    split = np.array(["train"] * 3 + ["dev"] * 2 + ["test"] * 2)
    X = np.arange(14.0).reshape(7, 2)
    save_csv(Dataset(X, np.array([-1, 0, 1, 0, 1, 0, 1]), split, "negative"), path)
    return str(path)


def gradient_overflow_blobs():
    """Blobs whose first 16 train rows hold features of +-1.7e308, in every
    sign pattern.  With hidden widths 1,1 (``GRADIENT_OVERFLOW``), the unit
    of the first hidden layer reaches +inf on the rows whose signs match
    its weights, and the second layer's negative weight sends that to -inf,
    which its relu zeroes: the loss stays finite, and the second layer's
    weight gradient, inf times the relu's zero, is nan."""
    ds = gen_blobs(3, 120, 2, spread=0.4, seed=1)
    big = 1.7e308
    patterns = [[big, big], [-big, -big], [big, -big], [-big, big]]
    for i, row in enumerate(ds.indices("train")[:16]):
        ds.X[row] = patterns[i % 4]
    return ds


@pytest.fixture(scope="module")
def gradient_overflow_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "overflow.csv"
    save_csv(gradient_overflow_blobs(), path)
    return str(path)


def with_src(env: dict) -> dict:
    """``env`` with this checkout's ``src`` first on PYTHONPATH, for a child ``bottletree``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**env, "PYTHONPATH": os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))}


FAST = ["--epochs", "3", "--patience", "2", "--batch-size", "16",
        "--hidden", "8", "--lr", "0.01"]
# Seed 2's init has the signs the fixture above needs, at step 1.
GRADIENT_OVERFLOW = ["--task", "classification", "--seed", "2", *FAST, "--hidden", "1,1"]


class TestGen:
    def test_blobs_row_count(self, blob_csv):
        ds = load_csv(blob_csv)
        assert ds.n == 120
        assert ds.is_classification

    def test_regression_labels_in_range(self, regression_csv):
        ds = load_csv(regression_csv)
        assert ds.y.min() >= 0.0 and ds.y.max() <= 5.0

    def test_missing_required_flag_exits_one_without_file(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        rc = main(["gen", "blobs", "--n", "10", "--dim", "3", "--seed", "0",
                   "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", [["blobs", "--classes", "2"],
                                      ["regression", "--lo", "0", "--hi", "5"]],
                             ids=["blobs", "regression"])
    def test_zero_features_exit_two_without_file(self, kind, tmp_path, capsys):
        out = tmp_path / "never.csv"
        rc = main(["gen", *kind, "--n", "10", "--dim", "0", "--seed", "0", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "need at least 1 feature, got dim=0" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, flags, message", [
        (["blobs", "--classes", "2"], ["--spread", "nan"], "spread must be positive and finite"),
        (["blobs", "--classes", "2"], ["--spread", "inf"], "spread must be positive and finite"),
        (["regression", "--lo", "0", "--hi", "5"], ["--noise-std", "nan"],
         "noise_std must be non-negative and finite"),
        (["regression", "--lo=-inf", "--hi", "5"], [], "need finite lo < hi"),
    ], ids=["nan-spread", "inf-spread", "nan-noise-std", "infinite-lo"])
    def test_non_finite_values_exit_two_without_file(self, kind, flags, message, tmp_path,
                                                     capsys):
        # each of these once wrote a CSV that load_csv rejects
        out = tmp_path / "never.csv"
        rc = main(["gen", *kind, "--n", "20", "--dim", "3", "--seed", "0", *flags,
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_draws_exit_two_without_file(self, tmp_path, capsys):
        # a finite spread whose draws overflow to inf once wrote a CSV load_csv rejects
        out = tmp_path / "never.csv"
        rc = main(["gen", "blobs", "--classes", "2", "--n", "20", "--dim", "3",
                   "--spread", "1e308", "--seed", "0", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "cannot save non-finite features or labels" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_refused_data_leaves_no_new_directory(self, tmp_path):
        # the output's directory is made only once the data can be saved
        out = tmp_path / "newdir" / "x.csv"
        assert main(["gen", "blobs", "--classes", "2", "--n", "20", "--dim", "3",
                     "--spread", "1e308", "--seed", "0", "--out", str(out)]) == 2
        assert not out.parent.exists()

    def test_zero_rows_exit_two_without_file(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        rc = main(["gen", "regression", "--lo", "0", "--hi", "5", "--n", "0", "--dim", "3",
                   "--seed", "0", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "need at least 1 row, got n=0" in capsys.readouterr().err

    def test_out_env_var_sets_default_dir(self, blob_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("BOTTLETREE_OUT", str(tmp_path / "envout"))
        rc = main(["gen", "blobs", "--classes", "2", "--n", "20", "--dim", "3",
                   "--seed", "3"])
        assert rc == 0
        files = os.listdir(tmp_path / "envout")
        assert any(f.endswith(".csv") for f in files)


# Train flags no run can use, each with the fragment of its error message.
UNUSABLE_TRAIN_FLAGS = {
    "no-epochs": (["--epochs", "0", "--patience", "0"], "epochs must be >= 1"),
    "negative-lr": (["--lr", "-1"], "lr must be positive and finite"),
    "zero-lr": (["--lr", "0"], "lr must be positive and finite"),
    "nan-lr": (["--lr", "nan"], "lr must be positive and finite"),
    "zero-width": (["--hidden", "0"], "hidden widths must be >= 1"),
    "zero-second-width": (["--hidden", "8,0"], "hidden widths must be >= 1"),
    "nan-beta": (["--beta", "nan"], "beta and gamma must be finite"),
    "inf-gamma": (["--gamma", "inf"], "beta and gamma must be finite"),
    "negative-patience": (["--patience", "-1"], "patience must be >= 0"),
    "negative-seed": (["--seed", "-1"], "seed must be >= 0"),  # sweep: --seeds, a prefix
}
# A sweep also takes grids, and at one time ran flags that train rejected.
UNUSABLE_SWEEP_FLAGS = {
    **UNUSABLE_TRAIN_FLAGS,
    "batch-of-one": (["--batch-size", "1"], "batch_size must be >= 2"),
    "nan-grid": (["--gammas", "0", "nan"], "beta and gamma must be finite"),
    "noise-above-one": (["--noise-rates", "0.2", "1.5"], "noise rates must lie in [0, 1]"),
    "negative-noise": (["--noise-rates", "-0.1"], "noise rates must lie in [0, 1]"),
    "nan-noise": (["--noise-rates", "nan"], "noise rates must lie in [0, 1]"),
    "zero-fraction": (["--fractions", "0"], "fractions must lie in (0, 1]"),
    "fraction-above-one": (["--fractions", "0.5", "1.5"], "fractions must lie in (0, 1]"),
    "zero-jobs": (["--jobs", "0"], "jobs must be >= 1"),
    "negative-jobs": (["--jobs", "-1"], "jobs must be >= 1"),
    "negative-perturb-seed": (["--perturb-seed", "-1"], "perturb_seed must be >= 0"),
}
# Data with a split below what a run needs: (gen flags, task, the train
# fraction a sweep cell keeps, the error).  Each once trained, then exited 2
# leaving an empty output directory, or, in a sweep, exited 0.
SHORT_SPLITS = {
    "one-test-row": (["blobs", "--classes", "2", "--n", "5", "--dim", "3", "--seed", "0"],
                     "classification", None, "at least 2 test rows, got 1"),
    "one-dev-row-regression": (["regression", "--n", "6", "--dim", "3", "--lo", "0",
                                "--hi", "1", "--seed", "0"],
                               "regression", None, "at least 2 dev rows, got 1"),
    "one-train-row": (["blobs", "--classes", "2", "--n", "60", "--dim", "3", "--seed", "0"],
                      "classification", 0.03, "at least 2 train rows, got 1"),  # 1 of 36
}


def short_split_csv(tmp_path, case) -> str:
    path = tmp_path / "data.csv"
    assert main(["gen", *SHORT_SPLITS[case][0], "--out", str(path)]) == 0
    return str(path)


def recording(calls: list, function):
    """``function``, appending each call's (args, kwargs) to ``calls``."""
    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return function(*args, **kwargs)
    return record


# Softening temperatures no regression run can use, with soft or hard labels.
UNUSABLE_TAU = pytest.mark.parametrize("tau", ["0", "-1", "nan", "inf"])
SOFT_OR_HARD = pytest.mark.parametrize("labels", [[], ["--hard-labels"]], ids=["soft", "hard"])


class TestTrain:
    @pytest.mark.parametrize("case", list(UNUSABLE_TRAIN_FLAGS))
    def test_unusable_flags_exit_two_without_files(self, blob_csv, tmp_path, capsys, case):
        flags, message = UNUSABLE_TRAIN_FLAGS[case]
        out = tmp_path / "run"
        assert main(["train", "--data", blob_csv, "--task", "classification",
                     "--out-dir", str(out), *FAST, *flags]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @UNUSABLE_TAU
    @SOFT_OR_HARD
    def test_unusable_temperature_exits_two_without_files(self, regression_csv, tmp_path,
                                                          capsys, tau, labels):
        out = tmp_path / "run"
        assert main(["train", "--data", regression_csv, "--task", "regression",
                     "--tau", tau, *labels, "--out-dir", str(out), *FAST]) == 2
        err = capsys.readouterr().err
        assert "temperature must be positive and finite" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("case", list(SHORT_SPLITS))
    def test_short_split_exits_two_without_files(self, tmp_path, capsys, case):
        _, task, fraction, message = SHORT_SPLITS[case]
        data, out = short_split_csv(tmp_path, case), tmp_path / "run"
        if fraction:  # the train split the sweep's fraction cell gets
            save_csv(subsample_train(load_csv(data), fraction, seed=0), data)
        assert main(["train", "--data", data, "--task", task, "--out-dir", str(out),
                     *FAST]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_class_label_exits_two_without_files(self, negative_label_csv, tmp_path,
                                                          capsys):
        # once rejected by hard_assignment after the output directory was made
        out = tmp_path / "run"
        assert main(["train", "--data", negative_label_csv, "--task", "classification",
                     "--out-dir", str(out), *FAST]) == 2
        assert "class labels must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_integer_labels_train_as_regression(self, negative_label_csv, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--data", negative_label_csv, "--task", "regression",
                     "--out-dir", str(out), *FAST]) == 0
        assert (out / "report.json").exists()

    def test_untyped_flags_leave_every_default_to_the_library(self, blob_csv, tmp_path,
                                                              monkeypatch):
        calls = []
        monkeypatch.setattr("bottletree.cli.config_for", recording(calls, config_for))
        assert main(["train", "--data", blob_csv, "--task", "classification",
                     "--out-dir", str(tmp_path / "run")]) == 0
        assert [kwargs for _, kwargs in calls] == [{}]

    def test_epoch_budget_below_the_default_patience_runs(self, blob_csv, tmp_path):
        # patience >= epochs only means early stopping never fires; this run
        # once exited 2 about the default patience of 5, a flag not typed
        out = tmp_path / "run"
        assert main(["train", "--data", blob_csv, "--task", "classification",
                     "--epochs", "2", "--out-dir", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["config"]["patience"] == 5
        assert len((out / "history.csv").read_text().splitlines()) == 1 + 2

    @pytest.mark.parametrize("flags", [["--hi", "inf"], ["--lo=-1e308", "--hi", "1e308"]],
                             ids=["inf-hi", "overflowing-span"])
    def test_non_finite_bin_centers_exit_two_without_files(self, regression_csv, tmp_path,
                                                           capsys, flags):
        # once rejected by soften after the output directory was made
        out = tmp_path / "run"
        assert main(["train", "--data", regression_csv, "--task", "regression", *flags,
                     "--out-dir", str(out), *FAST]) == 2
        assert "need finite lo < hi" in capsys.readouterr().err
        assert not out.exists()

    def test_writes_report_and_history(self, blob_csv, tmp_path):
        out = tmp_path / "run"
        rc = main(["train", "--data", blob_csv, "--task", "classification",
                   "--gamma", "0", "--seed", "0", "--out-dir", str(out), *FAST])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["kind"] == "classification"
        assert 0.0 <= report["macro_f1"] <= 1.0
        assert report["config"]["gamma"] == 0.0
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,task,kl,se,total,dev_metric"

    def test_byte_identical_reports_across_invocations(self, blob_csv, tmp_path):
        args = ["train", "--data", blob_csv, "--task", "classification",
                "--gamma", "0.5", "--seed", "7", *FAST]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main([*args, "--out-dir", str(out1)]) == 0
        assert main([*args, "--out-dir", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()

    def test_writes_loadable_checkpoint(self, blob_csv, tmp_path):
        out = tmp_path / "ckpt"
        rc = main(["train", "--data", blob_csv, "--task", "classification",
                   "--seed", "3", "--out-dir", str(out), *FAST])
        assert rc == 0
        doc = json.loads((out / "model.json").read_text())
        assert doc["seed"] == 3
        assert doc["latent_dim"] == 3  # class count of the blob fixture
        assert doc["hidden"] == [8]

    def test_regression_hard_labels_ablation(self, regression_csv, tmp_path):
        out = tmp_path / "hard"
        rc = main(["train", "--data", regression_csv, "--task", "regression",
                   "--bins", "5", "--hard-labels", "--seed", "0",
                   "--out-dir", str(out), *FAST])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["kind"] == "regression"
        assert report["config"]["task"]["soft_labels"] is False
        assert report["spearman"] is not None

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_csv_without_a_feature_column_exits_two_before_writing(self, tmp_path, capsys,
                                                                   command):
        # once loaded as X of shape (n, 0): a constant model, and exit 0
        data, out = tmp_path / "labels.csv", tmp_path / "out"
        data.write_text("split,y\n" + "".join(f"{tag},{i % 3}\n" for i, tag in enumerate(
            ["train"] * 40 + ["dev"] * 10 + ["test"] * 10)))
        assert main([command, "--data", str(data), "--task", "classification",
                     "--out-dir", str(out), *FAST]) == 2
        assert "line 1: header names no feature column" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_data_file_is_runtime_error(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope.csv"),
                   "--task", "classification", *FAST])
        assert rc == 2

    def test_gradient_blow_up_exits_two_with_dump(self, gradient_overflow_csv, tmp_path,
                                                  capsys):
        out = tmp_path / "blown"
        rc = main(["train", "--data", gradient_overflow_csv, "--out-dir", str(out),
                   *GRADIENT_OVERFLOW])
        assert rc == 2
        dump = json.loads((out / "diverged.json").read_text())
        assert dump["step"] == 1
        assert dump["what"] == "gradient"
        assert dump["parameter"] == {"row": 0, "layer": 1, "tensor": "weight", "index": [0, 0]}
        assert np.isfinite(dump["breakdown"]["total"])  # the loss itself is finite
        err = capsys.readouterr().err
        assert ("diverged at step 1 (non-finite gradient in layer 1 weight[0, 0] of stack "
                "row 0)") in err
        assert "Traceback" not in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("data,flags,what", [
        ("regression_csv", ["--task", "regression", "--lr", "1e100", "--hidden", "8,8,8"],
         "embedding"),
        ("blob_csv", ["--task", "classification", "--lr", "1e200"], "softmax input"),
    ], ids=["latent", "logits"])
    def test_non_finite_forward_exits_two_with_dump(self, request, tmp_path, capsys,
                                                    data, flags, what):
        # The embeddings reach inf before the loss is formed (the entropy's
        # finiteness check), or the logits do (the softmax's).
        out = tmp_path / "overflow"
        rc = main(["train", "--data", request.getfixturevalue(data), "--seed", "0",
                   "--out-dir", str(out), *FAST, *flags])
        assert rc == 2
        assert os.listdir(out) == ["diverged.json"]
        assert json.loads((out / "diverged.json").read_text()) == {
            "breakdown": {}, "parameter": None, "step": 2, "what": what}
        err = capsys.readouterr().err
        assert f"diverged at step 2 (non-finite {what})" in err and "Traceback" not in err

    def test_diverged_train_prints_only_its_own_line(self, blob_csv, tmp_path):
        # no warning filter: numpy's overflow warning, naming a source line,
        # once came before the divergence line
        out = tmp_path / "diverged"
        done = subprocess.run([sys.executable, "-m", "bottletree", "train", "--data", blob_csv,
                               "--task", "classification", "--lr", "1e200",
                               "--out-dir", str(out)],
                              env=with_src(dict(os.environ)), capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 2
        assert done.stderr == ("training diverged at step 2 (non-finite softmax input); "
                               f"dump at {out / 'diverged.json'}\n")

    @staticmethod
    def out_of_range_train(tmp_path, *flags):
        """stderr of a regression ``train`` whose labels leave its --lo/--hi."""
        data = tmp_path / "r.csv"
        assert main(["gen", "regression", "--n", "80", "--dim", "3", "--lo", "0", "--hi", "5",
                     "--seed", "0", "--out", str(data)]) == 0
        done = subprocess.run([sys.executable, "-m", "bottletree", "train", "--data", str(data),
                               "--task", "regression", "--lo", "3", "--hi", "4", "--epochs", "2",
                               *flags, "--out-dir", str(tmp_path / "out")],
                              env=with_src(dict(os.environ)), capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0
        return done.stderr

    def test_library_warning_prints_one_line(self, tmp_path):
        # no warning filter: softbins' range warning once printed its source
        # path and code line
        assert self.out_of_range_train(tmp_path) == (
            "bottletree: UserWarning: labels outside declared range [3.0, 4.0]\n")

    def test_hard_labels_warn_of_the_range_as_soft_ones_do(self, tmp_path):
        # hard bins once came from their own distances, without the range check
        assert self.out_of_range_train(tmp_path, "--hard-labels") == (
            "bottletree: UserWarning: labels outside declared range [3.0, 4.0]\n")

    def test_clean_rerun_removes_stale_divergence_dump(self, blob_csv, gradient_overflow_csv,
                                                       tmp_path):
        out = ["--out-dir", str(tmp_path)]
        assert main(["train", "--data", gradient_overflow_csv, *out, *GRADIENT_OVERFLOW]) == 2
        assert main(["train", "--data", blob_csv, *out, *GRADIENT_OVERFLOW]) == 0
        assert sorted(os.listdir(tmp_path)) == ["history.csv", "model.json", "report.json"]

    def test_diverging_rerun_removes_stale_outcome(self, blob_csv, gradient_overflow_csv,
                                                   tmp_path):
        out = ["--out-dir", str(tmp_path)]
        assert main(["train", "--data", blob_csv, *out, *GRADIENT_OVERFLOW]) == 0
        assert main(["train", "--data", gradient_overflow_csv, *out, *GRADIENT_OVERFLOW]) == 2
        assert os.listdir(tmp_path) == ["diverged.json"]
        assert (tmp_path / "diverged.json").read_text().endswith("}\n")

    def test_memory_error_exits_two_without_traceback(self, blob_csv, tmp_path,
                                                      monkeypatch, capsys):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 GiB")

        monkeypatch.setattr("bottletree.cli.train", out_of_memory)
        rc = main(["train", "--data", blob_csv, "--task", "classification",
                   "--out-dir", str(tmp_path), *FAST])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bottletree: MemoryError: Unable to allocate" in err
        assert "Traceback" not in err

    def test_task_mismatch_is_runtime_error(self, regression_csv, tmp_path):
        rc = main(["train", "--data", regression_csv, "--task", "classification",
                   "--out-dir", str(tmp_path), *FAST])
        assert rc == 2

    def test_unset_blas_threads_give_the_bytes_of_one_thread(self, tmp_path):
        """A regression ``train`` writes the same bytes with the BLAS thread
        variables unset as with them set to 1.  With OpenBLAS's default of
        one thread per core, this run's ``history.csv`` and ``model.json``
        differ in their last digits on two cores.  On one core the two runs
        are the same run, so there the test cannot tell them apart."""
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = with_src({k: v for k, v in os.environ.items() if k not in names})

        def cli(*args, **extra_env):
            subprocess.run([sys.executable, "-m", "bottletree", *map(str, args)],
                           env={**env, **extra_env}, check=True, capture_output=True,
                           timeout=120)

        data = tmp_path / "reg.csv"
        cli("gen", "regression", "--n", 6000, "--dim", 64, "--lo", 0, "--hi", 5,
            "--seed", 1, "--out", data)
        runs = []
        for extra_env in ({}, dict.fromkeys(names, "1")):
            out = tmp_path / f"run{len(runs)}"
            cli("train", "--data", data, "--task", "regression", "--lo", 0, "--hi", 5,
                "--hidden", "256,128", "--batch-size", 1024, "--epochs", 3,
                "--patience", 3, "--out-dir", out, **extra_env)
            runs.append({name: (out / name).read_bytes()
                         for name in ("history.csv", "model.json", "report.json")})
        assert runs[0] == runs[1]


# ``bottletree`` with ``sweep.run_cell`` patched in the child: the gamma=1 and
# gamma=10 jobs wait until the gamma=0 group's two runs are on disk, then
# gamma=1 sends SIGKILL to its own process.  If the runs never appear both run
# normally, and the exit code gives it away.
KILLING_SWEEP = """
import os, signal, sys, time
from bottletree import sweep
from bottletree.cli import main

run_cell, runs = sweep.run_cell, os.path.join(sys.argv[sys.argv.index("--out-dir") + 1], "runs")

def killing_run_cell(perturbation, configs):
    deadline = time.monotonic() + 30
    while configs[0].gamma != 0.0 and time.monotonic() < deadline:
        if len([f for f in os.listdir(runs) if f.endswith(".json")]) == 2:
            if configs[0].gamma == 1.0:
                os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(0.02)
    return run_cell(perturbation, configs)

sweep.run_cell = killing_run_cell
sys.exit(main(sys.argv[1:]))
"""


def check_killed_sweep(blob_csv: str, out: Path, jobs: str) -> None:
    """Run ``KILLING_SWEEP`` in real forked workers: the sweep exits 2 with the
    gamma=0 runs written and every other cell in ``errors.json``."""
    done = subprocess.run([sys.executable, "-c", KILLING_SWEEP, "sweep", "--data", blob_csv,
                           "--task", "classification", "--gammas", "0", "1", "10",
                           "--seeds", "0", "1", "--jobs", jobs, "--out-dir", str(out), *FAST],
                          env=with_src(dict(os.environ)), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 2, done.stderr
    assert "WorkerCrashed" in done.stderr
    assert sorted(os.listdir(out / "runs")) == ["run_b0.01_g0_pnone_s0.json",
                                                "run_b0.01_g0_pnone_s1.json"]
    errors = json.loads((out / "errors.json").read_text())
    # the dead worker's cells and the unfinished ones
    assert [e["cell"] for e in errors] == ["run_b0.01_g1_pnone_s0", "run_b0.01_g1_pnone_s1",
                                           "run_b0.01_g10_pnone_s0", "run_b0.01_g10_pnone_s1"]
    assert all(e["error"].startswith("BrokenProcessPool: ") for e in errors)
    for name in ("runs.csv", "aggregate.csv"):
        with open(out / name) as fh:
            assert {r["gamma"] for r in csv.DictReader(fh)} == {"0.0"}


class TestSweep:
    def test_grid_counts_and_aggregates(self, blob_csv, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--data", blob_csv, "--task", "classification",
                   "--gammas", "0", "1", "--seeds", "0", "1", "2",
                   "--out-dir", str(out), *FAST])
        assert rc == 0
        run_files = os.listdir(out / "runs")
        assert len(run_files) == 6  # 2 gammas x 3 seeds

        with open(out / "runs.csv") as fh:
            runs = list(csv.DictReader(fh))
        f1_rows = [r for r in runs if r["metric"] == "macro_f1"]
        assert len(f1_rows) == 6

        with open(out / "aggregate.csv") as fh:
            agg = list(csv.DictReader(fh))
        cell = [r for r in agg if r["metric"] == "macro_f1" and r["gamma"] == "1.0"]
        assert len(cell) == 1
        values = [float(r["value"]) for r in f1_rows if r["gamma"] == "1.0"]
        assert float(cell[0]["mean"]) == pytest.approx(np.mean(values), abs=1e-12)
        assert float(cell[0]["std"]) == pytest.approx(np.std(values), abs=1e-12)
        assert int(cell[0]["n"]) == 3

    def test_mean_std_recomputable_from_run_jsons(self, blob_csv, tmp_path):
        out = tmp_path / "sweep2"
        rc = main(["sweep", "--data", blob_csv, "--task", "classification",
                   "--gammas", "1", "--seeds", "0", "1",
                   "--out-dir", str(out), *FAST])
        assert rc == 0
        reports = []
        for name in sorted(os.listdir(out / "runs")):
            reports.append(json.loads((out / "runs" / name).read_text()))
        values = [r["macro_f1"] for r in reports]
        with open(out / "aggregate.csv") as fh:
            agg = {(r["metric"]): r for r in csv.DictReader(fh)}
        assert float(agg["macro_f1"]["mean"]) == pytest.approx(np.mean(values),
                                                               abs=1e-12)
        assert float(agg["macro_f1"]["std"]) == pytest.approx(np.std(values),
                                                              abs=1e-12)

    def test_noise_sweep_shape(self, blob_csv, tmp_path):
        out = tmp_path / "noise"
        rc = main(["sweep", "--data", blob_csv, "--task", "classification",
                   "--gammas", "1", "--seeds", "0",
                   "--noise-rates", "0.1", "0.2", "0.3",
                   "--out-dir", str(out), *FAST])
        assert rc == 0
        with open(out / "runs.csv") as fh:
            runs = list(csv.DictReader(fh))
        rates = {r["perturb_value"] for r in runs}
        assert rates == {"0.1", "0.2", "0.3"}

    def test_fraction_sweep_shape(self, blob_csv, tmp_path):
        out = tmp_path / "frac"
        rc = main(["sweep", "--data", blob_csv, "--task", "classification",
                   "--gammas", "1", "--seeds", "0",
                   "--fractions", "0.9", "0.7", "0.5", "0.3",
                   "--out-dir", str(out), *FAST])
        assert rc == 0
        with open(out / "runs.csv") as fh:
            runs = list(csv.DictReader(fh))
        fractions = {r["perturb_value"] for r in runs}
        assert fractions == {"0.9", "0.7", "0.5", "0.3"}

    def test_child_failure_recorded_sweep_continues(self, blob_csv, tmp_path):
        # lr 1e100 overflows each seed's loss at step 2, inside the child run
        spec = ExperimentSpec(
            data_path=blob_csv, task_kind="classification", betas=(0.01,),
            gammas=(0.0,), seeds=(0, 1), out_dir=str(tmp_path / "fail"),
            train_kwargs={"epochs": 1, "patience": 0, "batch_size": 16,
                          "hidden": (4,), "lr": 1e100})
        summary = run_sweep(spec)
        assert summary["failed"] == 2
        errors = json.loads((tmp_path / "fail" / "errors.json").read_text())
        assert len(errors) == 2

    def test_clean_rerun_removes_stale_errors_json(self, blob_csv, tmp_path):
        out = tmp_path / "rerun"
        kwargs = {"epochs": 1, "patience": 0, "hidden": (4,), "batch_size": 16}
        spec = ExperimentSpec(data_path=blob_csv, task_kind="classification",
                              betas=(0.01,), gammas=(0.0,), seeds=(0,), out_dir=str(out),
                              train_kwargs={**kwargs, "lr": 1e100})
        assert run_sweep(spec)["failed"] == 1
        assert (out / "errors.json").exists()
        assert run_sweep(replace(spec, train_kwargs=kwargs))["failed"] == 0
        assert not (out / "errors.json").exists()
        assert os.listdir(out / "runs") == ["run_b0.01_g0_pnone_s0.json"]

    @pytest.mark.parametrize("case", list(UNUSABLE_SWEEP_FLAGS))
    def test_unusable_train_flags_rejected_before_training(self, blob_csv, tmp_path, capsys,
                                                          case):
        flags, message = UNUSABLE_SWEEP_FLAGS[case]
        out = tmp_path / "bad"
        assert main(["sweep", "--data", blob_csv, "--task", "classification",
                     "--seeds", "0", "1", "--out-dir", str(out), *FAST, *flags]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @UNUSABLE_TAU
    @SOFT_OR_HARD
    def test_unusable_temperature_rejected_before_training(self, regression_csv, tmp_path,
                                                           capsys, tau, labels):
        out = tmp_path / "bad"
        assert main(["sweep", "--data", regression_csv, "--task", "regression",
                     "--tau", tau, *labels, "--seeds", "0", "--out-dir", str(out), *FAST]) == 2
        err = capsys.readouterr().err
        assert "temperature must be positive and finite" in err and "Traceback" not in err
        assert not out.exists()

    def test_emptying_fraction_exits_two_before_writing(self, tmp_path, capsys):
        # 0.01 of a 60-row set's 36 train rows is none: once every cell failed, exit 0
        data, out = tmp_path / "blobs.csv", tmp_path / "bad"
        save_csv(gen_blobs(2, 60, 3, spread=0.4, seed=1), data)
        assert main(["sweep", "--data", str(data), "--task", "classification",
                     "--fractions", "1", "0.01", "--seeds", "0", "--out-dir", str(out),
                     *FAST]) == 2
        assert "subsampling would leave an empty train split" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", list(SHORT_SPLITS))
    def test_short_split_exits_two_before_writing(self, tmp_path, capsys, case):
        _, task, fraction, message = SHORT_SPLITS[case]
        data, out = short_split_csv(tmp_path, case), tmp_path / "bad"
        cells = (["--fractions", str(fraction), "--seeds", "0"] if fraction
                 else ["--seeds", "0", "1"])
        assert main(["sweep", "--data", data, "--task", task, *cells, "--out-dir", str(out),
                     *FAST]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_untyped_flags_leave_every_default_to_the_library(self, blob_csv, tmp_path,
                                                              monkeypatch):
        calls, sweeps = [], []
        monkeypatch.setattr(sweep, "config_for", recording(calls, config_for))
        monkeypatch.setattr("bottletree.cli.run_sweep", recording(sweeps, run_sweep))
        assert main(["sweep", "--data", blob_csv, "--task", "classification",
                     "--out-dir", str(tmp_path / "sweep")]) == 0
        assert [kwargs for _, kwargs in calls] == [{}]
        defaults = ExperimentSpec(blob_csv, "classification", (0.01,), (1.0,), (0, 1, 2, 3, 4),
                                  str(tmp_path / "sweep"))  # train_kwargs={}
        assert [args for args, _ in sweeps] == [(defaults,)]

    @pytest.mark.parametrize("train_kwargs", [{"lr": -1.0}, {"learning_rate": 0.1}],
                             ids=["unusable-value", "unknown-field"])
    def test_unusable_train_kwargs_raise_before_writing(self, blob_csv, tmp_path,
                                                        train_kwargs):
        # the spec holds them as given; run_sweep builds its config template first
        out = tmp_path / "bad"
        spec = ExperimentSpec(data_path=blob_csv, task_kind="classification", betas=(0.01,),
                              gammas=(1.0,), seeds=(0,), out_dir=str(out),
                              train_kwargs=train_kwargs)
        with pytest.raises((ValueError, TypeError)):
            run_sweep(spec)
        assert not out.exists()

    def test_negative_class_label_exits_two_without_files(self, negative_label_csv, tmp_path,
                                                          capsys):
        # once each cell failed in its worker and the sweep exited 0
        out = tmp_path / "sweep"
        assert main(["sweep", "--data", negative_label_csv, "--task", "classification",
                     "--seeds", "0", "--out-dir", str(out), *FAST]) == 2
        assert "class labels must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_task_kind_raises_before_writing(self, blob_csv, tmp_path):
        # once any kind but "classification" trained a regression on the class ids
        out = tmp_path / "bad"
        spec = ExperimentSpec(data_path=blob_csv, task_kind="clasification", betas=(0.01,),
                              gammas=(1.0,), seeds=(0,), out_dir=str(out),
                              train_kwargs={"epochs": 1, "patience": 0, "hidden": (4,)})
        with pytest.raises(ValueError, match="unknown task kind 'clasification'"):
            run_sweep(spec)
        assert not out.exists()

    def test_train_and_sweep_resolve_flags_to_one_config(self, regression_csv, tmp_path):
        flags = ["--data", regression_csv, "--task", "regression", "--bins", "3",
                 "--lo", "-1", "--hi", "6", "--hard-labels", "--tau", "0.5", "--samples", "2",
                 "--use-mu-graph", *FAST]
        assert main(["train", *flags, "--gamma", "1", "--seed", "0",
                     "--out-dir", str(tmp_path / "train")]) == 0
        assert main(["sweep", *flags, "--gammas", "1", "--seeds", "0",
                     "--out-dir", str(tmp_path / "sweep")]) == 0
        config = json.loads((tmp_path / "train" / "report.json").read_text())["config"]
        run = tmp_path / "sweep" / "runs" / "run_b0.01_g1_pnone_s0.json"
        assert json.loads(run.read_text())["config"] == config
        assert config["task"] == {"kind": "regression", "bins": 3, "lo": -1.0, "hi": 6.0,
                                  "soft_labels": False, "temperature": 0.5}
        assert (config["samples_per_input"], config["use_mu_for_graph"]) == (2, True)

    def test_beta_and_gamma_are_grid_prefixes(self, blob_csv):
        # one value each, read as --betas and --gammas: no flag overrides a grid
        args = build_parser().parse_args(["sweep", "--data", blob_csv, "--task",
                                          "classification", "--beta", "0.5", "--gamma", "2"])
        assert (args.betas, args.gammas) == ([0.5], [2.0])
        assert not hasattr(args, "beta") and not hasattr(args, "gamma")

    @pytest.mark.parametrize("task, flags, message", [
        ("classification", [], "dataset labels are continuous"),
        ("regression", ["--bins", "1"], "need at least 2 bins"),
    ], ids=["continuous-labels", "one-bin"])
    def test_unusable_task_exits_two_before_writing(self, regression_csv, tmp_path, capsys,
                                                    task, flags, message):
        # the task is built from the parsed CSV before anything is written
        out = tmp_path / "bad"
        assert main(["sweep", "--data", regression_csv, "--task", task, *flags,
                     "--seeds", "0", "--jobs", "2", "--out-dir", str(out), *FAST]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_fraction_cells_bin_on_the_full_label_range(self, tmp_path):
        # Without --lo/--hi, every cell bins on the whole dataset's label
        # range, as ``train`` does, not on its subsample's.
        ds = gen_regression(400, 3, 0.2, lo=0.0, hi=5.0, seed=5)
        ds.y = np.random.default_rng(0).standard_normal(ds.n)
        data, out = tmp_path / "reg.csv", tmp_path / "sweep"
        save_csv(ds, data)
        full = [float(ds.y.min()), float(ds.y.max())]
        half = subsample_train(ds, 0.5, seed=0)
        assert [half.y.min(), half.y.max()] != full  # the subsample's own range differs
        assert main(["sweep", "--data", str(data), "--task", "regression",
                     "--fractions", "0.5", "1", "--seeds", "0", "--out-dir", str(out),
                     *FAST]) == 0
        for name in ("run_b0.01_g1_pfraction0.5_s0.json", "run_b0.01_g1_pfraction1_s0.json"):
            task = json.loads((out / "runs" / name).read_text())["config"]["task"]
            assert [task["lo"], task["hi"]] == full

    @pytest.mark.parametrize("case", ["missing", "malformed"])
    def test_unreadable_data_exits_two_before_writing(self, tmp_path, capsys, case):
        data, out = tmp_path / "data.csv", tmp_path / "out"
        if case == "malformed":
            data.write_text("split,y,x0\ntrain,0,not-a-number\n")
        assert main(["sweep", "--data", str(data), "--task", "classification",
                     "--seeds", "0", "--jobs", "2", "--out-dir", str(out), *FAST]) == 2
        err = capsys.readouterr().err
        assert ("FileNotFoundError" if case == "missing" else "DatasetParseError") in err
        assert not out.exists()

    def test_killed_worker_keeps_finished_cells_and_exits_two(self, blob_csv, tmp_path):
        # the gamma=10 job is still waiting in the healthy worker
        check_killed_sweep(blob_csv, tmp_path / "killed", jobs="2")

    def test_killed_worker_at_one_job_keeps_finished_cells_and_exits_two(self, blob_csv,
                                                                        tmp_path):
        # --jobs 1 runs its jobs in one forked worker too, so the sweep's own
        # process outlives the kill; the gamma=10 job never starts
        check_killed_sweep(blob_csv, tmp_path / "killed", jobs="1")

    def test_ctrl_c_keeps_finished_cells_and_exits_130(self, blob_csv, tmp_path):
        # A terminal's Ctrl-C signals the whole process group: the workers
        # ignore it, the queued jobs are dropped and the running ones end.
        argv = ["sweep", "--data", blob_csv, "--task", "classification",
                "--gammas", *map(str, range(16)), "--seeds", "0", "--jobs", "2",
                *FAST, "--epochs", "150", "--patience", "150"]
        whole, cut = tmp_path / "whole", tmp_path / "cut"
        start = time.monotonic()
        assert main([*argv, "--out-dir", str(whole)]) == 0
        uninterrupted = time.monotonic() - start
        proc = subprocess.Popen([sys.executable, "-m", "bottletree", *argv,
                                 "--out-dir", str(cut)],
                                env=with_src(dict(os.environ)), stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True, start_new_session=True,
                                preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        try:
            deadline = time.monotonic() + 60
            while not any((cut / "runs").glob("*.json")) and time.monotonic() < deadline:
                time.sleep(0.01)
            os.killpg(proc.pid, signal.SIGINT)
            signalled = time.monotonic()
            _, err = proc.communicate(timeout=60)
            stopping = time.monotonic() - signalled
        finally:
            with suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
        assert proc.returncode == 130
        assert err == "bottletree: interrupted\n"
        assert stopping < uninterrupted / 2
        done = sorted(p.name for p in (cut / "runs").iterdir())
        cells = sorted(p.name for p in (whole / "runs").iterdir())
        assert 0 < len(done) < len(cells) // 2
        for name in done:
            assert (cut / "runs" / name).read_bytes() == (whole / "runs" / name).read_bytes()
        errors = json.loads((cut / "errors.json").read_text())
        assert sorted(f"{e['cell']}.json" for e in errors) == sorted(set(cells) - set(done))
        assert {e["error"] for e in errors} == {"interrupted"}
        gammas = {json.loads((cut / "runs" / name).read_text())["config"]["gamma"]
                  for name in done}
        for name in ("runs.csv", "aggregate.csv"):  # the uninterrupted rows of those cells
            with open(cut / name) as fh, open(whole / name) as want:
                assert list(csv.DictReader(fh)) == [row for row in csv.DictReader(want)
                                                    if float(row["gamma"]) in gammas]

    @pytest.mark.parametrize("gammas,seeds,jobs,chunks", [
        ((1.0,), 5, 2, [(0, 1), (2, 3, 4)]),  # fewer groups than workers: split
        ((1.0,), 6, 4, [(0,), (1, 2), (3,), (4, 5)]),
        ((1.0,), 1, 2, [(0,)]),  # one seed cannot be split
        ((0.0, 1.0), 3, 2, [(0, 1, 2)] * 2),  # a group per worker: whole groups
        ((0.0, 1.0, 10.0), 3, 2, [(0, 1, 2)] * 3),
        ((1.0,), 3, 1, [(0, 1, 2)]),  # serial
    ])
    def test_jobs_split_groups_only_when_workers_would_idle(self, gammas, seeds, jobs,
                                                            chunks):
        spec = ExperimentSpec(data_path="unused.csv", task_kind="classification",
                              betas=(0.01,), gammas=gammas, seeds=tuple(range(seeds)),
                              out_dir="unused", jobs=jobs)
        plan, cells = sweep._jobs(spec), spec.cells()
        assert [tuple(cells[i][3] for i in indices) for _, indices in plan] == chunks
        # every cell once, in order, with its own perturbation
        assert [i for _, indices in plan for i in indices] == list(range(len(cells)))
        assert all(cells[i][2] == p for p, indices in plan for i in indices)

    def test_split_group_runs_as_two_lockstep_jobs(self, blob_csv, tmp_path, monkeypatch):
        # one group of four seeds at jobs=2: two lockstep chunks of two seeds
        marks, run_cell = tmp_path / "marks", sweep.run_cell
        marks.mkdir()

        def marking_run_cell(perturbation, configs):
            (marks / f"{os.getpid()}-{'-'.join(str(c.seed) for c in configs)}").touch()
            return run_cell(perturbation, configs)

        monkeypatch.setattr(sweep, "run_cell", marking_run_cell)
        assert main(["sweep", "--data", blob_csv, "--task", "classification",
                     "--gammas", "1", "--seeds", "0", "1", "2", "3", "--jobs", "2",
                     "--out-dir", str(tmp_path / "out"), *FAST]) == 0
        assert sorted(m.split("-", 1)[1] for m in os.listdir(marks)) == ["0-1", "2-3"]
        assert len(os.listdir(tmp_path / "out" / "runs")) == 4

    @pytest.mark.parametrize("grid", [
        ["--seeds", "0", "0"],
        ["--betas", "1", "1.0"],
        ["--gammas", "0.1", "0.1000001"],  # equal at :g precision
        ["--noise-rates", "0.2", "0.2"],
        ["--fractions", "0.5", "0.5000001"],
    ], ids=["seed", "beta", "gamma", "noise", "fraction"])
    def test_duplicate_cells_rejected_before_training(self, blob_csv, tmp_path, capsys, grid):
        out = tmp_path / "dup"
        assert main(["sweep", "--data", blob_csv, "--task", "classification", *grid,
                     "--out-dir", str(out), *FAST]) == 2
        assert "the grid repeats cells" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["betas", "gammas", "seeds"])
    def test_empty_grid_rejected(self, blob_csv, grid):
        # an empty beta or gamma grid once gave 0 cells and a header-only runs.csv
        grids = {"betas": (0.01,), "gammas": (1.0,), "seeds": (0,), grid: ()}
        with pytest.raises(ValueError, match="betas, gammas and seeds must be non-empty"):
            ExperimentSpec(data_path=blob_csv, task_kind="classification", out_dir="unused",
                           **grids)

    def test_regression_label_noise_rejected_before_training(self, regression_csv, tmp_path,
                                                            capsys):
        out = tmp_path / "reg_noise"
        assert main(["sweep", "--data", regression_csv, "--task", "regression",
                     "--noise-rates", "0.1", "--out-dir", str(out), *FAST]) == 2
        assert "label noise applies to classification only" in capsys.readouterr().err
        assert not out.exists()

    def test_regression_fraction_sweep_succeeds(self, regression_csv, tmp_path):
        out = tmp_path / "reg_frac"
        assert main(["sweep", "--data", regression_csv, "--task", "regression",
                     "--fractions", "0.5", "--seeds", "0", "--out-dir", str(out), *FAST]) == 0
        assert not (out / "errors.json").exists()
        assert os.listdir(out / "runs") == ["run_b0.01_g1_pfraction0.5_s0.json"]

    @pytest.mark.parametrize("gammas, pools", [(["1"], [1, 1]), (["0", "1"], [1, 2])],
                             ids=["one-job", "two-jobs"])
    def test_no_more_workers_than_jobs(self, blob_csv, tmp_path, monkeypatch, gammas, pools):
        # every job runs in the pool, and a fork pool starts every worker at
        # once: --jobs 1 forks one, and --jobs 3 one with one job, two with two
        started = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        base = ["sweep", "--data", blob_csv, "--task", "classification", "--gammas", *gammas,
                "--seeds", "0", *FAST]
        outs = [tmp_path / "serial", tmp_path / "jobs3"]
        assert main([*base, "--out-dir", str(outs[0])]) == 0
        assert main([*base, "--jobs", "3", "--out-dir", str(outs[1])]) == 0
        assert started == pools
        serial, pooled = ({p.relative_to(out): p.read_bytes() for p in out.rglob("*")
                           if p.is_file()} for out in outs)
        assert serial == pooled and len(serial) == 2 + len(gammas)

    def test_only_a_sweep_loads_the_process_pool(self):
        # gen, train and verify start no pool, so the package and its CLI
        # load none of the pool's modules; run_sweep imports them itself
        done = subprocess.run([sys.executable, "-c",
                               "import sys, bottletree.cli; print(*sorted(sys.modules))"],
                              env=with_src(dict(os.environ)), capture_output=True, text=True,
                              check=True, timeout=60)
        loaded = done.stdout.split()
        assert "bottletree.sweep" in loaded
        assert [m for m in loaded
                if m.partition(".")[0] == "multiprocessing" or
                m.startswith("concurrent.futures")] == []

    def test_importing_the_package_only_pins_blas(self):
        # every name lives in its module: the package loads none, nor numpy
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = with_src({k: v for k, v in os.environ.items() if k not in names})
        done = subprocess.run([sys.executable, "-c",
                               "import os, sys, bottletree; print(*sorted(sys.modules)); "
                               f"print(*(os.environ[name] for name in {names}))"],
                              env=env, capture_output=True, text=True, check=True, timeout=60)
        loaded, threads = done.stdout.splitlines()
        assert [m for m in loaded.split()
                if m == "numpy" or m.startswith(("numpy.", "bottletree."))] == []
        assert threads.split() == ["1", "1", "1"]

    def test_parallel_jobs_match_serial(self, blob_csv, tmp_path):
        base = ["sweep", "--data", blob_csv, "--task", "classification",
                "--gammas", "1", "--seeds", "0", "1", *FAST]
        out1, out2 = tmp_path / "serial", tmp_path / "par"
        assert main([*base, "--out-dir", str(out1), "--jobs", "1"]) == 0
        assert main([*base, "--out-dir", str(out2), "--jobs", "2"]) == 0
        assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()
        assert (out1 / "aggregate.csv").read_bytes() == (out2 / "aggregate.csv").read_bytes()


README = Path(__file__).resolve().parents[1] / "README.md"
# Appended to the README's protocol lines so the suite runs them small; argparse
# keeps an option's last value.
SMALL = {"gen": ["--n", "200"], "sweep": ["--seeds", "0", "1", "--epochs", "2",
                                          "--patience", "1"]}


def protocol_lines() -> list[list[str]]:
    """The argv of every ``bottletree`` line of the README's protocol block."""
    block = re.search(r"^## Protocols\n.*?^```bash\n(.*?)^```", README.read_text(),
                      re.DOTALL | re.MULTILINE).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("bottletree ")]


class TestProtocols:
    def test_readme_protocols_run_and_rerun_byte_identical(self, tmp_path, monkeypatch):
        lines = protocol_lines()
        assert [argv[0] for argv in lines] == ["gen"] * 2 + ["sweep"] * 4
        outputs = []
        for root in ("first", "second"):
            (tmp_path / root).mkdir()
            monkeypatch.chdir(tmp_path / root)
            for argv in lines:
                assert main([*argv, *SMALL[argv[0]]]) == 0, argv
            outputs.append({path: path.read_bytes()
                            for path in Path("runs").rglob("*") if path.is_file()})
        first, second = outputs
        assert not [path for path in first if path.name == "errors.json"]
        # 24 (gamma, perturbation) groups of 2 seeds in 4 sweeps
        assert sum(path.parent.name == "runs" for path in first) == 48
        assert sum(path.name in ("runs.csv", "aggregate.csv") for path in first) == 8
        assert first == second


def _on_output(change):
    return lambda original: lambda *args: change(original(*args))


def _total_plus_one(terms):
    """``_class_terms``' loss recomputed with sum(A) + 1 in place of sum(A)."""
    cuts, vols, _ = terms
    total = vols.sum() + 1.0  # the class volumes sum to sum(A)
    return cuts, vols, float(-((cuts / total) * np.log2(np.maximum(vols / total, 1e-12))).sum())


# Per verify check, a corruption of the route it guards:
# (module, function, corrupted function given the original).
SABOTAGE = {
    "oracle": (entropy, "_class_terms",  # the matrix form in nats
               _on_output(lambda out: (*out[:2], out[2] * math.log(2.0)))),
    "reduction": (verify, "soft_cuts",  # sum_{i,k} A_ik Y'_kj without (1 - Y'_ij)
                  lambda original: lambda adj, c: (adj @ c).sum(axis=0)),
    "soft": (entropy, "_se_stack",  # the fused form in nats
             _on_output(lambda out: (out[0] * math.log(2.0), out[1]))),
    "bounds": (entropy, "_class_terms", _on_output(lambda out: (*out[:2], -out[2]))),
    "invariance": (entropy, "_class_terms", _on_output(_total_plus_one)),
    "grad": (coder, "kl_to_standard_normal",  # the KL backward doubled
             _on_output(lambda out: (out[0], lambda g: tuple(2.0 * p for p in out[1](g))))),
    "kl": (verify, "kl_to_standard_normal",
           _on_output(lambda out: (out[0] + 0.1, out[1]))),
}


class TestVerify:
    @pytest.mark.parametrize("check", list(ALL_CHECKS))
    def test_every_check_fails_when_its_route_is_corrupted(self, monkeypatch, capsys, check):
        assert set(SABOTAGE) == set(ALL_CHECKS)  # every check needs a case here
        module, name, corrupt = SABOTAGE[check]
        monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
        assert main(["verify", "--only", check]) == 3
        assert f"FAIL  {check}" in capsys.readouterr().out

    def test_grad_fails_when_the_entropy_backward_is_wrong_past_the_first_tile(
            self, monkeypatch, capsys):
        original = entropy._se_stack

        def past_first_tile_scaled(h, c, need_grad):
            loss, backward = original(h, c, need_grad)
            rows = min(h.shape[1], entropy.SE_BLOCK_ENTRIES // h.shape[1])
            if backward is None or rows == h.shape[1]:
                return loss, backward

            def scaled(g):
                out = backward(g)
                out[:, rows:] *= 1.01
                return out

            return loss, scaled

        monkeypatch.setattr(entropy, "_se_stack", past_first_tile_scaled)
        assert main(["verify", "--only", "grad"]) == 3
        assert "FAIL  grad" in capsys.readouterr().out

    def test_only_grad(self, capsys):
        assert main(["verify", "--only", "grad"]) == 0
        out = capsys.readouterr().out
        assert "grad" in out
        assert "oracle" not in out

    def test_a_repeated_check_runs_once_where_first_given(self, capsys):
        assert main(["verify", "--only", "invariance,oracle,invariance"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines] == ["invariance", "oracle"]

    def test_unknown_check_is_runtime_error(self):
        assert main(["verify", "--only", "bogus"]) == 2

    def test_dump_is_not_an_option(self, tmp_path, capsys):
        # verify runs its checks and writes no file
        assert main(["verify", "--dump", str(tmp_path / "x")]) == 1
        assert "unrecognized arguments: --dump" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_ctrl_c_exits_130_without_traceback(self):
        # A shell without job control starts background jobs with SIGINT
        # ignored, which a child inherits: give it the default back.
        proc = subprocess.Popen([sys.executable, "-u", "-m", "bottletree", "verify"],
                                env=with_src(dict(os.environ)), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        try:
            assert proc.stdout.readline().startswith("PASS  oracle")
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 130
        assert err == "bottletree: interrupted\n"

    @pytest.mark.parametrize("route", ["matrix", "fused"])
    def test_corrupted_log_base_fails_oracle(self, monkeypatch, route):
        # sabotage one route with the natural log (its loss in nats is ln 2
        # times its loss in bits): the set-theoretic oracle must catch the
        # wrong base in that route and only there
        helper, loss_at = {"matrix": ("_class_terms", 2), "fused": ("_se_stack", 0)}[route]
        original = getattr(entropy, helper)

        def in_nats(*args):
            out = list(original(*args))
            out[loss_at] = out[loss_at] * math.log(2.0)
            return tuple(out)

        monkeypatch.setattr(entropy, helper, in_nats)
        [result] = run_checks(["oracle"])
        assert not result.passed
        gaps = dict(re.findall(r"max \|(\w+) - definition\| = (\S+?),? ", result.detail))
        assert float(gaps[route]) > 1e-3
        assert all(float(gap) <= 1e-9 for other, gap in gaps.items() if other != route)


TRAIN_FLAGS = """\
                        [--lr LR] [--epochs EPOCHS] [--patience PATIENCE]
                        [--batch-size BATCH_SIZE] [--hidden HIDDEN]
                        [--activation {relu,sigmoid}] [--use-mu-graph]
                        [--samples SAMPLES] [--bins BINS] [--lo LO] [--hi HI]
"""
TOP_USAGE = "usage: bottletree [-h] {gen,train,sweep,verify} ...\n"
TRAIN_USAGE = f"""\
usage: bottletree train [-h] --data DATA --task {{classification,regression}}
{TRAIN_FLAGS}\
                        [--hard-labels] [--tau TAU] [--beta BETA]
                        [--gamma GAMMA] [--seed SEED] [--out-dir OUT_DIR]
"""
SWEEP_USAGE = f"""\
usage: bottletree sweep [-h] --data DATA --task {{classification,regression}}
{TRAIN_FLAGS}\
                        [--hard-labels] [--tau TAU]
                        [--seeds SEEDS [SEEDS ...]]
                        [--betas BETAS [BETAS ...]]
                        [--gammas GAMMAS [GAMMAS ...]]
                        [--noise-rates NOISE_RATES [NOISE_RATES ...]]
                        [--fractions FRACTIONS [FRACTIONS ...]]
                        [--perturb-seed PERTURB_SEED] [--jobs JOBS]
                        [--out-dir OUT_DIR]
"""
# argparse's own usage and error lines, byte for byte, at 80 columns
USAGE_ERRORS = {
    "train-no-data": (["train"], TRAIN_USAGE + "bottletree train: error: the following "
                      "arguments are required: --data, --task\n"),
    "bad-task": (["train", "--data", "x", "--task", "bogus"],
                 TRAIN_USAGE + "bottletree train: error: argument --task: invalid choice: "
                 "'bogus' (choose from 'classification', 'regression')\n"),
    "bad-hidden": (["train", "--data", "x", "--task", "regression", "--hidden", "a"],
                   TRAIN_USAGE + "bottletree train: error: argument --hidden: expected "
                   "comma-separated integer widths, e.g. 64,32, got 'a'\n"),
    "empty-hidden-width": (["train", "--data", "x", "--task", "regression", "--hidden", "8,,4"],
                           TRAIN_USAGE + "bottletree train: error: argument --hidden: expected "
                           "comma-separated integer widths, e.g. 64,32, got '8,,4'\n"),
    "empty-seeds": (["sweep", "--data", "x", "--task", "regression", "--seeds"],
                    SWEEP_USAGE + "bottletree sweep: error: argument --seeds: expected at "
                    "least one argument\n"),
    "verify-bad-flag": (["verify", "--bogus"],
                        TOP_USAGE + "bottletree: error: unrecognized arguments: --bogus\n"),
    "verify-empty-only": (["verify", "--only", ","],
                          "usage: bottletree verify [-h] [--only ONLY]\nbottletree verify: "
                          "error: argument --only: expected comma-separated check names, e.g. "
                          "oracle,grad, got ','\n"),
    "verify-empty-only-value": (["verify", "--only", ""],
                                "usage: bottletree verify [-h] [--only ONLY]\nbottletree "
                                "verify: error: argument --only: expected comma-separated "
                                "check names, e.g. oracle,grad, got ''\n"),
    "gen-no-generator": (["gen"], "usage: bottletree gen [-h] {blobs,regression} ...\n"
                         "bottletree gen: error: the following arguments are required: "
                         "generator\n"),
}


class TestUsageErrors:
    @pytest.fixture(autouse=True)
    def eighty_columns(self, monkeypatch):
        # argparse wraps its usage to the terminal's width
        monkeypatch.setenv("COLUMNS", "80")

    def test_no_command_exits_one(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr() == ("", TOP_USAGE + "bottletree: error: the following "
                                       "arguments are required: command\n")

    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1
        assert capsys.readouterr() == ("", TOP_USAGE + "bottletree: error: argument command: "
                                       "invalid choice: 'frobnicate' (choose from 'gen', "
                                       "'train', 'sweep', 'verify')\n")

    def test_bad_flag_value_exits_one(self, capsys):
        assert main(["gen", "blobs", "--classes", "x", "--n", "10",
                     "--dim", "3", "--seed", "0"]) == 1
        assert capsys.readouterr() == ("", """\
usage: bottletree gen blobs [-h] --classes CLASSES --n N --dim DIM
                            [--spread SPREAD] --seed SEED [--out OUT]
bottletree gen blobs: error: argument --classes: invalid int value: 'x'
""")

    @pytest.mark.parametrize("argv, stderr", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
    def test_usage_error_exits_one(self, capsys, argv, stderr):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", stderr)

    def test_help_exits_zero_with_the_help_on_stdout(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr() == (build_parser().format_help(), "")
        assert main(["gen", "blobs", "--help"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: bottletree gen blobs [-h] --classes CLASSES") and not err
