import csv
import json
import os

import numpy as np
import pytest

from bottletree.cli import main
from bottletree.datasets import load_csv
from bottletree.sweep import ExperimentSpec, run_sweep
from bottletree.verify import run_checks


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


FAST = ["--epochs", "3", "--patience", "2", "--batch-size", "16",
        "--hidden", "8", "--lr", "0.01"]


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

    def test_out_env_var_sets_default_dir(self, blob_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("BOTTLETREE_OUT", str(tmp_path / "envout"))
        rc = main(["gen", "blobs", "--classes", "2", "--n", "20", "--dim", "3",
                   "--seed", "3"])
        assert rc == 0
        files = os.listdir(tmp_path / "envout")
        assert any(f.endswith(".csv") for f in files)


class TestTrain:
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
        from bottletree.coder import load_checkpoint

        out = tmp_path / "ckpt"
        rc = main(["train", "--data", blob_csv, "--task", "classification",
                   "--seed", "3", "--out-dir", str(out), *FAST])
        assert rc == 0
        params, seed = load_checkpoint(out / "model.json")
        assert seed == 3
        assert params.latent_dim == 3  # class count of the blob fixture
        assert params.hidden == (8,)

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

    def test_missing_data_file_is_runtime_error(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope.csv"),
                   "--task", "classification", *FAST])
        assert rc == 2

    def test_gradient_blow_up_exits_two_with_dump(self, blob_csv, tmp_path,
                                                  monkeypatch, capsys):
        from bottletree.autodiff import Tensor

        def blow_up(self):
            raise FloatingPointError("non-finite gradient encountered during backward")

        monkeypatch.setattr(Tensor, "backward", blow_up)
        out = tmp_path / "blown"
        rc = main(["train", "--data", blob_csv, "--task", "classification",
                   "--seed", "0", "--out-dir", str(out), *FAST])
        assert rc == 2
        dump = json.loads((out / "diverged.json").read_text())
        assert dump["step"] == 1
        assert "total" in dump["breakdown"]
        assert "diverged at step 1" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_task_mismatch_is_runtime_error(self, regression_csv, tmp_path):
        rc = main(["train", "--data", regression_csv, "--task", "classification",
                   "--out-dir", str(tmp_path), *FAST])
        assert rc == 2


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
        # batch_size below 2 fails config validation inside the child run
        spec = ExperimentSpec(
            data_path=blob_csv, task_kind="classification", betas=(0.01,),
            gammas=(0.0,), seeds=(0, 1), out_dir=str(tmp_path / "fail"),
            train_kwargs={"epochs": 1, "patience": 0, "batch_size": 1,
                          "hidden": (4,)})
        summary = run_sweep(spec)
        assert summary["failed"] == 2
        errors = json.loads((tmp_path / "fail" / "errors.json").read_text())
        assert len(errors) == 2

    def test_parallel_jobs_match_serial(self, blob_csv, tmp_path):
        base = ["sweep", "--data", blob_csv, "--task", "classification",
                "--gammas", "1", "--seeds", "0", "1", *FAST]
        out1, out2 = tmp_path / "serial", tmp_path / "par"
        assert main([*base, "--out-dir", str(out1), "--jobs", "1"]) == 0
        assert main([*base, "--out-dir", str(out2), "--jobs", "2"]) == 0
        assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()
        assert (out1 / "aggregate.csv").read_bytes() == (out2 / "aggregate.csv").read_bytes()


class TestVerify:
    def test_full_suite_exits_zero(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        for name in ("oracle", "reduction", "soft", "bounds", "invariance",
                     "grad", "kl"):
            assert f"PASS  {name}" in out

    def test_only_grad(self, capsys):
        assert main(["verify", "--only", "grad"]) == 0
        out = capsys.readouterr().out
        assert "grad" in out
        assert "oracle" not in out

    def test_unknown_check_is_runtime_error(self):
        assert main(["verify", "--only", "bogus"]) == 2

    def test_dump_writes_debug_record(self, tmp_path):
        import math

        path = tmp_path / "dump.json"
        assert main(["verify", "--only", "oracle", "--dump", str(path)]) == 0
        record = json.loads(path.read_text())
        for mode in ("hard", "soft"):
            entry = record[mode]
            vol = entry["volume"]
            recomputed = -sum(
                (g / vol) * math.log2(max(v / vol, 1e-12))
                for g, v in zip(entry["cut_weights"], entry["class_volumes"]))
            assert entry["se_loss"] == pytest.approx(recomputed, abs=1e-9)

    def test_corrupted_log_base_fails_oracle(self, monkeypatch, capsys):
        # sabotage the differentiable loss with natural log: the set-theoretic
        # oracle must catch the wrong base
        import bottletree.autodiff as ad

        original = ad.Tensor.log2
        monkeypatch.setattr(ad.Tensor, "log2", ad.Tensor.log)
        try:
            results = run_checks(["oracle"])
        finally:
            monkeypatch.setattr(ad.Tensor, "log2", original)
        assert not results[0].passed


class TestUsageErrors:
    def test_no_command_exits_one(self):
        assert main([]) == 1

    def test_unknown_command_exits_one(self):
        assert main(["frobnicate"]) == 1

    def test_bad_flag_value_exits_one(self):
        assert main(["gen", "blobs", "--classes", "x", "--n", "10",
                     "--dim", "3", "--seed", "0"]) == 1
