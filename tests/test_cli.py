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
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bottletree import coder, entropy, sweep, verify
from bottletree.cli import main
from bottletree.datasets import gen_blobs, load_csv, save_csv
from bottletree.sweep import ExperimentSpec, run_sweep
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_clean_rerun_removes_stale_divergence_dump(self, blob_csv, gradient_overflow_csv,
                                                       tmp_path):
        out = ["--out-dir", str(tmp_path)]
        assert main(["train", "--data", gradient_overflow_csv, *out, *GRADIENT_OVERFLOW]) == 2
        assert main(["train", "--data", blob_csv, *out, *GRADIENT_OVERFLOW]) == 0
        assert sorted(os.listdir(tmp_path)) == ["history.csv", "model.json", "report.json"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
        env = {k: v for k, v in os.environ.items() if k not in names}
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

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

    def test_clean_rerun_removes_stale_errors_json(self, blob_csv, tmp_path):
        out = tmp_path / "rerun"
        kwargs = {"epochs": 1, "patience": 0, "hidden": (4,)}
        spec = ExperimentSpec(data_path=blob_csv, task_kind="classification",
                              betas=(0.01,), gammas=(0.0,), seeds=(0,), out_dir=str(out),
                              train_kwargs={**kwargs, "batch_size": 1})
        assert run_sweep(spec)["failed"] == 1
        assert (out / "errors.json").exists()
        assert run_sweep(replace(spec, train_kwargs=kwargs))["failed"] == 0
        assert not (out / "errors.json").exists()
        assert os.listdir(out / "runs") == ["run_b0.01_g0_pnone_s0.json"]

    def test_killed_worker_keeps_finished_cells_and_exits_two(self, blob_csv, tmp_path,
                                                               monkeypatch, capsys):
        # Real forked workers: the gamma=0 group runs normally; the gamma=1 and
        # gamma=10 groups wait until its runs are on disk, then gamma=1 sends
        # SIGKILL to its own process while gamma=10 is still waiting in the
        # healthy worker.  If they never appear both run normally, and the exit
        # code gives it away.
        out = tmp_path / "killed"
        run_cell = sweep.run_cell

        def killing_run_cell(spec, group):
            deadline = time.monotonic() + 30
            while group[1] != 0.0 and time.monotonic() < deadline:
                if len([f for f in os.listdir(out / "runs") if f.endswith(".json")]) == 2:
                    if group[1] == 1.0:
                        os.kill(os.getpid(), signal.SIGKILL)
                time.sleep(0.02)
            return run_cell(spec, group)

        monkeypatch.setattr(sweep, "run_cell", killing_run_cell)
        rc = main(["sweep", "--data", blob_csv, "--task", "classification",
                   "--gammas", "0", "1", "10", "--seeds", "0", "1", "--jobs", "2",
                   "--out-dir", str(out), *FAST])
        assert rc == 2
        assert "WorkerCrashed" in capsys.readouterr().err
        assert sorted(os.listdir(out / "runs")) == ["run_b0.01_g0_pnone_s0.json",
                                                    "run_b0.01_g0_pnone_s1.json"]
        errors = json.loads((out / "errors.json").read_text())
        # the dead worker's cells and the healthy worker's unfinished ones
        assert [e["cell"] for e in errors] == ["run_b0.01_g1_pnone_s0",
                                               "run_b0.01_g1_pnone_s1",
                                               "run_b0.01_g10_pnone_s0",
                                               "run_b0.01_g10_pnone_s1"]
        assert all(e["error"].startswith("BrokenProcessPool: ") for e in errors)
        with open(out / "runs.csv") as fh:
            assert {r["gamma"] for r in csv.DictReader(fh)} == {"0.0"}

    @pytest.mark.parametrize("gammas,seeds,jobs,chunks", [
        ((1.0,), 5, 2, [(0, 1), (2, 3, 4)]),  # fewer groups than workers: split
        ((1.0,), 6, 4, [(0,), (1, 2), (3,), (4, 5)]),
        ((1.0,), 1, 2, [(0,)]),  # one seed cannot be split
        ((0.0, 1.0), 3, 2, [(0, 1, 2)] * 2),  # a group per worker: whole groups
        ((0.0, 1.0, 10.0), 3, 2, [(0, 1, 2)] * 3),
        ((1.0,), 3, 1, [(0, 1, 2)]),  # serial
        ((1.0,), 3, 0, [(0, 1, 2)]),  # no pool below two jobs
    ])
    def test_jobs_split_groups_only_when_workers_would_idle(self, gammas, seeds, jobs,
                                                            chunks):
        spec = ExperimentSpec(data_path="unused.csv", task_kind="classification",
                              betas=(0.01,), gammas=gammas, seeds=tuple(range(seeds)),
                              out_dir="unused", jobs=jobs)
        plan = sweep._jobs(spec)
        assert [job.seeds for job, _, _ in plan] == chunks
        cells = spec.cells()  # every cell once, at the index its job writes to
        assert [cells[first + i] for job, group, first in plan
                for i, seed in enumerate(job.seeds)] == [
            (*group, seed) for job, group, _ in plan for seed in job.seeds]
        assert sum(len(job.seeds) for job, _, _ in plan) == len(cells)

    def test_split_group_runs_as_two_lockstep_jobs(self, blob_csv, tmp_path, monkeypatch):
        # one group of four seeds at jobs=2: two lockstep chunks of two seeds
        marks, run_cell = tmp_path / "marks", sweep.run_cell
        marks.mkdir()

        def marking_run_cell(spec, group):
            (marks / f"{os.getpid()}-{'-'.join(map(str, spec.seeds))}").touch()
            return run_cell(spec, group)

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
    "soft": (entropy, "_se_slice",  # the fused form in nats
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
        assert not run_checks([check])[0].passed
        assert main(["verify", "--only", check]) == 3
        assert f"FAIL  {check}" in capsys.readouterr().out

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

    @pytest.mark.parametrize("route", ["matrix", "fused"])
    def test_corrupted_log_base_fails_oracle(self, monkeypatch, route):
        # sabotage one route with the natural log (its loss in nats is ln 2
        # times its loss in bits): the set-theoretic oracle must catch the
        # wrong base in that route and only there
        helper, loss_at = {"matrix": ("_class_terms", 2), "fused": ("_se_slice", 0)}[route]
        original = getattr(entropy, helper)

        def in_nats(*args):
            out = list(original(*args))
            out[loss_at] = out[loss_at] * math.log(2.0)
            return tuple(out)

        monkeypatch.setattr(entropy, helper, in_nats)
        result = run_checks(["oracle"])[0]
        assert not result.passed
        gaps = dict(re.findall(r"max \|(\w+) - definition\| = (\S+?),? ", result.detail))
        assert float(gaps[route]) > 1e-3
        assert all(float(gap) <= 1e-9 for other, gap in gaps.items() if other != route)


class TestUsageErrors:
    def test_no_command_exits_one(self):
        assert main([]) == 1

    def test_unknown_command_exits_one(self):
        assert main(["frobnicate"]) == 1

    def test_bad_flag_value_exits_one(self):
        assert main(["gen", "blobs", "--classes", "x", "--n", "10",
                     "--dim", "3", "--seed", "0"]) == 1
