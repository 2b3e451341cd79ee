"""Acceptance suite: one test per criterion, one pass/fail line printed each.

Criteria 1-7 are exact-math oracle and invariant checks shared with the
``verify`` CLI subcommand.  Criteria 8-9 are direction-of-effect ablation
reproductions on synthetic data; criterion 10 is byte-level determinism;
criterion 11 is the end-to-end verify run.

Criterion 8 is implemented faithfully and is expected to FAIL in this
implementation: extensive tuning (see notes in the repository docs) found no
configuration of the MLP-on-blobs protocol where the entropy regularizer at
gamma=1 reproducibly beats gamma=0 under 20% label noise; the measured margin
is statistically null (about -0.001 +/- 0.004 across data/noise seeds).  The
test asserts the criterion as stated rather than weakening it.
"""

import json
import time

import numpy as np

from bottletree.cli import main
from bottletree.datasets import gen_blobs, gen_regression, inject_label_noise
from bottletree.softbins import make_bins
from bottletree.training import (ClassificationTask, RegressionTask,
                                 TrainConfig, evaluate, train, train_seeds)
from bottletree.verify import (check_bounds, check_gradients, check_kl,
                               check_invariance, check_matrix_definition,
                               check_soft_consistency, check_soft_reduction)


def report(number: int, name: str, passed: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if passed else 'FAIL'}  {name}: {detail}")


def test_criterion_01_matrix_definition_equivalence():
    r = check_matrix_definition(instances=100)
    report(1, "matrix-definition equivalence", r.passed and r.seconds < 10.0,
           f"{r.detail}; runtime {r.seconds:.2f}s (< 10s)")
    assert r.passed
    assert r.seconds < 10.0


def test_criterion_02_soft_to_hard_reduction():
    r = check_soft_reduction(instances=100)
    report(2, "soft-to-hard reduction", r.passed, r.detail)
    assert r.passed


def test_criterion_03_soft_form_consistency():
    r = check_soft_consistency(instances=100)
    report(3, "soft-form consistency", r.passed, r.detail)
    assert r.passed


def test_criterion_04_entropy_bounds():
    r = check_bounds(instances=1000)
    report(4, "entropy bounds", r.passed, r.detail)
    assert r.passed


def test_criterion_05_invariance():
    r = check_invariance()
    report(5, "scale/permutation invariance", r.passed, r.detail)
    assert r.passed


def test_criterion_06_gradient_correctness():
    r = check_gradients(batches=12)
    report(6, "full-objective gradient vs finite differences", r.passed, r.detail)
    assert r.passed


def test_criterion_07_kl_correctness():
    r = check_kl(posteriors=10, samples=1_000_000)
    report(7, "closed-form KL vs Monte Carlo", r.passed, r.detail)
    assert r.passed


def _run_classification_arm(noisy, gamma: float, seeds=range(5)) -> np.ndarray:
    # The arm's seeds train in lockstep; each result is its solo train's.
    configs = [TrainConfig(task=ClassificationTask(4), gamma=gamma, seed=seed)
               for seed in seeds]
    results = train_seeds(configs, noisy.subset("train"), noisy.subset("dev"))
    return np.asarray([evaluate(result.params, *noisy.subset("test"), cfg).macro_f1
                       for cfg, result in zip(configs, results)])


def test_criterion_08_classification_ablation_direction():
    # 4-class blobs, spread tuned so the gamma=0 baseline sits near 0.75
    # macro-F1, 20% uniform label noise on the train split only.
    start = time.perf_counter()
    base = gen_blobs(4, 2000, 16, spread=0.45, seed=42)
    noisy = inject_label_noise(base, 0.2, seed=0)
    without_se = _run_classification_arm(noisy, gamma=0.0)
    with_se = _run_classification_arm(noisy, gamma=1.0)
    elapsed = time.perf_counter() - start
    margin = with_se.mean() - without_se.mean()
    detail = (f"gamma=1 {with_se.mean():.4f}+-{with_se.std():.4f} vs "
              f"gamma=0 {without_se.mean():.4f}+-{without_se.std():.4f}, "
              f"margin {margin:+.4f}; runtime {elapsed:.0f}s")
    report(8, "classification ablation direction", margin > 0 and elapsed < 600,
           detail)
    assert elapsed < 600
    assert margin > 0, (
        "entropy regularizer (gamma=1) did not beat gamma=0: " + detail)


def test_criterion_09_regression_ablation_direction():
    # Softened labels + probabilistic tree vs hard nearest-bin discretization.
    # beta=1 keeps the latent in the sigmoid's responsive range (Spearman is
    # scale-free) and gamma=10 comes from the search grid.
    start = time.perf_counter()
    ds = gen_regression(2000, 16, noise_std=0.5, lo=0.0, hi=5.0, seed=42)
    arms = {}
    for soft in (True, False):
        scores = []
        for seed in range(5):
            task = RegressionTask(make_bins(0.0, 5.0, 5), soft_labels=soft)
            cfg = TrainConfig(task=task, beta=1.0, gamma=10.0, seed=seed)
            result = train(cfg, ds.subset("train"), ds.subset("dev"))
            scores.append(evaluate(result.params, *ds.subset("test"), cfg).spearman)
        arms[soft] = np.asarray(scores)
    elapsed = time.perf_counter() - start
    margin = arms[True].mean() - arms[False].mean()
    detail = (f"soft {arms[True].mean():.4f}+-{arms[True].std():.4f} vs "
              f"hard {arms[False].mean():.4f}+-{arms[False].std():.4f}, "
              f"margin {margin:+.4f}; runtime {elapsed:.0f}s")
    report(9, "regression ablation direction", margin > 0 and elapsed < 600,
           detail)
    assert elapsed < 600
    assert margin > 0, detail


def test_criterion_10_determinism(tmp_path):
    data = tmp_path / "blobs.csv"
    assert main(["gen", "blobs", "--classes", "3", "--n", "150", "--dim", "5",
                 "--spread", "0.5", "--seed", "3", "--out", str(data)]) == 0
    train_args = ["train", "--data", str(data), "--task", "classification",
                  "--gamma", "1", "--seed", "1", "--epochs", "3",
                  "--patience", "2", "--batch-size", "16", "--hidden", "8"]
    sweep_args = ["sweep", "--data", str(data), "--task", "classification",
                  "--gammas", "0", "1", "--seeds", "0", "1", "--epochs", "2",
                  "--patience", "1", "--batch-size", "16", "--hidden", "8"]
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"train_{tag}"
        assert main([*train_args, "--out-dir", str(out)]) == 0
        outs.append((out / "report.json").read_bytes())
    train_ok = outs[0] == outs[1]

    sweeps = []
    for tag in ("a", "b"):
        out = tmp_path / f"sweep_{tag}"
        assert main([*sweep_args, "--out-dir", str(out)]) == 0
        blob = (out / "runs.csv").read_bytes() + (out / "aggregate.csv").read_bytes()
        for run in sorted((out / "runs").iterdir()):
            blob += run.read_bytes()
        sweeps.append(blob)
    sweep_ok = sweeps[0] == sweeps[1]

    report(10, "byte-identical repeated runs", train_ok and sweep_ok,
           f"train reports identical: {train_ok}; sweep outputs identical: {sweep_ok}")
    assert train_ok and sweep_ok


def test_criterion_11_verify_subcommand_end_to_end(capsys):
    start = time.perf_counter()
    exit_code = main(["verify"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        report(11, "verify subcommand", exit_code == 0 and elapsed < 60.0,
               f"exit code {exit_code}, runtime {elapsed:.1f}s (< 60s)")
    assert exit_code == 0
    assert elapsed < 60.0
    assert out.count("PASS") == 7
