import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from tape import Tensor
from test_cli import gradient_overflow_blobs
from test_coder import tensors_of
from test_metrics import loop_f1_and_recall

from bottletree import coder, entropy, training
from bottletree import metrics as M
from bottletree.coder import combined_loss, init_params
from bottletree.datasets import gen_blobs, gen_regression, save_csv
from bottletree.softbins import make_bins
from bottletree.sweep import ExperimentSpec, run_sweep
from bottletree.training import (Adam, ClassificationTask, RegressionTask,
                                 HISTORY_FIELDS, TrainConfig, TrainingDiverged,
                                 batch_assignment, evaluate, predict, train,
                                 train_seeds, write_csv, write_json)


def blob_config(ds, **overrides):
    kwargs = dict(task=ClassificationTask(ds.num_classes), beta=0.01, gamma=0.0,
                  lr=1e-2, epochs=8, patience=3, batch_size=32, seed=0,
                  hidden=(16,))
    kwargs.update(overrides)
    return TrainConfig(**kwargs)


@pytest.fixture(scope="module")
def easy_blobs():
    return gen_blobs(2, 300, 6, spread=0.15, seed=21)


class TestTrainConfig:
    def test_validation(self):
        task = ClassificationTask(2)
        with pytest.raises(ValueError):
            TrainConfig(task=task, beta=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(task=task, batch_size=1)

    @pytest.mark.parametrize("field, value", [
        ("lr", 0.0), ("lr", -1.0), ("lr", math.inf), ("lr", math.nan),
        ("epochs", 0), ("patience", -1), ("seed", -1), ("hidden", (0,)), ("hidden", (8, 0)),
        ("beta", math.nan), ("beta", math.inf), ("gamma", math.nan), ("gamma", math.inf),
    ], ids=lambda value: str(value).replace(" ", ""))
    def test_unusable_values_rejected(self, field, value):
        overrides = {"epochs": 0, "patience": 0} if field == "epochs" else {field: value}
        with pytest.raises(ValueError):
            TrainConfig(task=ClassificationTask(2), **overrides)

    @pytest.mark.parametrize("temperature", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("soft_labels", [True, False], ids=["soft", "hard"])
    def test_regression_task_rejects_unusable_temperature(self, soft_labels, temperature):
        with pytest.raises(ValueError, match="temperature must be positive and finite"):
            RegressionTask(make_bins(0, 5, 5), soft_labels, temperature)

    def test_echo_round_trips_to_json(self):
        import json

        cfg = TrainConfig(task=RegressionTask(make_bins(0, 5, 5)))
        json.dumps(cfg.echo())

    @pytest.mark.parametrize("task, echoed", [
        (ClassificationTask(3), {"kind": "classification", "num_classes": 3}),
        (RegressionTask(make_bins(0, 5, 5), soft_labels=False, temperature=0.5),
         {"kind": "regression", "bins": 5, "lo": 0.0, "hi": 5.0, "soft_labels": False,
          "temperature": 0.5}),
    ], ids=["classification", "regression"])
    def test_echo_is_pinned(self, task, echoed):
        cfg = TrainConfig(task=task, gamma=0.5, hidden=(8, 4), seed=3, use_mu_for_graph=True)
        assert list(cfg.echo().items()) == [
            ("task", echoed), ("beta", 0.01), ("gamma", 0.5), ("lr", 0.001), ("epochs", 20),
            ("patience", 5), ("batch_size", 128), ("seed", 3), ("hidden", [8, 4]),
            ("activation", "relu"), ("use_mu_for_graph", True), ("samples_per_input", 1),
            ("warmup_fraction", 0.1)]


class TestAdam:
    def test_flat_step_matches_per_tensor_updates_bit_for_bit(self):
        # Reference: the same elementwise formula applied tensor by tensor.
        params = init_params(5, (7, 3), 2, seed=4)
        tensors = tensors_of(params)
        ref_values = [t.copy() for t in tensors]
        ref_m = [np.zeros(t.shape) for t in tensors]
        ref_v = [np.zeros(t.shape) for t in tensors]
        opt = Adam(params, lr=0.05)
        b1, b2, eps = opt.beta1, opt.beta2, opt.eps
        rng = np.random.default_rng(3)
        for step, scale in enumerate((0.25, 1.0, 1.0), start=1):
            grads = [rng.standard_normal(t.shape) for t in tensors]
            opt.step(np.concatenate([g.reshape(-1) for g in grads]), lr_scale=scale)
            for i, g in enumerate(grads):
                ref_m[i] = b1 * ref_m[i] + (1 - b1) * g
                ref_v[i] = b2 * ref_v[i] + (1 - b2) * g * g
                m_hat = ref_m[i] / (1 - b1 ** step)
                v_hat = ref_v[i] / (1 - b2 ** step)
                ref_values[i] = ref_values[i] - 0.05 * scale * m_hat / (np.sqrt(v_hat) + eps)
            for t, ref in zip(tensors, ref_values):
                assert np.array_equal(t, ref)
                assert np.shares_memory(t, params.flat)


class TestTrain:
    def test_single_epoch_when_budget_is_one(self, easy_blobs):
        cfg = blob_config(easy_blobs, epochs=1, patience=0)
        result = train(cfg, easy_blobs.subset("train"), easy_blobs.subset("dev"))
        assert len(result.history) == 1

    def test_identical_seeds_give_bit_identical_params(self, easy_blobs):
        cfg = blob_config(easy_blobs, epochs=3)
        r1 = train(cfg, easy_blobs.subset("train"), easy_blobs.subset("dev"))
        r2 = train(cfg, easy_blobs.subset("train"), easy_blobs.subset("dev"))
        assert r1.params.flat.tobytes() == r2.params.flat.tobytes()
        assert r1.history == r2.history

    def test_trained_params_stay_views_of_the_flat_vector(self, easy_blobs):
        result = train(blob_config(easy_blobs, epochs=2),
                       easy_blobs.subset("train"), easy_blobs.subset("dev"))
        params = result.params
        tensors = tensors_of(params)
        assert params.flat.size == sum(t.size for t in tensors)
        for t in tensors:
            assert np.shares_memory(t, params.flat)

    def test_different_seeds_differ(self, easy_blobs):
        r1 = train(blob_config(easy_blobs, seed=0, epochs=2),
                   easy_blobs.subset("train"), easy_blobs.subset("dev"))
        r2 = train(blob_config(easy_blobs, seed=1, epochs=2),
                   easy_blobs.subset("train"), easy_blobs.subset("dev"))
        assert not np.array_equal(r1.params.weights[0], r2.params.weights[0])

    def test_separable_blobs_reach_high_f1(self, easy_blobs):
        cfg = blob_config(easy_blobs, epochs=20, patience=5)
        result = train(cfg, easy_blobs.subset("train"), easy_blobs.subset("dev"))
        assert result.best_metric >= 0.95

    def test_best_params_match_best_epoch_metric(self, easy_blobs):
        from bottletree import metrics as M

        cfg = blob_config(easy_blobs, epochs=6)
        result = train(cfg, easy_blobs.subset("train"), easy_blobs.subset("dev"))
        X_dev, y_dev = easy_blobs.subset("dev")
        preds = predict(result.params, X_dev, cfg.task)
        dev_f1 = M.macro_f1(preds, y_dev, 2)
        assert dev_f1 == pytest.approx(result.best_metric, abs=1e-12)
        assert result.best_metric == pytest.approx(
            max(row["dev_metric"] for row in result.history), abs=1e-12)

    def test_label_memberships_are_built_once_per_train(self, easy_blobs, monkeypatch):
        built = []

        def counting(task, y):
            built.append(np.shape(y))
            return batch_assignment(task, y)

        monkeypatch.setattr(training, "batch_assignment", counting)
        X, y = easy_blobs.subset("train")
        result = train(blob_config(easy_blobs, epochs=3), (X, y), easy_blobs.subset("dev"))
        assert len(result.history) == 3 and built == [y.shape]

    def test_early_stopping_halts_after_patience(self, easy_blobs):
        # lr=1e-300 -> every update is below an ulp of the weights it moves ->
        # the dev metric never improves after epoch 0
        cfg = blob_config(easy_blobs, lr=1e-300, epochs=8, patience=2)
        result = train(cfg, easy_blobs.subset("train"), easy_blobs.subset("dev"))
        assert len(result.history) == 4  # epoch 0 improves, then patience+1 bad ones

    def test_two_samples_average_two_draws(self, easy_blobs, monkeypatch):
        from bottletree import training

        first = []

        def recording(params, xb, assignment, yb, *, noise, **kwargs):
            both = combined_loss(params, xb, assignment, yb, noise=noise, **kwargs)
            if not first:
                first.append((noise, both, [
                    combined_loss(params, xb, assignment, yb, noise=draw[None], **kwargs)
                    for draw in noise]))
            return both

        monkeypatch.setattr(training, "combined_loss", recording)
        cfg = blob_config(easy_blobs, gamma=1.0, epochs=1, patience=0,
                          samples_per_input=2)
        train(cfg, easy_blobs.subset("train"), easy_blobs.subset("dev"))
        noise, both, singles = first[0]
        assert noise.shape[0] == 2
        for term in ("task", "se"):
            values = [getattr(one, term).item() for one in singles]
            assert values[0] != values[1]
            assert getattr(both, term).item() == pytest.approx(np.mean(values), abs=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_payload(self, easy_blobs):
        # features large enough to overflow mu^2 in the KL term
        cfg = blob_config(easy_blobs, beta=1.0, epochs=3)
        X, y = easy_blobs.subset("train")
        with pytest.raises(TrainingDiverged) as excinfo:
            train(cfg, (X * 1e200, y), easy_blobs.subset("dev"))
        assert excinfo.value.step > 0
        assert "total" in excinfo.value.breakdown

    def test_graph_memory_stays_below_one_split_graph(self):
        import tracemalloc

        n = 3000
        rng = np.random.default_rng(51)
        X, y = rng.standard_normal((n, 8)), rng.uniform(0.0, 5.0, size=n)
        cfg = TrainConfig(task=RegressionTask(make_bins(0.0, 5.0, 5)), hidden=(16,))
        params = init_params(8, cfg.hidden, cfg.task.latent_dim, seed=0)
        tracemalloc.start()
        try:
            evaluate(params, X, y, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n  # one n x n float64 graph

    def test_empty_split_rejected(self, easy_blobs):
        cfg = blob_config(easy_blobs)
        X, y = easy_blobs.subset("train")
        with pytest.raises(ValueError):
            train(cfg, (X[:0], y[:0]), easy_blobs.subset("dev"))

    def test_dev_predictions_record_no_tape(self, easy_blobs, monkeypatch):
        # Neither the steps nor the dev forwards record a tape node.
        from bottletree import training

        nodes, dev_params = [], []
        original = Tensor._from_op

        def counting(*args):
            nodes.append(1)
            return original(*args)

        def recording_predict(params, X, task):
            dev_params.append(params)
            return predict(params, X, task)

        monkeypatch.setattr(Tensor, "_from_op", staticmethod(counting))
        monkeypatch.setattr(training, "predict", recording_predict)
        train(blob_config(easy_blobs, epochs=2), easy_blobs.subset("train"),
              easy_blobs.subset("dev"))
        assert len(dev_params) == 2 and not nodes
        assert all(isinstance(w, np.ndarray) and w.ndim == 2
                   for params in dev_params for w in params.weights)

    def test_one_seed_of_train_seeds_is_train(self, easy_blobs):
        cfg = blob_config(easy_blobs, epochs=3, gamma=1.0)
        solo = train(cfg, easy_blobs.subset("train"), easy_blobs.subset("dev"))
        (stacked,) = train_seeds([cfg], easy_blobs.subset("train"), easy_blobs.subset("dev"))
        assert stacked.params.flat.tobytes() == solo.params.flat.tobytes()
        assert stacked.history == solo.history


def lockstep_case(name):
    """(dataset, config) of one lockstep-vs-solo grid case, seed 0."""
    name = name.removesuffix("-tiles")
    if name == "regression-soft":
        ds = gen_regression(240, 4, noise_std=0.2, lo=0.0, hi=5.0, seed=33)
        return ds, TrainConfig(task=RegressionTask(make_bins(0.0, 5.0, 5)), beta=0.01,
                               gamma=0.5, lr=1e-2, epochs=4, patience=2, batch_size=32,
                               hidden=(8,))
    ds = gen_blobs(3, 240, 5, spread=0.5, seed=34)
    overrides = {"early-stop": {"patience": 1, "lr": 3e-2},
                 "two-samples": {"samples_per_input": 2},
                 "mu-graph": {"use_mu_for_graph": True}}[name]
    return ds, blob_config(ds, **{"gamma": 1.0, "epochs": 6, "patience": 3,
                                  "batch_size": 24, "hidden": (8,), **overrides})


class TestLockstep:
    @pytest.mark.parametrize("name", ["early-stop", "regression-soft", "two-samples",
                                      "mu-graph", "regression-soft-tiles",
                                      "two-samples-tiles"])
    def test_every_seed_matches_its_solo_run(self, monkeypatch, name):
        if name.endswith("-tiles"):
            # Ragged multi-tile graphs everywhere: 7-row tiles at B=32, 10 at
            # B=24, 15 at a last batch of 16 and 5 at the 48-row dev and test
            # splits.
            monkeypatch.setattr(entropy, "SE_BLOCK_ENTRIES", 240)
        ds, config = lockstep_case(name)
        configs = [replace(config, seed=seed) for seed in range(4)]
        stacked = train_seeds(configs, ds.subset("train"), ds.subset("dev"))
        for cfg, result in zip(configs, stacked):
            solo = train(cfg, ds.subset("train"), ds.subset("dev"))
            assert result.history == solo.history
            assert result.best_epoch == solo.best_epoch
            assert result.params.flat.tobytes() == solo.params.flat.tobytes()
            assert (evaluate(result.params, *ds.subset("test"), cfg).to_json_dict()
                    == evaluate(solo.params, *ds.subset("test"), cfg).to_json_dict())
        if name == "early-stop":  # seeds leave the stack at different epochs
            assert len({len(r.history) for r in stacked}) > 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_gradient_divergence_names_its_row_and_parameter(self):
        # Seed 2 sends a nan into its second layer's weight gradient at step 1
        # (see ``gradient_overflow_blobs``); seed 1's first step is finite.
        ds = gradient_overflow_blobs()
        configs = [TrainConfig(task=ClassificationTask(3), seed=seed, epochs=3, patience=2,
                               batch_size=16, hidden=(1, 1), lr=0.01) for seed in (1, 2)]
        with pytest.raises(TrainingDiverged) as stacked:
            train_seeds(configs, ds.subset("train"), ds.subset("dev"))
        assert stacked.value.what == "gradient" and stacked.value.step == 1
        assert stacked.value.parameter == {"row": 1, "layer": 1, "tensor": "weight",
                                           "index": [0, 0]}
        with pytest.raises(TrainingDiverged) as solo:
            train(configs[1], ds.subset("train"), ds.subset("dev"))
        assert solo.value.parameter == {**stacked.value.parameter, "row": 0}
        assert stacked.value.breakdown == solo.value.breakdown

    def test_configs_must_differ_only_in_seed(self, easy_blobs):
        configs = [blob_config(easy_blobs), blob_config(easy_blobs, seed=1, lr=0.1)]
        with pytest.raises(ValueError, match="only in their seed"):
            train_seeds(configs, easy_blobs.subset("train"), easy_blobs.subset("dev"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("case", ["loss", "logits", "one-row"])
    def test_sweep_group_with_failing_seeds_records_their_solo_errors(self, tmp_path, case):
        # lr 1e100 overflows every seed's loss at step 2; lr 1e200 overflows
        # the logits first (the softmax's NonFiniteError, raised as a
        # TrainingDiverged without loss terms); one extreme train row
        # overflows the KL in whichever batch each seed's shuffle puts it, so
        # the seeds diverge at different steps.
        ds = gen_blobs(3, 120, 5, spread=0.4, seed=1)
        if case == "one-row":
            ds.X[ds.indices("train")[7]] *= 1e200
        save_csv(ds, tmp_path / "blobs.csv")
        kwargs = {"lr": {"loss": 1e100, "logits": 1e200, "one-row": 1e-2}[case],
                  "epochs": 3, "patience": 2, "batch_size": 16, "hidden": (8,)}
        spec = ExperimentSpec(data_path=str(tmp_path / "blobs.csv"),
                              task_kind="classification", betas=(0.01,), gammas=(1.0,),
                              seeds=(0, 1, 2), out_dir=str(tmp_path / "out"),
                              train_kwargs=kwargs)
        assert run_sweep(spec) == {"cells": 3, "succeeded": 0, "failed": 3}
        errors = json.loads((tmp_path / "out" / "errors.json").read_text())
        for entry, seed in zip(errors, spec.seeds):
            cfg = TrainConfig(task=ClassificationTask(3), gamma=1.0, seed=seed, **kwargs)
            with pytest.raises(Exception) as solo:
                train(cfg, ds.subset("train"), ds.subset("dev"))
            assert entry == {"cell": f"run_b0.01_g1_pnone_s{seed}",
                             "error": f"{type(solo.value).__name__}: {solo.value}"}
        distinct = len({entry["error"] for entry in errors})
        assert distinct > 1 if case == "one-row" else distinct == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_the_diverging_seed_not_the_first_row(self):
        # One extreme train row overflows the KL in whichever batch each seed's
        # shuffle puts it; the stack is ordered so the first seed to diverge is
        # not row 0, and its payload must be that seed's solo payload.
        ds = gen_blobs(3, 120, 5, spread=0.4, seed=1)
        ds.X[ds.indices("train")[7]] *= 1e200
        train_set, dev_set = ds.subset("train"), ds.subset("dev")
        kwargs = {"lr": 1e-2, "epochs": 3, "patience": 2, "batch_size": 16, "hidden": (8,)}
        solo = {}
        for seed in range(4):
            with pytest.raises(TrainingDiverged) as exc:
                train(TrainConfig(task=ClassificationTask(3), seed=seed, **kwargs),
                      train_set, dev_set)
            solo[seed] = exc.value
        first = min(solo, key=lambda seed: solo[seed].step)
        assert solo[first].step < max(s.step for s in solo.values())
        seeds = sorted(solo, key=lambda seed: seed == first)  # first to diverge last
        with pytest.raises(TrainingDiverged) as stacked:
            train_seeds([TrainConfig(task=ClassificationTask(3), seed=seed, **kwargs)
                         for seed in seeds], train_set, dev_set)
        assert stacked.value.step == solo[first].step
        assert list(stacked.value.breakdown) == list(solo[first].breakdown)
        assert np.array_equal(list(stacked.value.breakdown.values()),
                              list(solo[first].breakdown.values()), equal_nan=True)
        assert not np.isfinite(stacked.value.breakdown["total"])


class TestRegressionTraining:
    def test_learns_monotone_signal(self):
        ds = gen_regression(400, 4, noise_std=0.05, lo=0.0, hi=5.0, seed=31)
        cfg = TrainConfig(task=RegressionTask(make_bins(0.0, 5.0, 5)),
                          beta=0.01, gamma=0.1, lr=1e-2, epochs=15, patience=5,
                          batch_size=32, seed=0, hidden=(16,))
        result = train(cfg, ds.subset("train"), ds.subset("dev"))
        report = evaluate(result.params, *ds.subset("test"), cfg)
        assert report.spearman is not None and report.spearman > 0.6


class TestEvaluate:
    def test_memorized_toy_task_scores_one(self):
        ds = gen_blobs(2, 80, 4, spread=0.05, seed=41)
        cfg = blob_config(ds, epochs=20, patience=20, batch_size=16, lr=5e-2)
        result = train(cfg, ds.subset("train"), ds.subset("train"))
        report = evaluate(result.params, *ds.subset("train"), cfg)
        assert report.macro_f1 == 1.0

    def test_repeated_evaluation_identical(self, easy_blobs):
        cfg = blob_config(easy_blobs, epochs=2)
        result = train(cfg, easy_blobs.subset("train"), easy_blobs.subset("dev"))
        r1 = evaluate(result.params, *easy_blobs.subset("test"), cfg)
        r2 = evaluate(result.params, *easy_blobs.subset("test"), cfg)
        assert r1.to_json_dict() == r2.to_json_dict()

    @pytest.mark.parametrize("kind", ["classification", "regression"])
    def test_the_split_is_encoded_once(self, monkeypatch, kind):
        if kind == "classification":
            ds, cfg = gen_blobs(3, 90, 4, 0.5, seed=5), TrainConfig(task=ClassificationTask(3))
        else:
            ds = gen_regression(90, 4, 0.1, lo=0.0, hi=5.0, seed=5)
            cfg = TrainConfig(task=RegressionTask(make_bins(0.0, 5.0, 4)))
        params = init_params(4, cfg.hidden, cfg.task.latent_dim, seed=3)
        X, y = ds.subset("test")
        preds = predict(params, X, cfg.task)
        encoded, original = [], coder.encode

        def counting(*args):
            encoded.append(1)
            return original(*args)

        monkeypatch.setattr(coder, "encode", counting)
        monkeypatch.setattr(training, "encode", counting)
        report = evaluate(params, X, y, cfg)
        assert len(encoded) == 1
        if kind == "classification":  # the scores of ``predict``'s classes
            assert report.per_class_f1 == loop_f1_and_recall(preds, y, 3)[0].tolist()
            assert report.accuracy == float(np.mean(preds == y))
        else:
            assert report.spearman == M.spearman(preds, y)

    def test_regression_eval_on_perfect_predictor_data(self):
        # identity network cannot be constructed directly; instead check the
        # metric path: predictions equal to targets give both correlations 1
        from bottletree.metrics import pearson, spearman

        y = np.linspace(0.0, 5.0, 50)
        assert pearson(y, y) == pytest.approx(1.0)
        assert spearman(y, y) == pytest.approx(1.0)

    def test_loss_breakdown_identity(self, easy_blobs):
        cfg = blob_config(easy_blobs, epochs=1, gamma=0.5)
        result = train(cfg, easy_blobs.subset("train"), easy_blobs.subset("dev"))
        report = evaluate(result.params, *easy_blobs.subset("test"), cfg)
        loss = report.loss
        assert loss["total"] == pytest.approx(
            loss["task"] + cfg.beta * loss["kl"] - cfg.gamma * loss["se"],
            abs=1e-12)

    def test_empty_split_rejected(self, easy_blobs):
        cfg = blob_config(easy_blobs)
        result = train(cfg, easy_blobs.subset("train"), easy_blobs.subset("dev"))
        X, y = easy_blobs.subset("test")
        with pytest.raises(ValueError):
            evaluate(result.params, X[:0], y[:0], cfg)


def test_history_csv_columns(tmp_path, easy_blobs):
    cfg = blob_config(easy_blobs, epochs=2)
    result = train(cfg, easy_blobs.subset("train"), easy_blobs.subset("dev"))
    path = tmp_path / "history.csv"
    write_csv(path, HISTORY_FIELDS, result.history)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,task,kl,se,total,dev_metric"
    assert len(lines) == 1 + len(result.history)


def test_failed_write_leaves_path_and_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    path.write_text("earlier run\n")

    def dump_half(doc, fh, **kwargs):
        fh.write('{"epoch": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_half)
    with pytest.raises(OSError, match="disk full"):
        write_json(path, {"epoch": 1})
    assert path.read_text() == "earlier run\n"
    assert os.listdir(tmp_path) == ["report.json"]  # no report.json.tmp
