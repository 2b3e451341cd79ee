import numpy as np
import pytest

from bottletree.coder import combined_loss, init_params
from bottletree.datasets import gen_blobs, gen_regression
from bottletree.softbins import make_bins
from bottletree.training import (Adam, ClassificationTask, RegressionTask,
                                 TrainConfig, TrainingDiverged, evaluate,
                                 predict, train, write_history_csv)


def blob_config(ds, **overrides):
    kwargs = dict(task=ClassificationTask(ds.num_classes), beta=0.01, gamma=0.0,
                  lr=1e-2, epochs=8, patience=3, batch_size=32, seed=0,
                  hidden=(16,))
    kwargs.update(overrides)
    kwargs["patience"] = min(kwargs["patience"], kwargs["epochs"])
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
            TrainConfig(task=task, patience=30, epochs=20)
        with pytest.raises(ValueError):
            TrainConfig(task=task, batch_size=1)

    def test_echo_round_trips_to_json(self):
        import json

        cfg = TrainConfig(task=RegressionTask(make_bins(0, 5, 5)))
        json.dumps(cfg.echo())


class TestAdam:
    def test_flat_step_matches_per_tensor_updates_bit_for_bit(self):
        # Reference: the same elementwise formula applied tensor by tensor.
        params = init_params(5, (7, 3), 2, seed=4)
        tensors = params.all_tensors()
        ref_values = [t.values.copy() for t in tensors]
        ref_m = [np.zeros(t.shape) for t in tensors]
        ref_v = [np.zeros(t.shape) for t in tensors]
        opt = Adam(params, lr=0.05)
        b1, b2, eps = opt.beta1, opt.beta2, opt.eps
        rng = np.random.default_rng(3)
        for step, scale in enumerate((0.25, 1.0, 1.0), start=1):
            grads = [rng.standard_normal(t.shape) for t in tensors]
            for t, g in zip(tensors, grads):
                t.grad = g
            opt.step(lr_scale=scale)
            for i, g in enumerate(grads):
                ref_m[i] = b1 * ref_m[i] + (1 - b1) * g
                ref_v[i] = b2 * ref_v[i] + (1 - b2) * g * g
                m_hat = ref_m[i] / (1 - b1 ** step)
                v_hat = ref_v[i] / (1 - b2 ** step)
                ref_values[i] = ref_values[i] - 0.05 * scale * m_hat / (np.sqrt(v_hat) + eps)
            for t, ref in zip(tensors, ref_values):
                assert np.array_equal(t.values, ref)
                assert np.shares_memory(t.values, params.flat)


class TestTrain:
    def test_single_epoch_when_budget_is_one(self, easy_blobs):
        cfg = blob_config(easy_blobs, epochs=1, patience=0)
        result = train(cfg, easy_blobs.subset("train"), easy_blobs.subset("dev"))
        assert len(result.history) == 1

    def test_identical_seeds_give_bit_identical_params(self, easy_blobs):
        cfg = blob_config(easy_blobs, epochs=3)
        r1 = train(cfg, easy_blobs.subset("train"), easy_blobs.subset("dev"))
        r2 = train(cfg, easy_blobs.subset("train"), easy_blobs.subset("dev"))
        for a, b in zip(r1.params.all_tensors(), r2.params.all_tensors()):
            assert np.array_equal(a.values, b.values)
        assert r1.history == r2.history

    def test_trained_params_stay_views_of_the_flat_vector(self, easy_blobs):
        result = train(blob_config(easy_blobs, epochs=2),
                       easy_blobs.subset("train"), easy_blobs.subset("dev"))
        params = result.params
        tensors = params.all_tensors()
        assert params.flat.size == sum(t.size for t in tensors)
        for t in tensors:
            assert np.shares_memory(t.values, params.flat)

    def test_different_seeds_differ(self, easy_blobs):
        r1 = train(blob_config(easy_blobs, seed=0, epochs=2),
                   easy_blobs.subset("train"), easy_blobs.subset("dev"))
        r2 = train(blob_config(easy_blobs, seed=1, epochs=2),
                   easy_blobs.subset("train"), easy_blobs.subset("dev"))
        assert not np.array_equal(r1.params.all_tensors()[0].values,
                                  r2.params.all_tensors()[0].values)

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

    def test_early_stopping_halts_after_patience(self, easy_blobs):
        # lr=0 -> no parameter changes -> dev metric never improves after epoch 0
        cfg = blob_config(easy_blobs, lr=0.0, epochs=8, patience=2)
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
    write_history_csv(result.history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,task,kl,se,total,dev_metric"
    assert len(lines) == 1 + len(result.history)
