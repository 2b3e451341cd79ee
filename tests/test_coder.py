import json
import math
import os
import warnings

import numpy as np
import pytest
from tape import Tensor
from tape_reference import constant, parameter, tape_step

from bottletree import autodiff, coder
from bottletree.autodiff import LOG_EPS, DimensionError, finite_difference_check
from bottletree.coder import (LOGVAR_MAX, LOGVAR_MIN, combined_loss, encode,
                              init_params, kl_to_standard_normal, reparameterize,
                              save_checkpoint, task_loss)
from bottletree.entropy import hard_assignment, se_loss
from bottletree.softbins import make_bins
from bottletree.training import ClassificationTask, RegressionTask, batch_assignment


def onehot(labels, num_classes):
    """The one-hot targets ``task_loss`` takes for classification."""
    return hard_assignment(labels, num_classes)


def zero_params(input_dim=3, hidden=(4,), latent=2):
    params = init_params(input_dim, hidden, latent, seed=0)
    params.flat[:] = 0.0
    return params


# Composite tape forms of the closed-form heads in ``coder``: the references
# they are pinned against.

def composite_kl(post):
    mu, logvar = post
    var = logvar.exp()
    per_sample = ((mu * mu + var - 1.0 - logvar) * 0.5).sum(axis=1)
    return per_sample.mean()


def composite_reparameterize(post, noise):
    mu, logvar = post
    return mu + (logvar * 0.5).exp() * constant(noise)


def composite_cross_entropy(logits, labels):
    onehot = np.zeros(logits.shape)
    onehot[np.arange(len(labels)), labels] = 1.0
    true_prob = (logits.softmax(axis=1) * constant(onehot)).sum(axis=1)
    return -(true_prob.log().mean())


def composite_squared_error(z, targets):
    d = z - constant(np.asarray(targets)[:, None])
    return (d * d).mean()


def loss_and_grad(params, *args, **kwargs):
    """``f(flat) -> (loss, gradient)`` of ``combined_loss`` at ``params``'s layout."""
    def f(flat):
        bd = combined_loss(params.like(flat), *args, **kwargs)
        return bd.total.sum(), bd.grad
    return f


class TestEncode:
    def test_zero_params_give_zero_posterior(self):
        params = zero_params()
        mu, logvar, _ = encode(params, np.random.default_rng(0).standard_normal((5, 3)))
        np.testing.assert_array_equal(mu, np.zeros((5, 2)))
        np.testing.assert_array_equal(logvar, np.zeros((5, 2)))

    def test_output_shapes(self):
        params = init_params(6, (8, 4), 3, seed=1)
        mu, logvar, _ = encode(params, np.zeros((7, 6)))
        assert mu.shape == (7, 3)
        assert logvar.shape == (7, 3)

    def test_input_dim_mismatch(self):
        params = init_params(6, (8,), 3, seed=1)
        with pytest.raises(DimensionError):
            encode(params, np.zeros((7, 5)))

    def test_logvar_clamped(self):
        params = init_params(2, (), 1, seed=2)
        params.weights[0][...] = 100.0
        _, logvar, backward = encode(params, [[5.0, 5.0]])
        assert logvar[0, 0] == 10.0
        grad = params.like(backward(np.ones((1, 1)), np.ones((1, 1))))
        assert grad.weights[0][:, 0].all() and not grad.weights[0][:, 1].any()

    def test_sigmoid_saturates_to_exact_zeros_without_warning(self):
        # pre-activations of -1000 and -1750: exp(-x) overflows, so the hidden
        # units are exactly 0, and the encoder lets no RuntimeWarning out
        params = init_params(2, (4,), 1, seed=3, activation="sigmoid")
        params.weights[0][...] = -100.0
        params.biases[1][...] = 0.25
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mu, logvar, backward = encode(params, [[5.0, 5.0], [10.0, 7.5]])
            grad = params.like(backward(np.ones((2, 1)), np.ones((2, 1))))
        assert (mu == 0.25).all() and (logvar == 0.25).all()
        assert np.isfinite(grad.flat).all()
        assert not grad.weights[1].any()  # the hidden units it reads are 0

    @pytest.mark.parametrize("trial", range(3))
    def test_first_layer_gradient(self, trial):
        rng = np.random.default_rng(10 + trial)
        params = init_params(4, (6,), 2, seed=trial)
        x = rng.standard_normal((5, 4))
        first = params.weights[0].size

        def f(w):  # the first layer's weights, the rest held at params
            flat = params.flat.copy()
            flat[:first] = w.reshape(-1)
            mu, logvar, backward = encode(params.like(flat), x)
            return mu.sum(), backward(np.ones(mu.shape), np.zeros(logvar.shape))[:first]

        assert finite_difference_check(f, params.weights[0].copy(), h=1e-6) < 1e-6


class TestReparameterize:
    def test_identity_when_standard(self):
        n = np.random.default_rng(0).standard_normal((4, 2))
        np.testing.assert_array_equal(reparameterize(np.zeros((4, 2)), np.zeros((4, 2)), n)[0], n)

    def test_collapses_to_mu_at_clamped_floor(self):
        mu = np.array([[1.5, -2.0]])
        noise = np.array([[3.0, -3.0]])
        z = reparameterize(mu, np.full((1, 2), -10.0), noise)[0]
        np.testing.assert_allclose(z, mu, atol=math.exp(-5) * 3)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            reparameterize(np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((4, 3)))

    def test_empirical_moments(self):
        rng = np.random.default_rng(42)
        mu, logvar = 0.3, 0.4
        n = 1_000_000
        noise = rng.standard_normal((n, 1))
        sigma = math.exp(0.5 * logvar)
        z = reparameterize(np.full((n, 1), mu), np.full((n, 1), logvar), noise)[0][:, 0]
        se_mean = sigma / math.sqrt(n)
        assert abs(z.mean() - mu) < 3 * se_mean
        se_std = sigma / math.sqrt(2 * (n - 1))
        assert abs(z.std(ddof=1) - sigma) < 3 * se_std

    def test_gradient_through_sampling(self):
        rng = np.random.default_rng(3)
        post = np.stack([rng.standard_normal((3, 2)), rng.standard_normal((3, 2)) * 0.1])
        noise = rng.standard_normal((3, 2))

        def f(x):  # x is (mu, logvar)
            z, backward = reparameterize(x[0], x[1], noise)
            return (z * z).sum(), np.stack(backward(2.0 * z))

        assert finite_difference_check(f, post, h=1e-6) < 1e-6


class TestKL:
    def test_standard_posterior_is_zero(self):
        assert kl_to_standard_normal(np.zeros((3, 2)), np.zeros((3, 2)))[0] == 0.0

    def test_unit_mean_one_dim(self):
        assert kl_to_standard_normal(np.array([[1.0]]), np.array([[0.0]]))[0] == (
            pytest.approx(0.5))

    def test_non_negative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            kl = kl_to_standard_normal(rng.standard_normal((2, 3)), rng.uniform(-2, 2, (2, 3)))
            assert kl[0] >= 0.0

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(5)
        mu = rng.standard_normal((1, 3))
        logvar = rng.uniform(-1, 1, (1, 3))
        closed = float(kl_to_standard_normal(mu, logvar)[0])
        sigma = np.exp(0.5 * logvar[0])
        z = mu[0] + sigma * rng.standard_normal((1_000_000, 3))
        log_ratio = (-0.5 * (logvar[0] + ((z - mu[0]) / sigma) ** 2)
                     + 0.5 * z ** 2).sum(axis=1)
        assert closed == pytest.approx(log_ratio.mean(), abs=1e-2)


class TestPredictions:
    def test_classification_uniform(self):
        logits = np.array([[0.0, 0.0]])
        np.testing.assert_allclose(autodiff.softmax_values(logits, 1), [[0.5, 0.5]])
        for label in (0, 1):
            assert task_loss(logits, onehot([label], 2), "classification")[0] == pytest.approx(
                math.log(2.0))

    def test_classification_shift_invariance(self):
        z = np.random.default_rng(1).standard_normal((4, 3))
        labels = [0, 2, 1, 1]
        a = task_loss(z, onehot(labels, 3), "classification")[0]
        b = task_loss(z + 7.0, onehot(labels, 3), "classification")[0]
        assert a == pytest.approx(b, abs=1e-12)

    def test_classification_argmax(self):
        logits = np.array([[2.0, 0.0]])
        assert np.argmax(autodiff.softmax_values(logits, 1)[0]) == 0
        assert (task_loss(logits, onehot([0], 2), "classification")[0]
                < task_loss(logits, onehot([1], 2), "classification")[0])

    def test_classification_dim_mismatch(self):
        params = init_params(3, (4,), 2, seed=0)
        y = np.array([0, 1, 2, 0])
        with pytest.raises(DimensionError, match="one target per row of its latent"):
            combined_loss(params, np.zeros((4, 3)), hard_assignment(y, 3), y,
                          kind="classification", beta=0.1, gamma=1.0,
                          noise=np.zeros((1, 4, 2)))

    def test_regression_identity(self):
        # the 1-d latent is the prediction: a latent equal to its target costs nothing
        assert task_loss(np.array([[0.7], [-1.5]]), [0.7, -1.5], "regression")[0] == 0.0

    def test_regression_needs_one_dim(self):
        with pytest.raises(DimensionError):
            task_loss(np.array([[0.7, 0.1]]), [0.7], "regression")

    def test_regression_gradient_through_mse(self):
        rng = np.random.default_rng(2)
        target = rng.standard_normal(5)

        def f(z):
            loss, backward = task_loss(z, target, "regression")
            return loss, backward(np.ones(()))

        assert finite_difference_check(f, rng.standard_normal((5, 1)), h=1e-6) < 1e-6


class TestTaskLoss:
    def test_perfect_prediction_near_zero_ce(self):
        pred = np.array([[40.0, 0.0], [0.0, 40.0]])
        loss = task_loss(pred, onehot([0, 1], 2), "classification")[0]
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_uniform_prediction_is_log_r(self):
        r = 4
        loss = task_loss(np.zeros((3, r)), onehot([0, 1, 2], r), "classification")[0]
        assert loss == pytest.approx(math.log(r))

    def test_mse_zero_on_match(self):
        pred = np.array([[1.0], [2.0], [3.0]])
        assert task_loss(pred, [1.0, 2.0, 3.0], "regression")[0] == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            task_loss(np.array([1.0]), [1.0], "huber")

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            task_loss(np.array([[1.0], [2.0]]), [1.0], "regression")
        with pytest.raises(DimensionError):  # labels, not their one-hot rows
            task_loss(np.zeros((2, 3)), [0, 1], "classification")


def assert_close(fused, composite):
    scale = max(1.0, float(np.abs(composite).max()))
    assert np.abs(fused - composite).max() <= 1e-12 * scale


class TestFusedHeads:
    """Each closed-form head against its composite tape form."""

    @staticmethod
    def posterior_arrays(seed):
        rng = np.random.default_rng(seed)
        mu = rng.standard_normal((6, 3))
        logvar = rng.uniform(-3.0, 3.0, (6, 3))
        logvar[0, 0], logvar[1, 2] = LOGVAR_MIN, LOGVAR_MAX
        return mu, logvar, rng

    @staticmethod
    def run(build, arrays):
        params = [parameter(a) for a in arrays]
        out = build(*params)
        out.backward()
        return out.values, [p.grad for p in params]

    @pytest.mark.parametrize("seed", range(3))
    def test_kl(self, seed):
        mu, logvar, _ = self.posterior_arrays(seed)
        fused, backward = kl_to_standard_normal(mu, logvar)
        ref, ref_grads = self.run(lambda m, lv: composite_kl((m, lv)) * 3.0, [mu, logvar])
        assert np.array_equal(fused * 3.0, ref)
        for a, b in zip(backward(np.asarray(3.0)), ref_grads):
            assert_close(a, b)

    @pytest.mark.parametrize("seed", range(3))
    def test_reparameterize(self, seed):
        mu, logvar, rng = self.posterior_arrays(seed)
        noise = rng.standard_normal(mu.shape)
        weights = rng.standard_normal(mu.shape)
        fused_z, backward = reparameterize(mu, logvar, noise)
        ref_z, ref_grads = self.run(lambda m, lv: (composite_reparameterize(
            (m, lv), noise) * constant(weights)).sum(), [mu, logvar])
        assert np.array_equal(fused_z, composite_reparameterize(
            (constant(mu), constant(logvar)), noise).values)
        for a, b in zip(backward(weights), ref_grads):
            assert_close(a, b)

    @pytest.mark.parametrize("seed", range(3))
    def test_cross_entropy(self, seed):
        rng = np.random.default_rng(seed)
        logits = 3.0 * rng.standard_normal((8, 4))
        labels = rng.integers(0, 4, size=8)
        logits[0, labels[0]] -= 40.0  # true-class probability below LOG_EPS
        fused, backward = task_loss(logits, onehot(labels, 4), "classification")
        ref, (ref_grad,) = self.run(lambda z: composite_cross_entropy(z, labels) * 3.0,
                                    [logits])
        assert np.array_equal(fused * 3.0, ref)
        fused_grad = backward(np.asarray(3.0))
        assert_close(fused_grad, ref_grad)
        probs = np.exp(logits[0] - logits[0].max())
        assert probs[labels[0]] / probs.sum() < LOG_EPS
        assert not fused_grad[0].any()
        assert fused_grad[1:].any(axis=1).all()

    @pytest.mark.parametrize("n", [2, 7, 64, 1024, 6000])
    def test_squared_error(self, n):
        rng = np.random.default_rng(n)
        z = 2.0 * rng.standard_normal((n, 1))
        targets = rng.uniform(0.0, 5.0, size=n)
        fused, backward = task_loss(z, targets, "regression")
        ref, (ref_grad,) = self.run(lambda z: composite_squared_error(z, targets) * 3.0, [z])
        assert np.array_equal(fused * 3.0, ref)
        assert np.array_equal(backward(np.asarray(3.0)), ref_grad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_cross_entropy_rejects_non_finite_logits(self, bad):
        logits = np.zeros((2, 3))
        logits[1, 2] = bad
        with pytest.raises(ValueError, match="softmax needs finite inputs"):
            task_loss(logits, onehot([0, 1], 3), "classification")
        with pytest.raises(ValueError, match="softmax needs finite inputs"):
            composite_cross_entropy(parameter(logits), [0, 1])


def step_case(kind="classification", stack=None, *, hard=False, samples=1,
              use_mu_for_graph=False, activation="relu", clamp=False, floor=False,
              gamma=0.7, hidden=(8, 5), n=12, seed=0):
    """(params, inputs, assignment, targets, keyword arguments) of one step.

    ``stack`` is None for one model, or the S of an (S, P) stack with its own
    init per row.  ``clamp`` scales the log-variance head until some raw
    log-variances pass the clamp; ``floor`` scales the logits until some
    true-class probability falls below LOG_EPS.
    """
    rng = np.random.default_rng(seed)
    task = (ClassificationTask(3) if kind == "classification"
            else RegressionTask(make_bins(0.0, 5.0, 4), soft_labels=not hard))
    inits = [init_params(4, hidden, task.latent_dim, seed=seed + s, activation=activation)
             for s in range(stack or 1)]
    params = inits[0].like(np.stack([p.flat for p in inits]) if stack else inits[0].flat)
    rows = (stack, n) if stack else (n,)
    X = rng.standard_normal(rows + (4,))
    y = (rng.integers(0, 3, size=rows) if kind == "classification"
         else rng.uniform(0.0, 5.0, size=rows))
    latent = task.latent_dim
    if clamp:
        params.weights[-1][..., latent:] *= 30.0
        params.biases[-1][..., latent:] = 9.0
    if floor:
        params.weights[-1][..., :latent] *= 60.0
    noise = rng.standard_normal((samples,) + rows + (latent,))
    kwargs = dict(kind=kind, beta=0.3, gamma=gamma, noise=noise,
                  use_mu_for_graph=use_mu_for_graph)
    return params, X, batch_assignment(task, y), y, kwargs


class TestTotalLoss:
    """``combined_loss``'s total, task + beta*kl - gamma*se, on one fixed batch."""

    def breakdown(self, beta, gamma, stack=None):
        params, *args, kwargs = step_case(stack=stack)
        return combined_loss(params, *args, **{**kwargs, "beta": beta, "gamma": gamma})

    def test_gamma_zero_recovers_bottleneck_objective(self):
        bd = self.breakdown(0.1, 0.0)
        assert bd.se > 0.0
        assert bd.total == bd.task + 0.1 * bd.kl

    def test_beta_gamma_zero_is_task(self):
        bd = self.breakdown(0.0, 0.0)
        assert bd.kl > 0.0 and bd.se > 0.0
        assert bd.total == bd.task

    def test_entropy_increase_decreases_total(self, monkeypatch):
        delta = 0.7
        lo = self.breakdown(1.0, 1.0)

        def se_plus_delta(*args):
            se, backward = se_loss(*args)
            return se + delta, backward

        monkeypatch.setattr(coder, "se_loss", se_plus_delta)
        hi = self.breakdown(1.0, 1.0)
        assert (hi.task, hi.kl, hi.se) == (lo.task, lo.kl, lo.se + delta)
        assert lo.total - hi.total == pytest.approx(delta)

    def test_identity_holds_to_machine_precision(self):
        for stack in (None, 6):  # exactly, for one model and for each row of a stack
            bd = self.breakdown(np.float32(0.37), 2.2, stack)
            assert type(bd.beta) is float and type(bd.gamma) is float
            assert bd.beta == float(np.float32(0.37))
            assert np.array_equal(bd.total, bd.task + bd.beta * bd.kl - bd.gamma * bd.se)


STEP_GRID = {
    "classification": {},
    "classification-s1": {"stack": 1},
    "classification-s6": {"stack": 6},
    "soft-regression": {"kind": "regression"},
    "soft-regression-s6": {"kind": "regression", "stack": 6},
    "hard-regression": {"kind": "regression", "hard": True},
    "hard-regression-s1": {"kind": "regression", "hard": True, "stack": 1},
    "two-samples": {"samples": 2},
    "two-samples-s6": {"samples": 2, "stack": 6},
    "mu-graph": {"use_mu_for_graph": True},
    "mu-graph-three-samples-s6": {"use_mu_for_graph": True, "samples": 3, "stack": 6},
    "sigmoid": {"activation": "sigmoid"},
    "sigmoid-regression-s6": {"activation": "sigmoid", "kind": "regression", "stack": 6},
    "clamped-logvar": {"clamp": True},
    "clamped-logvar-regression-s6": {"clamp": True, "kind": "regression", "stack": 6},
    "below-ce-floor": {"floor": True},
    "below-ce-floor-s6": {"floor": True, "stack": 6},
    # At gamma=0 the step skips the entropy backward that the tape still runs;
    # the floor case's task gradient holds -0.0 entries.
    "below-ce-floor-gamma0": {"floor": True, "gamma": 0.0},
    "mu-graph-three-samples-s6-gamma0": {"use_mu_for_graph": True, "samples": 3,
                                         "stack": 6, "gamma": 0.0},
}


class TestClosedFormStep:
    """``combined_loss`` pinned to the same step built on the autodiff tape."""

    @pytest.mark.parametrize("case", STEP_GRID)
    def test_loss_and_gradient_equal_the_tape_bit_for_bit(self, case):
        params, *args, kwargs = step_case(**STEP_GRID[case])
        bd = combined_loss(params, *args, **kwargs)
        terms, grad = tape_step(params, *args, **kwargs)
        for name, values in terms.items():
            assert np.asarray(getattr(bd, name)).tobytes() == values.tobytes(), name
        assert bd.grad.shape == params.flat.shape
        assert bd.grad.tobytes() == grad.tobytes()

    @pytest.mark.parametrize("case", ["clamped-logvar", "below-ce-floor"])
    def test_the_grid_reaches_the_clamp_and_the_floor(self, case):
        params, X, assignment, y, kwargs = step_case(**STEP_GRID[case])
        mu, logvar, _ = encode(params, X)
        if case == "clamped-logvar":
            assert (logvar == LOGVAR_MAX).any() and (np.abs(logvar) < LOGVAR_MAX).any()
        else:
            z = mu + np.exp(logvar * 0.5) * kwargs["noise"][0]
            probs = autodiff.softmax_values(z, -1)
            true_prob = probs[np.arange(len(y)), y]
            assert (true_prob < LOG_EPS).any() and (true_prob >= LOG_EPS).any()
            d_z = task_loss(z, assignment, "classification")[1](np.asarray(1.0))
            assert np.signbit(d_z[d_z == 0.0]).any()  # -0.0 task gradients

    @pytest.mark.parametrize("gamma", [0.0, 0.7])
    def test_the_entropy_backward_runs_only_at_nonzero_gamma(self, monkeypatch, gamma):
        asked = []

        def recording(embeddings, assignment, need_grad=False):
            asked.append(need_grad)
            return se_loss(embeddings, assignment, need_grad)

        params, *args, kwargs = step_case(samples=2, gamma=gamma)
        monkeypatch.setattr(coder, "se_loss", recording)
        combined_loss(params, *args, **kwargs)
        assert asked == [gamma != 0.0]  # once for both draws, stacked on one axis

    def test_a_mean_graph_step_forms_its_entropy_once(self, monkeypatch):
        seen = []

        def recording(embeddings, assignment, need_grad=False):
            seen.append(np.shape(embeddings))
            return se_loss(embeddings, assignment, need_grad)

        params, X, *args, kwargs = step_case(samples=3, use_mu_for_graph=True)
        monkeypatch.setattr(coder, "se_loss", recording)
        combined_loss(params, X, *args, **kwargs)
        assert seen == [encode(params, X)[0].shape]  # the posterior mean, not one per draw

    def test_the_step_records_no_tape(self, monkeypatch):
        created = []
        original = Tensor.__init__

        def counting(self, *args, **kwargs):
            created.append(1)
            original(self, *args, **kwargs)

        params, *args, kwargs = step_case(stack=6, samples=2)
        monkeypatch.setattr(Tensor, "__init__", counting)
        combined_loss(params, *args, **kwargs)
        assert not created


class TestFlatGradient:
    """The closed-form flat gradient against central differences, at verify's 1e-4."""

    @pytest.mark.parametrize("case", [
        {"samples": 2}, {"use_mu_for_graph": True}, {"activation": "sigmoid"},
        {"clamp": True}, {"floor": True}, {"stack": 3},
        {"kind": "regression", "hard": True}, {"kind": "regression"},
    ], ids=["two-samples", "mu-graph", "sigmoid", "clamped-logvar", "below-ce-floor",
            "stack-of-three", "hard-regression", "soft-regression"])
    def test_matches_central_differences(self, case):
        params, *args, kwargs = step_case(hidden=(6,), n=8, **case)
        f = loss_and_grad(params, *args, **kwargs)
        assert finite_difference_check(f, params.flat.copy(), h=1e-5) < 1e-4


class TestCombinedLoss:
    def test_full_gradient_classification(self):
        rng = np.random.default_rng(11)
        params = init_params(4, (8,), 3, seed=5)
        X = rng.standard_normal((6, 4))
        y = rng.integers(0, 3, size=6)
        f = loss_and_grad(params, X, hard_assignment(y, 3), y, kind="classification",
                          beta=0.1, gamma=1.0, noise=rng.standard_normal((1, 6, 3)))
        assert finite_difference_check(f, params.flat.copy(), h=1e-5) < 1e-4

    def test_multi_sample_averaging(self):
        rng = np.random.default_rng(12)
        params = init_params(3, (4,), 2, seed=6)
        X = rng.standard_normal((4, 3))
        y = rng.integers(0, 2, size=4)
        assignment = hard_assignment(y, 2)
        noise = rng.standard_normal((3, 4, 2))
        bd = combined_loss(params, X, assignment, y, kind="classification",
                           beta=0.0, gamma=0.0, noise=noise)
        singles = [combined_loss(params, X, assignment, y, kind="classification",
                                 beta=0.0, gamma=0.0, noise=noise[k:k + 1]).task
                   for k in range(3)]
        assert bd.task == pytest.approx(np.mean(singles), abs=1e-12)

    def test_mu_graph_sends_no_entropy_gradient_to_logvar(self):
        # The entropy's share of the gradient is the change from gamma=0 to
        # gamma=1; in the log-variance head it is exactly nothing with the mu graph.
        rng = np.random.default_rng(13)
        params = init_params(3, (4,), 2, seed=7)
        X = rng.standard_normal((6, 3))
        y = rng.integers(0, 2, size=6)
        noise = rng.standard_normal((1, 6, 2))
        for use_mu in (False, True):
            grads = [params.like(combined_loss(
                params, X, hard_assignment(y, 2), y, kind="classification", beta=0.0,
                gamma=gamma, noise=noise, use_mu_for_graph=use_mu).grad)
                for gamma in (0.0, 1.0)]
            # the last layer's columns 2:4 are the log-variance head
            logvar = [np.concatenate([g.weights[-1][:, 2:], g.biases[-1][:, 2:]])
                      for g in grads]
            assert np.array_equal(logvar[0], logvar[1]) == use_mu

    def test_noise_without_the_draw_axis_is_rejected(self):
        rng = np.random.default_rng(16)
        params = init_params(3, (4,), 2, seed=10)
        y = rng.integers(0, 2, size=5)
        with pytest.raises(DimensionError, match="noise must be"):
            combined_loss(params, rng.standard_normal((5, 3)), hard_assignment(y, 2), y,
                          kind="classification", beta=0.1, gamma=1.0,
                          noise=rng.standard_normal((5, 2)))

    def test_unknown_kind_is_rejected(self):
        rng = np.random.default_rng(17)
        params = init_params(3, (4,), 2, seed=10)
        y = rng.integers(0, 2, size=5)
        with pytest.raises(ValueError, match="unknown task kind"):
            combined_loss(params, rng.standard_normal((5, 3)), hard_assignment(y, 2), y,
                          kind="cross_entropy", beta=0.1, gamma=1.0,
                          noise=rng.standard_normal((1, 5, 2)))

    def test_one_backward_reaches_every_parameter(self):
        rng = np.random.default_rng(15)
        params = init_params(3, (4, 5), 2, seed=9)
        X = rng.standard_normal((6, 3))
        y = rng.integers(0, 2, size=6)
        grad = combined_loss(params, X, hard_assignment(y, 2), y, kind="classification",
                             beta=0.0, gamma=0.0, noise=rng.standard_normal((1, 6, 2))).grad
        assert grad.shape == params.flat.shape
        views = params.like(grad)
        for t in views.weights + views.biases:
            assert t.any()


def tensors_of(params):
    return [t for pair in zip(params.weights, params.biases) for t in pair]


def assert_views_of_flat(params):
    tensors = tensors_of(params)
    assert params.flat.size == sum(t.size for t in tensors)
    for t in tensors:
        assert isinstance(t, np.ndarray) and np.shares_memory(t, params.flat)


class TestFlatStore:
    def test_init_params_views_one_vector(self):
        params = init_params(5, (7, 3), 2, seed=1)
        assert_views_of_flat(params)
        params.flat[:] = 2.5
        for t in tensors_of(params):
            assert (t == 2.5).all()

    def test_like_views_a_snapshot_and_a_stack(self):
        params = init_params(4, (6,), 2, seed=2)
        snapshot = params.like(params.flat.copy())
        params.flat *= 3.0
        for t, s in zip(tensors_of(params), tensors_of(snapshot)):
            np.testing.assert_array_equal(t, 3.0 * s)
        assert_views_of_flat(snapshot)
        stack = params.like(np.stack([snapshot.flat, params.flat]))
        assert_views_of_flat(stack)
        for t, s, p in zip(tensors_of(stack), tensors_of(snapshot), tensors_of(params)):
            assert t.shape == (2, *s.shape)
            assert np.array_equal(t[0], s) and np.array_equal(t[1], p)

    def test_like_rejects_wrong_length(self):
        params = init_params(4, (6,), 2, seed=2)
        with pytest.raises(DimensionError):
            params.like(np.zeros(params.flat.size - 1))

    def test_locate_names_every_entry_of_a_two_layer_stack(self):
        one = init_params(3, (4,), 2, seed=3)
        size = one.flat.size
        stack = one.like(np.zeros((2, size)))
        names = [("weight", (3, 4)), ("bias", (1, 4)), ("weight", (4, 4)), ("bias", (1, 4))]
        for row in range(2):
            index = 0
            for k, (tensor, shape) in enumerate(names):
                for where in np.ndindex(*shape):
                    assert stack.locate(row * size + index) == {
                        "row": row, "layer": k // 2, "tensor": tensor, "index": list(where)}
                    stack.flat[row, index] = np.nan  # the entry it names
                    view = (stack.weights if tensor == "weight" else stack.biases)[k // 2]
                    assert np.isnan(view[(row, *where)])
                    stack.flat[row, index] = 0.0
                    index += 1
            assert index == size


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params(5, (7, 3), 2, seed=9, activation="sigmoid")
        path = tmp_path / "model.json"
        for b in params.biases:  # nonzero, so the biases' bits are checked too
            b[:] = np.random.default_rng(9).standard_normal(b.shape)
        save_checkpoint(params, path, seed=9)
        text = path.read_text()
        doc = json.loads(text)
        assert doc["seed"] == 9
        assert doc["activation"] == "sigmoid"
        assert doc["hidden"] == [7, 3]
        assert len(doc["layers"]) == len(params.weights)
        for layer, w, b in zip(doc["layers"], params.weights, params.biases):
            weights = np.asarray(layer["weights"]).reshape(layer["shape"])
            bias = np.asarray(layer["bias"]).reshape(1, layer["shape"][1])
            assert weights.tobytes() == w.tobytes() and bias.tobytes() == b.tobytes()
        assert text == json.dumps(doc, sort_keys=True) + "\n"  # compact sorted JSON and a newline

    def test_a_failed_save_leaves_the_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        first = init_params(5, (7,), 2, seed=1)
        save_checkpoint(first, path, seed=1)
        before = path.read_bytes()

        def dump_half(doc, fh, **kwargs):
            fh.write('{"activation": "relu", "hidden": [')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", dump_half)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(init_params(5, (7,), 2, seed=2), path, seed=2)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.json"]  # no model.json.tmp
