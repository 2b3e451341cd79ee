import math

import numpy as np
import pytest

from bottletree.autodiff import (LOG_EPS, DimensionError, constant,
                                 finite_difference_check, parameter,
                                 zero_grads)
from bottletree.coder import (LOGVAR_MAX, LOGVAR_MIN, GaussianPosterior,
                              combined_loss, encode, init_params,
                              kl_to_standard_normal, load_checkpoint,
                              reparameterize, save_checkpoint, task_loss,
                              total_loss)
from bottletree.entropy import hard_assignment


def zero_params(input_dim=3, hidden=(4,), latent=2):
    params = init_params(input_dim, hidden, latent, seed=0)
    params.flat[:] = 0.0
    return params


# Composite tape forms of the fused heads in ``coder``: the references the
# single-node versions are pinned against.

def composite_kl(post):
    var = post.logvar.exp()
    per_sample = ((post.mu * post.mu + var - 1.0 - post.logvar) * 0.5).sum(axis=1)
    return per_sample.mean()


def composite_reparameterize(post, noise):
    return post.mu + (post.logvar * 0.5).exp() * constant(noise)


def composite_cross_entropy(logits, labels):
    onehot = np.zeros(logits.shape)
    onehot[np.arange(len(labels)), labels] = 1.0
    true_prob = (logits.softmax(axis=1) * constant(onehot)).sum(axis=1)
    return -(true_prob.log().mean())


def composite_squared_error(z, targets):
    d = z - constant(np.asarray(targets)[:, None])
    return (d * d).mean()


def tape_nodes(root):
    seen, stack = {id(root)}, [root]
    while stack:
        for parent, _ in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class TestEncode:
    def test_zero_params_give_zero_posterior(self):
        params = zero_params()
        post = encode(params, constant(np.random.default_rng(0).standard_normal((5, 3))))
        np.testing.assert_array_equal(post.mu.values, np.zeros((5, 2)))
        np.testing.assert_array_equal(post.logvar.values, np.zeros((5, 2)))

    def test_output_shapes(self):
        params = init_params(6, (8, 4), 3, seed=1)
        post = encode(params, constant(np.zeros((7, 6))))
        assert post.mu.shape == (7, 3)
        assert post.logvar.shape == (7, 3)

    def test_input_dim_mismatch(self):
        params = init_params(6, (8,), 3, seed=1)
        with pytest.raises(DimensionError):
            encode(params, constant(np.zeros((7, 5))))

    def test_logvar_clamped(self):
        params = init_params(2, (), 1, seed=2)
        params.weights[0].values[...] = 100.0
        post = encode(params, constant([[5.0, 5.0]]))
        assert post.logvar.values[0, 0] == 10.0

    @pytest.mark.parametrize("trial", range(3))
    def test_first_layer_gradient(self, trial):
        rng = np.random.default_rng(10 + trial)
        params = init_params(4, (6,), 2, seed=trial)
        x = rng.standard_normal((5, 4))

        def f(_):
            return encode(params, constant(x)).mu.sum()

        assert finite_difference_check(f, [params.weights[0]], h=1e-6) < 1e-6


class TestReparameterize:
    def test_identity_when_standard(self):
        n = np.random.default_rng(0).standard_normal((4, 2))
        post = GaussianPosterior(constant(np.zeros((4, 2))), constant(np.zeros((4, 2))))
        np.testing.assert_array_equal(reparameterize(post, n).values, n)

    def test_collapses_to_mu_at_clamped_floor(self):
        mu = np.array([[1.5, -2.0]])
        noise = np.array([[3.0, -3.0]])
        post = GaussianPosterior(constant(mu), constant(np.full((1, 2), -10.0)))
        z = reparameterize(post, noise).values
        np.testing.assert_allclose(z, mu, atol=math.exp(-5) * 3)

    def test_shape_mismatch(self):
        post = GaussianPosterior(constant(np.zeros((4, 2))), constant(np.zeros((4, 2))))
        with pytest.raises(DimensionError):
            reparameterize(post, np.zeros((4, 3)))

    def test_empirical_moments(self):
        rng = np.random.default_rng(42)
        mu, logvar = 0.3, 0.4
        n = 1_000_000
        noise = rng.standard_normal((n, 1))
        sigma = math.exp(0.5 * logvar)
        z = reparameterize(
            GaussianPosterior(constant(np.full((n, 1), mu)),
                              constant(np.full((n, 1), logvar))),
            noise).values[:, 0]
        se_mean = sigma / math.sqrt(n)
        assert abs(z.mean() - mu) < 3 * se_mean
        se_std = sigma / math.sqrt(2 * (n - 1))
        assert abs(z.std(ddof=1) - sigma) < 3 * se_std

    def test_gradient_through_sampling(self):
        rng = np.random.default_rng(3)
        mu = parameter(rng.standard_normal((3, 2)))
        logvar = parameter(rng.standard_normal((3, 2)) * 0.1)
        noise = rng.standard_normal((3, 2))

        def f(_):
            z = reparameterize(GaussianPosterior(mu, logvar), noise)
            return (z * z).sum()

        assert finite_difference_check(f, [mu, logvar], h=1e-6) < 1e-6


class TestKL:
    def test_standard_posterior_is_zero(self):
        post = GaussianPosterior(constant(np.zeros((3, 2))), constant(np.zeros((3, 2))))
        assert kl_to_standard_normal(post).item() == 0.0

    def test_unit_mean_one_dim(self):
        post = GaussianPosterior(constant([[1.0]]), constant([[0.0]]))
        assert kl_to_standard_normal(post).item() == pytest.approx(0.5)

    def test_non_negative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            post = GaussianPosterior(constant(rng.standard_normal((2, 3))),
                                     constant(rng.uniform(-2, 2, (2, 3))))
            assert kl_to_standard_normal(post).item() >= 0.0

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(5)
        mu = rng.standard_normal((1, 3))
        logvar = rng.uniform(-1, 1, (1, 3))
        post = GaussianPosterior(constant(mu), constant(logvar))
        closed = kl_to_standard_normal(post).item()
        sigma = np.exp(0.5 * logvar[0])
        z = mu[0] + sigma * rng.standard_normal((1_000_000, 3))
        log_ratio = (-0.5 * (logvar[0] + ((z - mu[0]) / sigma) ** 2)
                     + 0.5 * z ** 2).sum(axis=1)
        assert closed == pytest.approx(log_ratio.mean(), abs=1e-2)


class TestPredictions:
    def test_classification_uniform(self):
        logits = constant([[0.0, 0.0]])
        np.testing.assert_allclose(logits.softmax(axis=1).values, [[0.5, 0.5]])
        for label in (0, 1):
            assert task_loss(logits, [label], "classification").item() == pytest.approx(
                math.log(2.0))

    def test_classification_shift_invariance(self):
        z = np.random.default_rng(1).standard_normal((4, 3))
        labels = [0, 2, 1, 1]
        a = task_loss(constant(z), labels, "classification").item()
        b = task_loss(constant(z + 7.0), labels, "classification").item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_classification_argmax(self):
        logits = constant([[2.0, 0.0]])
        assert np.argmax(logits.softmax(axis=1).values[0]) == 0
        assert (task_loss(logits, [0], "classification").item()
                < task_loss(logits, [1], "classification").item())

    def test_classification_dim_mismatch(self):
        params = init_params(3, (4,), 2, seed=0)
        y = np.array([0, 1, 2, 0])
        with pytest.raises(DimensionError, match="class count"):
            combined_loss(params, np.zeros((4, 3)), hard_assignment(y, 3), y,
                          kind="classification", beta=0.1, gamma=1.0,
                          noise=np.zeros((1, 4, 2)))

    def test_regression_identity(self):
        # the 1-d latent is the prediction: a latent equal to its target costs nothing
        assert task_loss(constant([[0.7], [-1.5]]), [0.7, -1.5], "regression").item() == 0.0

    def test_regression_needs_one_dim(self):
        with pytest.raises(DimensionError):
            task_loss(constant([[0.7, 0.1]]), [0.7], "regression")

    def test_regression_gradient_through_mse(self):
        rng = np.random.default_rng(2)
        z = parameter(rng.standard_normal((5, 1)))
        target = rng.standard_normal(5)

        def f(_):
            return task_loss(z, target, "regression")

        assert finite_difference_check(f, [z], h=1e-6) < 1e-6


class TestTaskLoss:
    def test_perfect_prediction_near_zero_ce(self):
        pred = constant([[40.0, 0.0], [0.0, 40.0]])
        loss = task_loss(pred, [0, 1], "classification").item()
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_uniform_prediction_is_log_r(self):
        r = 4
        pred = constant(np.zeros((3, r)))
        loss = task_loss(pred, [0, 1, 2], "classification").item()
        assert loss == pytest.approx(math.log(r))

    def test_mse_zero_on_match(self):
        pred = constant([[1.0], [2.0], [3.0]])
        assert task_loss(pred, [1.0, 2.0, 3.0], "regression").item() == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            task_loss(constant([1.0]), [1.0], "huber")

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            task_loss(constant([[1.0], [2.0]]), [1.0], "regression")


def assert_close(fused, composite):
    scale = max(1.0, float(np.abs(composite).max()))
    assert np.abs(fused - composite).max() <= 1e-12 * scale


class TestFusedHeads:
    """Each single-node head against its composite tape form."""

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
        runs = [self.run(lambda m, lv, head=head: head(GaussianPosterior(m, lv)) * 3.0,
                         [mu, logvar])
                for head in (kl_to_standard_normal, composite_kl)]
        (fused, fused_grads), (ref, ref_grads) = runs
        assert np.array_equal(fused, ref)
        for a, b in zip(fused_grads, ref_grads):
            assert_close(a, b)

    @pytest.mark.parametrize("seed", range(3))
    def test_reparameterize(self, seed):
        mu, logvar, rng = self.posterior_arrays(seed)
        noise = rng.standard_normal(mu.shape)
        weights = constant(rng.standard_normal(mu.shape))
        fused_z = reparameterize(GaussianPosterior(constant(mu), constant(logvar)), noise)
        ref_z = composite_reparameterize(
            GaussianPosterior(constant(mu), constant(logvar)), noise)
        assert np.array_equal(fused_z.values, ref_z.values)
        grads = [self.run(lambda m, lv, head=head: (
                     head(GaussianPosterior(m, lv), noise) * weights).sum(),
                     [mu, logvar])[1]
                 for head in (reparameterize, composite_reparameterize)]
        for a, b in zip(*grads):
            assert_close(a, b)

    @pytest.mark.parametrize("seed", range(3))
    def test_cross_entropy(self, seed):
        rng = np.random.default_rng(seed)
        logits = 3.0 * rng.standard_normal((8, 4))
        labels = rng.integers(0, 4, size=8)
        logits[0, labels[0]] -= 40.0  # true-class probability below LOG_EPS
        runs = [self.run(lambda z, head=head: head(z, labels) * 3.0, [logits])
                for head in (lambda z, y: task_loss(z, y, "classification"),
                             composite_cross_entropy)]
        (fused, (fused_grad,)), (ref, (ref_grad,)) = runs
        assert np.array_equal(fused, ref)
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
        runs = [self.run(lambda z, head=head: head(z, targets) * 3.0, [z])
                for head in (lambda z, y: task_loss(z, y, "regression"),
                             composite_squared_error)]
        (fused, (fused_grad,)), (ref, (ref_grad,)) = runs
        assert np.array_equal(fused, ref)
        assert np.array_equal(fused_grad, ref_grad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_cross_entropy_rejects_non_finite_logits(self, bad):
        logits = np.zeros((2, 3))
        logits[1, 2] = bad
        for head in (lambda z: task_loss(z, [0, 1], "classification"),
                     lambda z: composite_cross_entropy(z, [0, 1])):
            with pytest.raises(ValueError, match="softmax needs finite inputs"):
                head(parameter(logits))


class TestTotalLoss:
    def test_gamma_zero_recovers_bottleneck_objective(self):
        task, kl, se = constant([1.0]).sum(), constant([0.5]).sum(), constant([2.0]).sum()
        bd = total_loss(task, kl, se, beta=0.1, gamma=0.0)
        assert bd.total.item() == pytest.approx(1.0 + 0.1 * 0.5)

    def test_beta_gamma_zero_is_task(self):
        task, kl, se = constant([1.2]).sum(), constant([5.0]).sum(), constant([2.0]).sum()
        assert total_loss(task, kl, se, 0.0, 0.0).total.item() == 1.2

    def test_entropy_increase_decreases_total(self):
        task, kl = constant([1.0]).sum(), constant([0.0]).sum()
        delta = 0.7
        lo = total_loss(task, kl, constant([2.0]).sum(), 1.0, 1.0).total.item()
        hi = total_loss(task, kl, constant([2.0 + delta]).sum(), 1.0, 1.0).total.item()
        assert lo - hi == pytest.approx(delta)

    def test_identity_holds_to_machine_precision(self):
        rng = np.random.default_rng(6)
        t, k, s = (constant([v]).sum() for v in rng.uniform(0, 3, 3))
        bd = total_loss(t, k, s, beta=0.37, gamma=2.2)
        recomputed = bd.task.item() + bd.beta * bd.kl.item() - bd.gamma * bd.se.item()
        assert abs(bd.total.item() - recomputed) <= 1e-12


class TestCombinedLoss:
    def test_full_gradient_classification(self):
        rng = np.random.default_rng(11)
        params = init_params(4, (8,), 3, seed=5)
        X = rng.standard_normal((6, 4))
        y = rng.integers(0, 3, size=6)
        assignment = hard_assignment(y, 3)
        noise = rng.standard_normal((1, 6, 3))

        def f(_):
            return combined_loss(params, X, assignment, y, kind="classification",
                                 beta=0.1, gamma=1.0, noise=noise).total

        assert finite_difference_check(f, params.all_tensors(), h=1e-5) < 1e-4

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
                                 beta=0.0, gamma=0.0, noise=noise[k:k + 1]).task.item()
                   for k in range(3)]
        assert bd.task.item() == pytest.approx(np.mean(singles), abs=1e-12)

    def test_mu_graph_sends_no_entropy_gradient_to_logvar(self):
        rng = np.random.default_rng(13)
        params = init_params(3, (4,), 2, seed=7)
        X = rng.standard_normal((6, 3))
        y = rng.integers(0, 2, size=6)
        noise = rng.standard_normal((1, 6, 2))
        logvar_grads = {}
        for use_mu in (False, True):
            zero_grads(params.all_tensors())
            combined_loss(params, X, hard_assignment(y, 2), y, kind="classification",
                          beta=0.0, gamma=1.0, noise=noise,
                          use_mu_for_graph=use_mu).se.backward()
            # the last layer's columns 2:4 are the log-variance head
            logvar_grads[use_mu] = np.concatenate([params.weights[-1].grad[:, 2:],
                                                   params.biases[-1].grad[:, 2:]])
        assert np.abs(logvar_grads[False]).max() > 0.0
        assert not logvar_grads[True].any()


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

    def test_step_tape_has_at_most_twenty_nodes(self):
        rng = np.random.default_rng(14)
        params = init_params(16, (64,), 4, seed=8)
        X = rng.standard_normal((64, 16))
        y = rng.integers(0, 4, size=64)
        bd = combined_loss(params, X, hard_assignment(y, 4), y, kind="classification",
                           beta=0.01, gamma=1.0, noise=rng.standard_normal((1, 64, 4)))
        assert tape_nodes(bd.total) <= 20

    def test_one_backward_reaches_every_parameter(self):
        rng = np.random.default_rng(15)
        params = init_params(3, (4, 5), 2, seed=9)
        X = rng.standard_normal((6, 3))
        y = rng.integers(0, 2, size=6)
        combined_loss(params, X, hard_assignment(y, 2), y, kind="classification",
                      beta=0.0, gamma=0.0,
                      noise=rng.standard_normal((1, 6, 2))).total.backward()
        for t in params.all_tensors():
            assert t.grad is not None and t.grad.shape == t.shape


def assert_views_of_flat(params):
    tensors = params.all_tensors()
    assert params.flat.size == sum(t.size for t in tensors)
    for t in tensors:
        assert np.shares_memory(t.values, params.flat)


class TestFlatStore:
    def test_init_params_views_one_vector(self):
        params = init_params(5, (7, 3), 2, seed=1)
        assert_views_of_flat(params)
        params.flat[:] = 2.5
        for t in params.all_tensors():
            assert (t.values == 2.5).all()

    def test_like_views_a_snapshot_and_a_stack(self):
        params = init_params(4, (6,), 2, seed=2)
        snapshot = params.like(params.flat.copy())
        params.flat *= 3.0
        for t, s in zip(params.all_tensors(), snapshot.all_tensors()):
            np.testing.assert_array_equal(t.values, 3.0 * s.values)
        assert_views_of_flat(snapshot)
        stack = params.like(np.stack([snapshot.flat, params.flat]))
        assert_views_of_flat(stack)
        for t, s, p in zip(stack.all_tensors(), snapshot.all_tensors(), params.all_tensors()):
            assert t.shape == (2, *s.shape)
            assert np.array_equal(t.values[0], s.values) and np.array_equal(t.values[1], p.values)

    def test_like_rejects_wrong_length(self):
        params = init_params(4, (6,), 2, seed=2)
        with pytest.raises(DimensionError):
            params.like(np.zeros(params.flat.size - 1))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params(5, (7, 3), 2, seed=9, activation="sigmoid")
        path = tmp_path / "model.json"
        save_checkpoint(params, path, seed=9)
        loaded, seed = load_checkpoint(path)
        assert seed == 9
        assert loaded.activation == "sigmoid"
        assert loaded.hidden == (7, 3)
        for a, b in zip(params.all_tensors(), loaded.all_tensors()):
            np.testing.assert_array_equal(a.values, b.values)
        assert_views_of_flat(loaded)
