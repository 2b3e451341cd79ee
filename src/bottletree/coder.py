"""Encoder-only probabilistic coder.

An MLP maps inputs to a diagonal Gaussian over the latent space; samples are
drawn with the reparameterization trick; predictions read directly off the
sample (softmax for classification, identity on a 1-d latent for regression).
The combined objective is task + beta * KL - gamma * structural entropy: the
entropy term is maximized.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .autodiff import DimensionError, Tensor, constant, parameter
from .entropy import AssignmentMatrix, se_loss

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0

CHECKPOINT_SCHEMA_VERSION = 1


@dataclass
class EncoderParams:
    """MLP weights/biases; the final layer stacks the mean and log-variance heads."""

    input_dim: int
    hidden: tuple[int, ...]
    latent_dim: int
    activation: str  # "relu" | "sigmoid"
    weights: list[Tensor]
    biases: list[Tensor]

    def all_tensors(self) -> list[Tensor]:
        out: list[Tensor] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy_values(self) -> list[np.ndarray]:
        return [t.values.copy() for t in self.all_tensors()]

    def load_values(self, values: list[np.ndarray]) -> None:
        tensors = self.all_tensors()
        if len(values) != len(tensors):
            raise DimensionError("parameter count mismatch")
        for t, v in zip(tensors, values):
            if t.shape != v.shape:
                raise DimensionError(f"parameter shape mismatch: {t.shape} vs {v.shape}")
            t.values = v.copy()


def init_params(input_dim: int,
                hidden: tuple[int, ...],
                latent_dim: int,
                seed: int,
                activation: str = "relu") -> EncoderParams:
    """He-style random init; biases start at zero.  Deterministic per seed."""
    if activation not in ("relu", "sigmoid"):
        raise ValueError(f"unsupported activation {activation!r}")
    rng = np.random.default_rng(seed)
    dims = [input_dim, *hidden, 2 * latent_dim]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)
        weights.append(parameter(w))
        biases.append(parameter(np.zeros((1, fan_out))))
    return EncoderParams(input_dim, tuple(hidden), latent_dim, activation,
                         weights, biases)


@dataclass
class GaussianPosterior:
    """Per-sample mean and (clamped) log-variance of the latent Gaussian."""

    mu: Tensor
    logvar: Tensor


def _broadcast_rows(row: Tensor, n: int) -> Tensor:
    # (1, h) bias replicated over n rows via a ones matmul; keeps elementwise
    # broadcasting restricted to scalars while the backward pass still sums
    # gradients per column.
    return constant(np.ones((n, 1))) @ row


def encode(params: EncoderParams, inputs: Tensor) -> GaussianPosterior:
    """Forward pass; the last layer splits into mean and log-variance halves."""
    x = inputs if isinstance(inputs, Tensor) else constant(inputs)
    if x.values.ndim != 2 or x.shape[1] != params.input_dim:
        raise DimensionError(
            f"inputs must be (batch, {params.input_dim}), got {x.shape}")
    n = x.shape[0]
    h = x
    last = len(params.weights) - 1
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + _broadcast_rows(b, n)
        if layer < last:
            h = h.relu() if params.activation == "relu" else h.sigmoid()
    latent = params.latent_dim
    mu = h.cols(0, latent)
    logvar = h.cols(latent, 2 * latent).clamp(LOGVAR_MIN, LOGVAR_MAX)
    return GaussianPosterior(mu, logvar)


def reparameterize(post: GaussianPosterior, noise) -> Tensor:
    """z = mu + exp(logvar/2) * noise; deterministic given the noise draw."""
    eps = noise if isinstance(noise, Tensor) else constant(noise)
    if eps.shape != post.mu.shape:
        raise DimensionError(f"noise shape {eps.shape} != posterior shape {post.mu.shape}")
    return post.mu + (post.logvar * 0.5).exp() * eps


def kl_to_standard_normal(post: GaussianPosterior) -> Tensor:
    """Closed-form KL(N(mu, diag sigma^2) || N(0, I)), averaged over the batch."""
    var = post.logvar.exp()
    per_sample = ((post.mu * post.mu + var - 1.0 - post.logvar) * 0.5).sum(axis=1)
    return per_sample.mean()


def predict_classification(z: Tensor, num_classes: int) -> Tensor:
    """Row-wise softmax over the latent; argmax is the predicted class."""
    if z.shape[1] != num_classes:
        raise DimensionError(
            f"latent dim {z.shape[1]} must equal the class count {num_classes}")
    return z.softmax(axis=1)


def predict_regression(z: Tensor) -> Tensor:
    """Identity read-out on a 1-d latent, flattened to a length-batch vector."""
    if z.values.ndim != 2 or z.shape[1] != 1:
        raise DimensionError(f"regression read-out needs a (batch, 1) latent, got {z.shape}")
    return z.reshape((z.shape[0],))


def task_loss(pred: Tensor, targets, kind: str) -> Tensor:
    """Cross-entropy over class probabilities, or mean squared error."""
    if kind == "cross_entropy":
        labels = np.asarray(targets)
        if labels.ndim != 1 or labels.size != pred.shape[0]:
            raise DimensionError("targets must be one class id per prediction row")
        onehot = np.zeros(pred.shape)
        onehot[np.arange(labels.size), labels.astype(np.int64)] = 1.0
        true_prob = (pred * constant(onehot)).sum(axis=1)
        return -(true_prob.log().mean())
    if kind == "mse":
        t = np.asarray(targets, dtype=np.float64)
        if t.shape != pred.shape:
            raise DimensionError(f"targets shape {t.shape} != predictions shape {pred.shape}")
        diff = pred - constant(t)
        return (diff * diff).mean()
    raise ValueError(f"unknown task loss kind {kind!r}")


@dataclass
class LossBreakdown:
    """The combined objective and its parts: total = task + beta*kl - gamma*se."""

    task: Tensor
    kl: Tensor
    se: Tensor
    total: Tensor
    beta: float
    gamma: float

    def scalars(self) -> dict[str, float]:
        return {
            "task": self.task.item(),
            "kl": self.kl.item(),
            "se": self.se.item(),
            "total": self.total.item(),
            "beta": self.beta,
            "gamma": self.gamma,
        }


def total_loss(task: Tensor, kl: Tensor, se: Tensor,
               beta: float, gamma: float) -> LossBreakdown:
    """Combine the three terms; the entropy term enters with a minus sign."""
    total = task + beta * kl - gamma * se
    return LossBreakdown(task=task, kl=kl, se=se, total=total,
                         beta=float(beta), gamma=float(gamma))


def combined_loss(params: EncoderParams,
                  inputs,
                  assignment: AssignmentMatrix,
                  targets,
                  *,
                  kind: str,
                  beta: float,
                  gamma: float,
                  noise,
                  use_mu_for_graph: bool = False) -> LossBreakdown:
    """Full objective for one batch.

    ``noise`` is one (batch, latent) standard-normal draw, or a stack of k
    such draws whose task and entropy terms get averaged.  The similarity
    graph is built from the sampled latent by default, or from the posterior
    mean when ``use_mu_for_graph`` is set.
    """
    post = encode(params, inputs if isinstance(inputs, Tensor) else constant(inputs))
    kl = kl_to_standard_normal(post)

    draws = np.asarray(noise, dtype=np.float64)
    if draws.ndim == 2:
        draws = draws[None, :, :]
    if draws.ndim != 3 or draws.shape[1:] != post.mu.shape:
        raise DimensionError(
            f"noise must be (k, batch, latent) against posterior {post.mu.shape}")

    task_terms: list[Tensor] = []
    se_terms: list[Tensor] = []
    for k in range(draws.shape[0]):
        z = reparameterize(post, draws[k])
        if kind == "classification":
            probs = predict_classification(z, assignment.num_classes)
            task_terms.append(task_loss(probs, targets, "cross_entropy"))
        elif kind == "regression":
            preds = predict_regression(z)
            task_terms.append(task_loss(preds, targets, "mse"))
        else:
            raise ValueError(f"unknown task kind {kind!r}")
        graph_source = post.mu if use_mu_for_graph else z
        se_terms.append(se_loss(graph_source, assignment))

    task = _average(task_terms)
    se = _average(se_terms)
    return total_loss(task, kl, se, beta, gamma)


def _average(terms: list[Tensor]) -> Tensor:
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc * (1.0 / len(terms)) if len(terms) > 1 else acc


def save_checkpoint(params: EncoderParams, path, seed: int | None = None) -> None:
    """Write parameters as JSON: dims, layer shapes, flat arrays, RNG seed."""
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "input_dim": params.input_dim,
        "hidden": list(params.hidden),
        "latent_dim": params.latent_dim,
        "activation": params.activation,
        "seed": seed,
        "layers": [
            {
                "shape": list(w.shape),
                "weights": w.values.reshape(-1).tolist(),
                "bias": b.values.reshape(-1).tolist(),
            }
            for w, b in zip(params.weights, params.biases)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> tuple[EncoderParams, int | None]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise ValueError(f"unsupported checkpoint schema {doc.get('schema_version')!r}")
    weights, biases = [], []
    for layer in doc["layers"]:
        shape = tuple(layer["shape"])
        weights.append(parameter(np.asarray(layer["weights"]).reshape(shape)))
        biases.append(parameter(np.asarray(layer["bias"]).reshape(1, shape[1])))
    params = EncoderParams(doc["input_dim"], tuple(doc["hidden"]), doc["latent_dim"],
                           doc["activation"], weights, biases)
    return params, doc["seed"]
