"""Encoder-only probabilistic coder.

An MLP maps inputs to a diagonal Gaussian over the latent space; samples are
drawn with the reparameterization trick; predictions read directly off the
sample (class logits for classification, identity on a 1-d latent for
regression).  The combined objective is task + beta * KL - gamma * structural
entropy: the entropy term is maximized.

The KL term, the reparameterized sample, each task head (softmax
cross-entropy, squared error) and the weighted total are each one tape node
with a closed-form gradient; their values come from the same numpy
expressions as the composite tape forms the tests keep as references.  All
weights and biases are views into one float64 vector, ``EncoderParams.flat``,
which the optimizer updates in place.  A stack of S models runs every op
once for all: inputs are (S, batch, d) and each loss term is (S,), every
entry with the bits of its model run alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .autodiff import (LOG_EPS, DimensionError, Tensor, constant, parameter,
                       softmax_values)
from .entropy import AssignmentMatrix, se_loss

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0

CHECKPOINT_SCHEMA_VERSION = 1


@dataclass
class EncoderParams:
    """MLP weights/biases; the final layer stacks the mean and log-variance heads.

    Every weight and bias is a view into ``flat``, layer by layer, weight
    before bias.  ``flat`` is (P,) for one model, or (S, P) for a stack of S
    models whose views are (S, in, out) and (S, 1, out).
    """

    input_dim: int
    hidden: tuple[int, ...]
    latent_dim: int
    activation: str  # "relu" | "sigmoid"
    weights: list[Tensor]
    biases: list[Tensor]
    flat: np.ndarray

    def all_tensors(self) -> list[Tensor]:
        """Weights and biases in the layout of ``flat``."""
        return [t for layer in zip(self.weights, self.biases) for t in layer]

    def like(self, flat: np.ndarray) -> "EncoderParams":
        """Parameters of this layout viewing ``flat``: (P,), or (S, P) for a stack."""
        return _params_from_flat(self.input_dim, self.hidden, self.latent_dim,
                                 self.activation, flat)


def _params_from_flat(input_dim: int, hidden, latent_dim: int, activation: str,
                      flat: np.ndarray) -> EncoderParams:
    dims = [input_dim, *hidden, 2 * latent_dim]
    shapes = [s for fan_in, fan_out in zip(dims[:-1], dims[1:])
              for s in ((fan_in, fan_out), (1, fan_out))]
    if flat.shape[-1] != sum(rows * cols for rows, cols in shapes):
        raise DimensionError(f"parameter vector {flat.shape} does not fit widths {dims}")
    views, start = [], 0
    for rows, cols in shapes:
        views.append(parameter(flat[..., start:start + rows * cols]
                               .reshape(flat.shape[:-1] + (rows, cols))))
        start += rows * cols
    return EncoderParams(input_dim, tuple(hidden), latent_dim, activation,
                         views[0::2], views[1::2], flat)


def _params_from_layers(input_dim: int, hidden, latent_dim: int, activation: str,
                        layers: list[tuple[np.ndarray, np.ndarray]]) -> EncoderParams:
    """Copy (weight, bias) arrays into one flat vector and view them from it."""
    flat = np.concatenate([a.reshape(-1) for layer in layers for a in layer])
    return _params_from_flat(input_dim, hidden, latent_dim, activation, flat)


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
    layers = [(rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in),
               np.zeros((1, fan_out)))
              for fan_in, fan_out in zip(dims[:-1], dims[1:])]
    return _params_from_layers(input_dim, hidden, latent_dim, activation, layers)


@dataclass
class GaussianPosterior:
    """Per-sample mean and (clamped) log-variance of the latent Gaussian."""

    mu: Tensor
    logvar: Tensor


def encode(params: EncoderParams, inputs: Tensor) -> GaussianPosterior:
    """Forward pass; the last layer splits into mean and log-variance halves."""
    x = inputs if isinstance(inputs, Tensor) else constant(inputs)
    stack = params.flat.shape[:-1]  # (S,) for a stack of S models, or ()
    if x.values.ndim != len(stack) + 2 or x.shape[:-2] != stack or x.shape[-1] != params.input_dim:
        raise DimensionError(f"inputs must be {stack} + (batch, {params.input_dim}), "
                             f"got {x.shape}")
    h = x
    last = len(params.weights) - 1
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if layer < last:
            h = h.relu() if params.activation == "relu" else h.sigmoid()
    latent = params.latent_dim
    mu = h.cols(0, latent)
    logvar = h.cols(latent, 2 * latent).clamp(LOGVAR_MIN, LOGVAR_MAX)
    return GaussianPosterior(mu, logvar)


def reparameterize(post: GaussianPosterior, noise) -> Tensor:
    """z = mu + exp(logvar/2) * noise; deterministic given the noise draw."""
    eps = noise.values if isinstance(noise, Tensor) else np.asarray(noise, dtype=np.float64)
    if eps.shape != post.mu.shape:
        raise DimensionError(f"noise shape {eps.shape} != posterior shape {post.mu.shape}")
    std = np.exp(post.logvar.values * 0.5)
    return Tensor._from_op(post.mu.values + std * eps,
                           [(post.mu, lambda g: g),
                            (post.logvar, lambda g: g * eps * std * 0.5)])


def kl_to_standard_normal(post: GaussianPosterior) -> Tensor:
    """Closed-form KL(N(mu, diag sigma^2) || N(0, I)), averaged over the batch."""
    mu, logvar = post.mu.values, post.logvar.values
    var = np.exp(logvar)
    per_sample = ((mu * mu + var - 1.0 - logvar) * 0.5).sum(axis=-1)
    n = mu.shape[-2]
    return Tensor._from_op(np.asarray(per_sample.sum(axis=-1) / n),  # mean's bits
                           [(post.mu, lambda g: mu * (g[..., None, None] / n)),
                            (post.logvar, lambda g: (var - 1.0) * (g[..., None, None] / (2 * n)))])


def task_loss(z: Tensor, targets, kind: str) -> Tensor:
    """The task term of ``kind``: softmax cross-entropy of class logits
    ("classification"), or the squared error of a 1-d latent, read as the
    prediction, against real targets ("regression"); each is the batch mean.

    The cross-entropy floors the true-class probability at LOG_EPS; a row
    below the floor contributes log(LOG_EPS) and no gradient.
    """
    if kind not in ("classification", "regression"):
        raise ValueError(f"unknown task kind {kind!r}")
    t = np.asarray(targets)
    if t.shape != z.shape[:-1] or t.ndim not in (1, 2) or (
            kind == "regression" and z.shape[-1] != 1):
        raise DimensionError(f"{kind} needs one target per row of its latent: targets "
                             f"{t.shape} against {z.shape}")
    n = t.shape[-1]
    if kind == "regression":
        d = z.values[..., 0] - t
        return Tensor._from_op((d * d).mean(axis=-1),
                               [(z, lambda g: (2 * (np.expand_dims(g / n, -1) * d))[..., None])])
    probs = softmax_values(z.values, -1)
    onehot = np.eye(z.shape[-1])[t.astype(np.int64)]
    true_prob = (probs * onehot).sum(axis=-1)
    loss = -np.asarray(np.log(np.maximum(true_prob, LOG_EPS)).sum(axis=-1) / n)
    return Tensor._from_op(loss, [(z, lambda g: (probs - onehot) * (
        (true_prob >= LOG_EPS) * (g[..., None] / n))[..., None])])


@dataclass
class LossBreakdown:
    """The combined objective and its parts: total = task + beta*kl - gamma*se."""

    task: Tensor
    kl: Tensor
    se: Tensor
    total: Tensor
    beta: float
    gamma: float

    def scalars(self, row: int | None = None) -> dict[str, float]:
        """The terms as floats; ``row`` picks one model of a stack."""
        terms = {"task": self.task, "kl": self.kl, "se": self.se, "total": self.total}
        return {**{k: t.item() if row is None else float(t.values[row])
                   for k, t in terms.items()}, "beta": self.beta, "gamma": self.gamma}


def total_loss(task: Tensor, kl: Tensor, se: Tensor,
               beta: float, gamma: float) -> LossBreakdown:
    """``task + beta * kl - gamma * se`` as one tape node: entropy is maximized."""
    beta, gamma = float(beta), float(gamma)
    total = Tensor._from_op(task.values + beta * kl.values - gamma * se.values,
                            [(task, lambda g: g), (kl, lambda g: g * beta),
                             (se, lambda g: -g * gamma)])
    return LossBreakdown(task=task, kl=kl, se=se, total=total, beta=beta, gamma=gamma)


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

    ``noise`` is k standard-normal draws shaped like the posterior, stacked
    on a new leading axis; their task and entropy terms get averaged.  The
    similarity graph is built from the sampled latent by default, or from
    the posterior mean when ``use_mu_for_graph`` is set.
    """
    post = encode(params, inputs if isinstance(inputs, Tensor) else constant(inputs))
    if kind == "classification" and post.mu.shape[-1] != assignment.num_classes:
        raise DimensionError(f"latent dim {post.mu.shape[-1]} must equal "
                             f"the class count {assignment.num_classes}")
    kl = kl_to_standard_normal(post)

    draws = np.asarray(noise, dtype=np.float64)
    if draws.shape[1:] != post.mu.shape:
        raise DimensionError(
            f"noise must be (k, *posterior) against posterior {post.mu.shape}")

    task_terms: list[Tensor] = []
    se_terms: list[Tensor] = []
    for k in range(draws.shape[0]):
        z = reparameterize(post, draws[k])
        task_terms.append(task_loss(z, targets, kind))
        graph_source = post.mu if use_mu_for_graph else z
        se_terms.append(se_loss(graph_source, assignment))

    task = _average(task_terms)
    se = _average(se_terms)
    return total_loss(task, kl, se, beta, gamma)


def _average(terms: list[Tensor]) -> Tensor:
    total = sum(terms[1:], terms[0])  # ((t0 + t1) + t2) + ...
    return total * (1.0 / len(terms)) if len(terms) > 1 else total


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
    layers = [(np.asarray(layer["weights"], dtype=np.float64).reshape(layer["shape"]),
               np.asarray(layer["bias"], dtype=np.float64).reshape(1, layer["shape"][1]))
              for layer in doc["layers"]]
    params = _params_from_layers(doc["input_dim"], doc["hidden"], doc["latent_dim"],
                                 doc["activation"], layers)
    return params, doc["seed"]
