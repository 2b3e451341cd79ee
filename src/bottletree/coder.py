"""Encoder-only probabilistic coder.

An MLP maps inputs to a diagonal Gaussian over the latent space; samples are
drawn with the reparameterization trick; predictions read directly off the
sample (class logits for classification, identity on a 1-d latent for
regression).  The combined objective is task + beta * KL - gamma * structural
entropy: the entropy term is maximized.

The step is closed form, in plain numpy: the encoder, the KL term, the
sample, each task head and ``entropy.se_loss`` return their value and their
backward, and ``combined_loss`` chains the backwards into one gradient shaped
like ``EncoderParams.flat``, the vector every weight and bias views.  The
backwards keep the expressions and the accumulation order (reverse creation
order) of the autodiff tape that once ran the step, so the bits are the
tape's; ``tests/tape_reference.py`` rebuilds that tape to pin them.  A stack
of S models runs every op once: inputs are (S, batch, d), each loss term is
(S,), and every entry has the bits of its model run alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import LOG_EPS, DimensionError, _sigmoid_of_negated, softmax_values
from .datasets import replacing
from .entropy import se_loss

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0

CHECKPOINT_SCHEMA_VERSION = 1


@dataclass
class EncoderParams:
    """MLP weights/biases; the final layer stacks the mean and log-variance heads.

    Every weight and bias is a numpy view into ``flat``, layer by layer,
    weight before bias.  ``flat`` is (P,) for one model, or (S, P) for a
    stack of S models whose views are (S, in, out) and (S, 1, out).
    """

    input_dim: int
    hidden: tuple[int, ...]
    latent_dim: int
    activation: str  # "relu" | "sigmoid"
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray

    def like(self, flat: np.ndarray) -> "EncoderParams":
        """Parameters of this layout viewing ``flat``: (P,), or (S, P) for a stack."""
        return _params_from_flat(self.input_dim, self.hidden, self.latent_dim,
                                 self.activation, flat)

    def locate(self, index: int) -> dict:
        """Row of the stack, layer, "weight" or "bias" and index within it of
        entry ``index`` of ``flat.reshape(-1)``."""
        row, index = divmod(index, self.flat.shape[-1])
        for layer, pair in enumerate(zip(self.weights, self.biases)):
            for tensor, view in zip(("weight", "bias"), pair):
                if index < view.shape[-2] * view.shape[-1]:
                    where = np.unravel_index(index, view.shape[-2:])
                    return {"row": row, "layer": layer, "tensor": tensor,
                            "index": [int(i) for i in where]}
                index -= view.shape[-2] * view.shape[-1]


def _params_from_flat(input_dim: int, hidden, latent_dim: int, activation: str,
                      flat: np.ndarray) -> EncoderParams:
    dims = [input_dim, *hidden, 2 * latent_dim]
    shapes = [s for fan_in, fan_out in zip(dims[:-1], dims[1:])
              for s in ((fan_in, fan_out), (1, fan_out))]
    if flat.shape[-1] != sum(rows * cols for rows, cols in shapes):
        raise DimensionError(f"parameter vector {flat.shape} does not fit widths {dims}")
    views, start = [], 0
    for rows, cols in shapes:
        views.append(flat[..., start:start + rows * cols].reshape(flat.shape[:-1] + (rows, cols)))
        start += rows * cols
    return EncoderParams(input_dim, tuple(hidden), latent_dim, activation,
                         views[0::2], views[1::2], flat)


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
    flat = np.concatenate([a.reshape(-1) for layer in layers for a in layer])
    return _params_from_flat(input_dim, hidden, latent_dim, activation, flat)


def encode(params: EncoderParams, inputs):
    """Forward pass: (mu, logvar, backward), the log-variance clamped to
    [LOGVAR_MIN, LOGVAR_MAX]; ``backward(d_mu, d_logvar)`` is the flat gradient.
    The sigmoid activation is ``_sigmoid_of_negated``, in place: exactly 0,
    without a warning, where ``exp`` overflows."""
    x = np.asarray(inputs, dtype=np.float64)
    stack = params.flat.shape[:-1]  # (S,) for a stack of S models, or ()
    if x.ndim != len(stack) + 2 or x.shape[:-2] != stack or x.shape[-1] != params.input_dim:
        raise DimensionError(f"inputs must be {stack} + (batch, {params.input_dim}), "
                             f"got {x.shape}")
    relu = params.activation == "relu"
    layer_inputs, masks, h = [], [], x  # masks: where relu passes its gradient
    last = len(params.weights) - 1
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        layer_inputs.append(h)
        h = h @ w
        h += b
        if layer < last and relu:
            masks.append(h >= 0.0)
            np.maximum(h, 0.0, out=h)
        elif layer < last:
            h = _sigmoid_of_negated(np.negative(h, out=h), out=h)
    mu, raw = h[..., :params.latent_dim].copy(), h[..., params.latent_dim:]
    logvar = np.minimum(np.maximum(raw, LOGVAR_MIN), LOGVAR_MAX)

    def backward(d_mu, d_logvar):
        d_raw = d_logvar * (logvar == raw)  # inside the clamp, bounds included
        g = np.concatenate((d_mu, d_raw), axis=-1)
        g += 0.0  # the tape summed the heads' zero-padded gradients: -0.0 becomes 0.0
        grads = []
        for layer in range(last, -1, -1):
            grads += [g.sum(axis=-2, keepdims=True), layer_inputs[layer].swapaxes(-1, -2) @ g]
            if layer:
                g = g @ params.weights[layer].swapaxes(-1, -2)
                if relu:
                    g *= masks[layer - 1]
                else:
                    g = g * layer_inputs[layer] * (1.0 - layer_inputs[layer])
        return np.concatenate([t.reshape(*stack, -1) for t in reversed(grads)], axis=-1)

    return mu, logvar, backward


def reparameterize(mu: np.ndarray, logvar: np.ndarray, noise):
    """z = mu + exp(logvar/2) * noise, deterministic given the noise, per draw of
    its leading axes: (z, backward), with backward(g) = (d_mu, d_logvar)."""
    eps = np.asarray(noise, dtype=np.float64)
    if eps.shape[-mu.ndim:] != mu.shape:
        raise DimensionError(f"noise shape {eps.shape} != (draws, *{mu.shape})")
    std = np.exp(logvar * 0.5)
    return mu + std * eps, lambda g: (g, g * eps * std * 0.5)


def kl_to_standard_normal(mu: np.ndarray, logvar: np.ndarray):
    """Closed-form KL(N(mu, diag sigma^2) || N(0, I)), averaged over the
    batch: (kl, backward), with backward(g) = (d_mu, d_logvar)."""
    var = np.exp(logvar)
    per_sample = ((mu * mu + var - 1.0 - logvar) * 0.5).sum(axis=-1)
    n = mu.shape[-2]
    return np.asarray(per_sample.sum(axis=-1) / n), lambda g: (  # the mean's bits
        mu * (g[..., None, None] / n), (var - 1.0) * (g[..., None, None] / (2 * n)))


def task_loss(z: np.ndarray, targets, kind: str):
    """The task term of ``kind``: softmax cross-entropy of class logits
    against one-hot targets shaped like them ("classification"), or the
    squared error of a 1-d latent, read as the prediction, against one real
    target per row ("regression"); each is the batch mean, per draw of the
    leading axes of ``z`` that the targets lack.  Returns (loss, backward),
    with backward(g) = d_z.  The cross-entropy floors the true-class
    probability at LOG_EPS; a row below the floor contributes log(LOG_EPS)
    and no gradient.
    """
    if kind not in ("classification", "regression"):
        raise ValueError(f"unknown task kind {kind!r}")
    t = np.asarray(targets)
    regression = kind == "regression"
    rows = z.shape[:-1] if regression else z.shape  # draw axes, then the targets' shape
    if t.ndim + regression < 2 or rows[len(rows) - t.ndim:] != t.shape or (
            regression and z.shape[-1] != 1):
        raise DimensionError(f"{kind} needs one target per row of its latent: targets "
                             f"{t.shape} against {z.shape}")
    n = z.shape[-2]
    if regression:
        d = z[..., 0] - t
        return (d * d).mean(axis=-1), lambda g: (2 * (np.expand_dims(g / n, -1) * d))[..., None]
    probs = softmax_values(z, -1)
    true_prob = (probs * t).sum(axis=-1)
    loss = -np.asarray(np.log(np.maximum(true_prob, LOG_EPS)).sum(axis=-1) / n)
    return loss, lambda g: (probs - t) * (
        (true_prob >= LOG_EPS) * (g[..., None] / n))[..., None]


@dataclass
class LossBreakdown:
    """The objective's terms, its total = task + beta*kl - gamma*se, formed
    here from them, and its flat gradient, if any."""

    task: np.ndarray
    kl: np.ndarray
    se: np.ndarray
    beta: float
    gamma: float
    grad: np.ndarray | None = None
    total: np.ndarray = field(init=False)

    def __post_init__(self):
        self.beta, self.gamma = float(self.beta), float(self.gamma)
        self.total = self.task + self.beta * self.kl - self.gamma * self.se

    def scalars(self, row: int | None = None) -> dict[str, float]:
        """The terms as floats; ``row`` picks one model of a stack."""
        terms = {"task": self.task, "kl": self.kl, "se": self.se, "total": self.total}
        return {**{k: t.item() if row is None else float(t[row])
                   for k, t in terms.items()}, "beta": self.beta, "gamma": self.gamma}


def combined_loss(params: EncoderParams, inputs, assignment: np.ndarray, targets, *,
                  kind: str, beta: float, gamma: float, noise,
                  use_mu_for_graph: bool = False) -> LossBreakdown:
    """Full objective for one batch and its flat gradient (of the summed (S,)
    total, for a stack: each row is its own model's).

    ``noise`` is k standard-normal draws shaped like the posterior, stacked
    on a new leading axis that the task and entropy terms keep until they
    are averaged.  The similarity graph is built from the sampled latent by
    default, or once from the posterior mean when ``use_mu_for_graph`` is
    set.  ``assignment`` is the batch's membership from ``batch_assignment``
    (or ``hard_assignment`` / ``soften``); its shape is checked, not its entries.
    A classification batch's cross-entropy reads its one-hot targets from
    ``assignment``, the hard tree of its labels; ``targets`` are read for
    regression only.  At ``gamma == 0`` the entropy runs forward only: its
    gradient, times -0.0, could add nothing but signed zeros, which the
    encoder's ``+= 0.0`` clears.
    """
    mu, logvar, encoder_backward = encode(params, inputs)
    if kind == "classification":
        if mu.shape[-1] != assignment.shape[-1]:
            raise DimensionError(f"latent dim {mu.shape[-1]} must equal "
                                 f"the class count {assignment.shape[-1]}")
        targets = assignment
    kl, kl_backward = kl_to_standard_normal(mu, logvar)

    draws = np.asarray(noise, dtype=np.float64)
    if draws.shape[1:] != mu.shape:
        raise DimensionError(f"noise must be (k, *posterior) against posterior {mu.shape}")

    z, z_backward = reparameterize(mu, logvar, draws)
    tasks, task_backward = task_loss(z, targets, kind)
    ses, se_backward = se_loss(mu if use_mu_for_graph else z, assignment, gamma != 0)
    task, se = _average(tasks), _average([ses] * len(draws) if use_mu_for_graph else ses)
    breakdown = LossBreakdown(task=task, kl=kl, se=se, beta=beta, gamma=gamma)

    # Backward in the tape's order: the entropy before the task, the draws
    # summed last to first, the KL term last; from the tape's seeds 1.0,
    # -gamma and beta, each draw's task and entropy times 1/k.
    share = 1.0 / len(draws)
    d_z, d_graph = task_backward(np.full(np.shape(tasks), share)), 0.0
    if se_backward is not None:  # None at gamma == 0
        d_se = se_backward(np.full(np.shape(ses), -breakdown.gamma * share))
        if use_mu_for_graph:
            d_graph = d_se  # the mean graph's gradient, added once per draw
        else:
            d_z = d_se + d_z
    z_mu, z_logvar = z_backward(d_z)
    d_mu = d_logvar = 0.0  # the encoder's += 0.0 makes 0.0 + x the tape's x
    for draw in reversed(range(len(draws))):
        d_mu, d_logvar = d_mu + d_graph + z_mu[draw], d_logvar + z_logvar[draw]
    kl_mu, kl_logvar = kl_backward(np.full(np.shape(breakdown.total), breakdown.beta))
    breakdown.grad = encoder_backward(d_mu + kl_mu, d_logvar + kl_logvar)
    return breakdown


def _average(terms):
    total = sum(terms[1:], terms[0])  # ((t0 + t1) + t2) + ...
    return total * (1.0 / len(terms)) if len(terms) > 1 else total


def save_checkpoint(params: EncoderParams, path, seed: int | None = None) -> None:
    """Write parameters as JSON (dims, layer shapes, flat arrays, RNG seed), all or nothing."""
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
                "weights": w.reshape(-1).tolist(),
                "bias": b.reshape(-1).tolist(),
            }
            for w, b in zip(params.weights, params.biases)
        ],
    }
    with replacing(path) as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
