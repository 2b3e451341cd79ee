"""Training loop with warm-up, early stopping, and deterministic evaluation.

The optimizer is Adam; the learning rate ramps linearly over the first 10% of
all optimizer steps.  Each epoch ends with a dev evaluation (macro-F1 for
classification, Spearman for regression); training stops once the dev metric
has failed to improve for more than ``patience`` consecutive epochs, and the
best-dev parameters are returned.  Everything is a pure function of
(seed, config, data).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics as M
from .autodiff import constant, zero_grads
from .coder import EncoderParams, combined_loss, encode, init_params
from .entropy import AssignmentMatrix, hard_assignment
from .softbins import BinSpec, distance_matrix, nearest_bin, soften

REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ClassificationTask:
    num_classes: int

    @property
    def kind(self) -> str:
        return "classification"

    @property
    def latent_dim(self) -> int:
        return self.num_classes


@dataclass(frozen=True)
class RegressionTask:
    bins: BinSpec
    soft_labels: bool = True
    temperature: float = 1.0

    @property
    def kind(self) -> str:
        return "regression"

    @property
    def latent_dim(self) -> int:
        return 1


@dataclass
class TrainConfig:
    task: ClassificationTask | RegressionTask
    beta: float = 1e-2
    gamma: float = 1.0
    lr: float = 1e-3
    epochs: int = 20
    patience: int = 5
    batch_size: int = 128
    seed: int = 0
    hidden: tuple[int, ...] = (64,)
    activation: str = "relu"
    use_mu_for_graph: bool = False
    samples_per_input: int = 1
    warmup_fraction: float = 0.1

    def __post_init__(self):
        if self.beta < 0 or self.gamma < 0:
            raise ValueError("beta and gamma must be non-negative")
        if self.patience > self.epochs:
            raise ValueError("patience cannot exceed the epoch budget")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2: the similarity graph needs a batch")
        if self.samples_per_input < 1:
            raise ValueError("samples_per_input must be >= 1")

    def echo(self) -> dict:
        doc = {
            "beta": self.beta, "gamma": self.gamma, "lr": self.lr,
            "epochs": self.epochs, "patience": self.patience,
            "batch_size": self.batch_size, "seed": self.seed,
            "hidden": list(self.hidden), "activation": self.activation,
            "use_mu_for_graph": self.use_mu_for_graph,
            "samples_per_input": self.samples_per_input,
            "warmup_fraction": self.warmup_fraction,
        }
        if isinstance(self.task, ClassificationTask):
            doc["task"] = {"kind": "classification",
                           "num_classes": self.task.num_classes}
        else:
            doc["task"] = {"kind": "regression",
                           "bins": self.task.bins.num_bins,
                           "lo": self.task.bins.lo, "hi": self.task.bins.hi,
                           "soft_labels": self.task.soft_labels,
                           "temperature": self.task.temperature}
        return doc


class TrainingDiverged(RuntimeError):
    """The loss or a gradient went non-finite; carries a diagnostic payload."""

    def __init__(self, step: int, breakdown: dict[str, float], what: str = "loss"):
        super().__init__(f"non-finite {what} at step {step}")
        self.step = step
        self.breakdown = breakdown


class Adam:
    """Adam with bias correction over ``params.flat``, updated in place.

    ``m`` and ``v`` parallel ``flat``; each step gathers the gradients of
    ``all_tensors()``, so every parameter must carry one (``combined_loss``
    reaches them all).
    """

    def __init__(self, params: EncoderParams, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.tensors = params.all_tensors()
        self.flat = params.flat
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.t = 0

    def step(self, lr_scale: float = 1.0) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        g = np.concatenate([p.grad.reshape(-1) for p in self.tensors])
        self.m = b1 * self.m + (1 - b1) * g
        self.v = b2 * self.v + (1 - b2) * g * g
        m_hat = self.m / (1 - b1 ** self.t)
        v_hat = self.v / (1 - b2 ** self.t)
        self.flat -= self.lr * lr_scale * m_hat / (np.sqrt(v_hat) + self.eps)


def batch_assignment(task, y_batch) -> AssignmentMatrix:
    """Assignment matrix for one batch's labels; labels never carry gradients."""
    if isinstance(task, ClassificationTask):
        return hard_assignment(y_batch, task.num_classes)
    if task.soft_labels:
        return soften(distance_matrix(y_batch, task.bins), task.temperature)
    return hard_assignment(nearest_bin(y_batch, task.bins), task.bins.num_bins)


@dataclass
class TrainResult:
    params: EncoderParams
    history: list[dict]
    best_epoch: int
    best_metric: float


def train(config: TrainConfig,
          train_set: tuple[np.ndarray, np.ndarray],
          dev_set: tuple[np.ndarray, np.ndarray]) -> TrainResult:
    """Optimize the combined objective; return the best-dev parameters.

    Batches smaller than 2 (a trailing remainder) are dropped since the
    similarity graph is undefined on them.
    """
    X_train, y_train = train_set
    X_dev, y_dev = dev_set
    if X_train.shape[0] == 0 or X_dev.shape[0] == 0:
        raise ValueError("train and dev splits must be non-empty")

    ss = np.random.SeedSequence(config.seed)
    init_seed, shuffle_seed, noise_seed = (int(s.generate_state(1)[0])
                                           for s in ss.spawn(3))
    params = init_params(X_train.shape[1], config.hidden, config.task.latent_dim,
                         init_seed, config.activation)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    noise_rng = np.random.default_rng(noise_seed)

    tensors = params.all_tensors()
    opt = Adam(params, config.lr)
    steps_per_epoch = max(1, X_train.shape[0] // config.batch_size)
    warmup_steps = max(1, int(config.warmup_fraction * config.epochs * steps_per_epoch))

    history: list[dict] = []
    best_metric = -np.inf
    best_epoch = -1
    best_values = params.copy_values()
    bad_epochs = 0
    step = 0

    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(X_train.shape[0])
        sums = {"task": 0.0, "kl": 0.0, "se": 0.0, "total": 0.0}
        batches = 0
        for start in range(0, order.size, config.batch_size):
            idx = order[start:start + config.batch_size]
            if idx.size < 2:
                continue
            xb, yb = X_train[idx], y_train[idx]
            assignment = batch_assignment(config.task, yb)
            noise = noise_rng.standard_normal(
                (config.samples_per_input, idx.size, config.task.latent_dim))
            zero_grads(tensors)
            breakdown = combined_loss(
                params, xb, assignment, yb,
                kind=config.task.kind, beta=config.beta, gamma=config.gamma,
                noise=noise, use_mu_for_graph=config.use_mu_for_graph)
            step += 1
            scalars = breakdown.scalars()
            if not np.isfinite(scalars["total"]):
                raise TrainingDiverged(step, scalars)
            try:
                breakdown.total.backward()
            except FloatingPointError as exc:
                raise TrainingDiverged(step, scalars, "gradient") from exc
            opt.step(lr_scale=min(1.0, step / warmup_steps))
            for key in sums:
                sums[key] += scalars[key]
            batches += 1

        dev_metric = _headline_metric(params, X_dev, y_dev, config.task)
        row = {"epoch": epoch,
               **{k: sums[k] / max(batches, 1) for k in ("task", "kl", "se", "total")},
               "dev_metric": dev_metric}
        history.append(row)

        if dev_metric > best_metric:
            best_metric = dev_metric
            best_epoch = epoch
            best_values = params.copy_values()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > config.patience:
                break

    params.load_values(best_values)
    return TrainResult(params, history, best_epoch, best_metric)


def predict(params: EncoderParams, X: np.ndarray, task) -> np.ndarray:
    """Deterministic predictions from the posterior mean (no sampling)."""
    post = encode(params, constant(X))
    if isinstance(task, ClassificationTask):
        return np.argmax(post.mu.values, axis=1)
    return post.mu.values[:, 0]


def _headline_metric(params, X, y, task) -> float:
    preds = predict(params, X, task)
    if isinstance(task, ClassificationTask):
        return M.macro_f1(preds, y, task.num_classes)
    return M.spearman(preds, y)


@dataclass
class MetricsReport:
    """Evaluation summary; classification and regression fill different fields."""

    kind: str
    n: int
    seed: int
    config: dict
    loss: dict[str, float]
    accuracy: float | None = None
    macro_f1: float | None = None
    macro_recall: float | None = None
    per_class_f1: list[float] | None = None
    pearson: float | None = None
    spearman: float | None = None

    @property
    def headline(self) -> float:
        value = self.macro_f1 if self.kind == "classification" else self.spearman
        assert value is not None
        return value

    def to_json_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "kind": self.kind,
            "n": self.n,
            "seed": self.seed,
            "config": self.config,
            "loss": self.loss,
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "macro_recall": self.macro_recall,
            "per_class_f1": self.per_class_f1,
            "pearson": self.pearson,
            "spearman": self.spearman,
        }


def evaluate(params: EncoderParams, X: np.ndarray, y: np.ndarray,
             config: TrainConfig) -> MetricsReport:
    """Deterministic evaluation on one split using the posterior mean.

    The loss breakdown is evaluated on the whole split in one batch with zero
    sampling noise (so z = mu).  It runs on constant views of the
    parameters, so no tape is recorded; ``entropy.se_loss`` then visits the
    split's graph in row tiles without building its gradient panel, and graph
    memory is O(tile + n * r), not n x n.
    """
    if X.shape[0] == 0:
        raise ValueError("cannot evaluate an empty split")
    task = config.task
    assignment = batch_assignment(task, y)
    noise = np.zeros((1, X.shape[0], task.latent_dim))
    frozen = replace(params, weights=[constant(w.values) for w in params.weights],
                     biases=[constant(b.values) for b in params.biases])
    breakdown = combined_loss(frozen, X, assignment, y,
                              kind=task.kind, beta=config.beta, gamma=config.gamma,
                              noise=noise, use_mu_for_graph=config.use_mu_for_graph)
    preds = predict(frozen, X, task)
    report = MetricsReport(kind=task.kind, n=int(X.shape[0]), seed=config.seed,
                           config=config.echo(), loss=breakdown.scalars())
    if isinstance(task, ClassificationTask):
        report.accuracy = M.accuracy(preds, y)
        report.macro_f1 = M.macro_f1(preds, y, task.num_classes)
        report.macro_recall = M.macro_recall(preds, y, task.num_classes)
        report.per_class_f1 = M.per_class_f1(preds, y, task.num_classes).tolist()
    else:
        report.pearson = M.pearson(preds, y)
        report.spearman = M.spearman(preds, y)
    return report


def write_history_csv(history: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["epoch", "task", "kl", "se", "total", "dev_metric"])
        writer.writeheader()
        for row in history:
            writer.writerow(row)


def write_report_json(report: MetricsReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
