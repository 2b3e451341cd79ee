"""Training loop with warm-up, early stopping, and deterministic evaluation.

The optimizer is Adam; the learning rate ramps linearly over the first
``max(1, int(0.1 * epochs * (n_train // batch_size)))`` steps: a tenth of the
planned full batches, counting neither a trailing partial batch nor an early
stop.  Each epoch ends with a dev evaluation (macro-F1 for
classification, Spearman for regression); training stops once the dev metric
has failed to improve for more than ``patience`` consecutive epochs, and the
best-dev parameters are returned.  Everything is a pure function of
(seed, config, data).  ``train_seeds`` trains the seeds of one config in
lockstep, bit for bit as ``train``, the one-seed case of the same loop.
A step takes the closed-form flat gradient of ``coder.combined_loss``; no
autodiff tape is recorded.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import metrics as M
from .autodiff import NonFiniteError
from .coder import (EncoderParams, LossBreakdown, combined_loss, encode, init_params,
                    kl_to_standard_normal, task_loss)
from .datasets import Dataset, replacing
from .entropy import hard_assignment, se_loss
from .softbins import BinSpec, check_temperature, distance_matrix, make_bins, soften

REPORT_SCHEMA_VERSION = 1
WARMUP_FRACTION = 0.1  # of epochs * (n_train // batch_size), the planned full batches
HISTORY_FIELDS = ["epoch", "task", "kl", "se", "total", "dev_metric"]
CHUNK_ROWS = 1024  # rows per encode call over a split, and per membership chunk


@dataclass(frozen=True)
class ClassificationTask:
    num_classes: int
    kind = "classification"  # class attributes, not fields

    @property
    def latent_dim(self) -> int:
        return self.num_classes


@dataclass(frozen=True)
class RegressionTask:
    bins: BinSpec
    soft_labels: bool = True
    temperature: float = 1.0
    kind = "regression"
    latent_dim = 1

    def __post_init__(self):  # checked whatever soft_labels says
        check_temperature(self.temperature)


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

    def __post_init__(self):  # a sweep builds one per cell before it writes
        if not (np.isfinite(self.beta) and np.isfinite(self.gamma)):
            raise ValueError("beta and gamma must be finite")
        if self.beta < 0 or self.gamma < 0:
            raise ValueError("beta and gamma must be non-negative")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2: the similarity graph needs a batch")
        if any(width < 1 for width in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {list(self.hidden)}")
        if self.samples_per_input < 1:
            raise ValueError("samples_per_input must be >= 1")

    def echo(self) -> dict:
        if isinstance(self.task, ClassificationTask):
            task = {"kind": "classification", "num_classes": self.task.num_classes}
        else:
            task = {"kind": "regression", "bins": self.task.bins.num_bins,
                    "lo": self.task.bins.lo, "hi": self.task.bins.hi,
                    "soft_labels": self.task.soft_labels,
                    "temperature": self.task.temperature}
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "task": task, "hidden": list(self.hidden),
                "warmup_fraction": WARMUP_FRACTION}


def config_for(ds: Dataset, kind: str, bins: int = 5, lo: float | None = None,
               hi: float | None = None, soft_labels: bool = True, temperature: float = 1.0,
               **train_kwargs) -> TrainConfig:
    """The config of a ``kind`` run on ``ds``, its splits checked: the one route from
    the run flags to a ``TrainConfig``.  Regression bins default to the label range."""
    if kind == "classification":
        if not ds.is_classification:
            raise ValueError("dataset labels are continuous; use --task regression")
        task = ClassificationTask(ds.num_classes)
    elif kind == "regression":
        lo = lo if lo is not None else float(ds.y.min())
        hi = hi if hi is not None else float(ds.y.max())
        task = RegressionTask(make_bins(lo, hi, bins), soft_labels, temperature)
    else:
        raise ValueError(f"unknown task kind {kind!r}: use classification or regression")
    check_splits(ds, kind)
    return TrainConfig(task=task, **train_kwargs)


def check_splits(ds: Dataset, kind: str) -> Dataset:
    """``ds``, if each split has the rows a ``kind`` run needs: a train batch and
    ``evaluate``'s test batch graph need 2, the dev metric 1 (a regression's Spearman 2)."""
    need = {"train": 2, "dev": 2 if kind == "regression" else 1, "test": 2}
    for tag, least in need.items():
        if (n := ds.indices(tag).size) < least:
            raise ValueError(f"a {kind} run needs at least {least} {tag} rows, got {n}")
    return ds


class TrainingDiverged(RuntimeError):
    """A forward value (``what``: ``embedding``, ``softmax input``), the loss
    or a gradient went non-finite.  ``breakdown`` holds the loss terms, if
    any; for a gradient, ``parameter`` locates its first non-finite entry
    (``EncoderParams.locate``)."""

    def __init__(self, step: int, breakdown: dict[str, float], what: str = "loss",
                 parameter: dict | None = None):
        self.step, self.breakdown, self.what, self.parameter = step, breakdown, what, parameter
        where = " in layer {layer} {tensor}{index} of stack row {row}"
        self.detail = f"non-finite {what}" + (where.format(**parameter) if parameter else "")
        super().__init__(f"{self.detail} at step {step}")


class Adam:
    """Adam with bias correction over ``params.flat``, updated in place; the
    moments and each step's gradient parallel ``flat``."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: EncoderParams, lr: float):
        self.params = params
        self.lr = lr
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.t = 0

    def step(self, g: np.ndarray, lr_scale: float = 1.0) -> None:
        """flat -= lr * lr_scale * m_hat / (sqrt(v_hat) + eps), with the moments
        updated in place, each op in the order of that formula."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        self.m *= b1
        self.m += (1 - b1) * g
        self.v *= b2
        g2 = (1 - b2) * g
        g2 *= g
        self.v += g2
        denom = np.divide(self.v, 1 - b2 ** self.t, out=g2)  # v_hat
        np.sqrt(denom, out=denom)
        denom += self.eps
        update = self.m / (1 - b1 ** self.t)  # m_hat
        update *= self.lr * lr_scale
        update /= denom
        self.params.flat -= update

    def keep(self, rows: list[int]) -> None:
        """Keep only the models at ``rows`` of a stack, moments included."""
        self.params = self.params.like(self.params.flat[rows])
        self.m, self.v = self.m[rows], self.v[rows]


def batch_assignment(task, y_batch) -> np.ndarray:
    """Membership for a batch's or a split's labels, which carry no gradient.
    A regression's is made in place in its distance matrix, ``CHUNK_ROWS``
    rows at a time, with the bits of one call; out-of-range labels warn once."""
    if isinstance(task, ClassificationTask):
        return hard_assignment(y_batch, task.num_classes)
    membership = distance_matrix(y_batch, task.bins)
    for start in range(0, membership.shape[-2], CHUNK_ROWS):
        rows = membership[..., start:start + CHUNK_ROWS, :]
        rows[...] = (soften(rows, task.temperature) if task.soft_labels
                     else hard_assignment(rows.argmin(-1), task.bins.num_bins))
    return membership


@dataclass
class TrainResult:
    params: EncoderParams
    history: list[dict]
    best_epoch: int
    best_metric: float


class _Run:
    """One seed of a lockstep stack: its streams, history and best-dev snapshot."""

    def __init__(self, config: TrainConfig, input_dim: int):
        ss = np.random.SeedSequence(config.seed)
        init_seed, shuffle_seed, noise_seed = (int(s.generate_state(1)[0])
                                               for s in ss.spawn(3))
        self.init = init_params(input_dim, config.hidden, config.task.latent_dim,
                                init_seed, config.activation)
        self.shuffle_rng = np.random.default_rng(shuffle_seed)
        self.noise_rng = np.random.default_rng(noise_seed)
        self.history: list[dict] = []
        self.best_metric, self.best_epoch, self.bad_epochs = -np.inf, -1, 0
        self.best_values = self.init.flat


def train(config: TrainConfig,
          train_set: tuple[np.ndarray, np.ndarray],
          dev_set: tuple[np.ndarray, np.ndarray]) -> TrainResult:
    """Optimize the combined objective; return the best-dev parameters.

    Batches smaller than 2 (a trailing remainder) are dropped since the
    similarity graph is undefined on them.
    """
    return train_seeds([config], train_set, dev_set)[0]


def train_seeds(configs: list[TrainConfig],
                train_set: tuple[np.ndarray, np.ndarray],
                dev_set: tuple[np.ndarray, np.ndarray]) -> list[TrainResult]:
    """``train`` for configs that differ only in their seed, as one stack.

    Every op runs once for all the models.  Each seed keeps its own init,
    shuffle and noise streams, dev metric, best-dev snapshot and early
    stopping, and gets the bits of its solo ``train``; a seed that stops
    leaves the stack.  The train split's membership is built once, chunk by
    chunk, and each step gathers its rows; the dev metric is ``predict``'s.
    A step that raises for any seed ends the whole call; a
    ``TrainingDiverged`` carries the loss terms of the first model whose
    loss, or gradient, is non-finite.
    """
    X_train, y_train = train_set
    X_dev, y_dev = dev_set
    if X_train.shape[0] == 0 or X_dev.shape[0] == 0:
        raise ValueError("train and dev splits must be non-empty")
    config, task, n = configs[0], configs[0].task, X_train.shape[0]
    if any(replace(c, seed=config.seed) != config for c in configs):
        raise ValueError("lockstep configs must differ only in their seed")
    runs = [_Run(c, X_train.shape[1]) for c in configs]
    membership = batch_assignment(task, y_train)  # each step gathers its rows
    active = runs  # row i of the stack trains active[i]
    opt = Adam(runs[0].init.like(np.stack([run.init.flat for run in runs])), config.lr)
    steps_per_epoch = max(1, n // config.batch_size)
    warmup_steps = max(1, int(WARMUP_FRACTION * config.epochs * steps_per_epoch))
    step = 0

    # numpy's overflow warnings would name a source line; the finite checks
    # below report a diverged step as ``TrainingDiverged`` instead.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(config.epochs):
            orders = np.stack([run.shuffle_rng.permutation(n) for run in active])
            sums = np.zeros((4, len(active)))  # task, kl, se, total per seed
            batches = 0
            for start in range(0, n, config.batch_size):
                idx = orders[:, start:start + config.batch_size]
                if idx.shape[1] < 2:
                    continue
                xb, yb = X_train[idx], y_train[idx]
                noise = np.array([run.noise_rng.standard_normal(
                    (config.samples_per_input, idx.shape[1], task.latent_dim))
                    for run in active]).swapaxes(0, 1)
                assignment = membership[idx]
                step += 1
                try:
                    breakdown = combined_loss(
                        opt.params, xb, assignment, yb,
                        kind=task.kind, beta=config.beta, gamma=config.gamma,
                        noise=noise, use_mu_for_graph=config.use_mu_for_graph)
                except NonFiniteError as exc:  # a latent or logit overflowed: no loss terms
                    raise TrainingDiverged(step, {}, exc.what) from exc
                finite = np.isfinite(breakdown.total)
                if not finite.all():
                    raise TrainingDiverged(step, breakdown.scalars(int(np.argmin(finite))))
                if not np.isfinite(breakdown.grad).all():
                    where = opt.params.locate(int(np.argmin(np.isfinite(breakdown.grad))))
                    raise TrainingDiverged(step, breakdown.scalars(where["row"]), "gradient",
                                           where)
                opt.step(breakdown.grad, lr_scale=min(1.0, step / warmup_steps))
                sums += [breakdown.task, breakdown.kl, breakdown.se, breakdown.total]
                batches += 1  # breakdown is kept until replaced: freed here, its heap re-faulted

            for i, run in enumerate(active):
                dev_metric = _headline_metric(opt.params.like(opt.params.flat[i]),
                                              X_dev, y_dev, task)
                run.history.append({"epoch": epoch,
                                    **{k: float(v) / max(batches, 1)
                                       for k, v in zip(("task", "kl", "se", "total"), sums[:, i])},
                                    "dev_metric": dev_metric})
                if dev_metric > run.best_metric:
                    run.best_metric, run.best_epoch = dev_metric, epoch
                    run.best_values = opt.params.flat[i].copy()
                    run.bad_epochs = 0
                else:
                    run.bad_epochs += 1
            kept = [i for i, run in enumerate(active) if run.bad_epochs <= config.patience]
            if len(kept) < len(active):
                if not kept:
                    break
                active = [active[i] for i in kept]
                opt.keep(kept)

    return [TrainResult(run.init.like(run.best_values), run.history, run.best_epoch,
                        run.best_metric) for run in runs]


def predict(params: EncoderParams, X: np.ndarray, task) -> np.ndarray:
    """Deterministic predictions from the posterior mean (no sampling); the
    encoder's memory follows a ``CHUNK_ROWS``-row chunk, not the split."""
    return _predictions(_encode_split(params, X)[0], task)


def _encode_split(params: EncoderParams, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mu, logvar) of a split: one ``encode`` of its rows, or, past
    ``CHUNK_ROWS`` rows, one per chunk of that many, the last zero-padded
    and the pad's outputs dropped.  Every call then has the same row count,
    so a row's bits do not depend on the split's size or its offset, and
    each call's backward, which holds its activations, is dropped at once."""
    n = X.shape[0]
    if n <= CHUNK_ROWS:
        return encode(params, X)[:2]
    mu, logvar = np.empty((2, n, params.latent_dim))
    for start in range(0, n, CHUNK_ROWS):
        rows = X[start:start + CHUNK_ROWS]
        m = len(rows)
        if m < CHUNK_ROWS:
            rows = np.pad(rows, ((0, CHUNK_ROWS - m), (0, 0)))
        chunk_mu, chunk_logvar = encode(params, rows)[:2]
        mu[start:start + m], logvar[start:start + m] = chunk_mu[:m], chunk_logvar[:m]
    return mu, logvar


def _predictions(mu: np.ndarray, task) -> np.ndarray:
    """Class ids (the argmax of the mean) or the 1-d mean itself."""
    if isinstance(task, ClassificationTask):
        return np.argmax(mu, axis=1)
    return mu[:, 0]


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

    def to_json_dict(self) -> dict:
        return {"schema_version": REPORT_SCHEMA_VERSION, **asdict(self)}


def evaluate(params: EncoderParams, X: np.ndarray, y: np.ndarray,
             config: TrainConfig) -> MetricsReport:
    """Deterministic evaluation on one split using the posterior mean.

    The split is encoded once, in ``predict``'s chunks.  The predictions, so
    every metric, read its posterior mean, and the classification scores
    come from one confusion matrix.  The loss breakdown is the unweighted
    mean of the terms of consecutive ``config.batch_size``-row batches at
    zero noise (z = mu), so its entropy is a batch graph's, as in
    ``history.csv``; a trailing batch of under 2 rows is dropped, as in
    ``train_seeds``.  The full batches run as one (m, batch, .) stack and
    the trailing batch as one more call, so graph work is
    O(n * batch_size), not n x n.
    """
    if X.shape[0] < 2:
        raise ValueError(f"evaluate needs 2 rows for a batch graph, got {X.shape[0]}")
    task = config.task
    mu, logvar = _encode_split(params, X)
    assignment = batch_assignment(task, y)
    targets = assignment if isinstance(task, ClassificationTask) else y
    batches = zip(*(_batches(a, config.batch_size) for a in (mu, logvar, targets, assignment)))
    terms = [(task_loss(m, t, task.kind)[0], kl_to_standard_normal(m, v)[0], se_loss(m, c)[0])
             for m, v, t, c in batches]
    task_term, kl, se = (np.mean(np.hstack(values)) for values in zip(*terms))
    loss = LossBreakdown(task=task_term, kl=kl, se=se, beta=config.beta, gamma=config.gamma)
    preds = _predictions(mu, task)
    scores = (M.classification_scores(preds, y, task.num_classes)
              if isinstance(task, ClassificationTask)
              else {"pearson": M.pearson(preds, y), "spearman": M.spearman(preds, y)})
    return MetricsReport(kind=task.kind, n=int(X.shape[0]), seed=config.seed,
                         config=config.echo(), loss=loss.scalars(), **scores)


def _batches(a: np.ndarray, size: int) -> list[np.ndarray]:
    """``a``'s full ``size``-row batches as one (m, size, ...) stack, if any,
    then its trailing batch, if it has 2 rows or more."""
    full = len(a) - len(a) % size
    return ([a[:full].reshape(-1, size, *a.shape[1:])] if full else []) + (
        [a[full:]] if len(a) - full >= 2 else [])


def write_json(path, doc) -> None:
    """A run artifact as JSON: sorted keys, two-space indent, trailing newline."""
    with replacing(path) as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_csv(path, fieldnames: list[str], rows: list[dict]) -> None:
    with replacing(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
