"""Synthetic datasets, experimental perturbations, and CSV persistence.

Generators are deterministic per seed.  Label-noise injection and train-set
subsampling touch only the train split.  The CSV schema is
``split,y,x0..x{d-1}`` with a leading provenance comment; floats are written
with 17 significant digits so round trips are exact.  Loading rejects
non-finite features and labels.

Both directions stream: ``save_csv`` formats and writes one row at a time,
and ``load_csv`` reads line by line into one flat float buffer that becomes
``X`` without a copy, so memory is O(arrays), not O(file text).  Lines end
at ``\n``, ``\r\n`` or ``\r`` (file iteration with universal newlines).
``replacing`` (write, then rename) writes every run artifact and saved CSV.
"""

from __future__ import annotations

import os
from array import array
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

SPLITS = ("train", "dev", "test")


class DatasetParseError(ValueError):
    """A CSV file could not be parsed; the message names the offending line."""


@dataclass
class Dataset:
    X: np.ndarray          # (n, d) float64
    y: np.ndarray          # (n,) int64 for classification, float64 for regression
    split: np.ndarray      # (n,) str tags from SPLITS
    provenance: str

    def __post_init__(self):
        n = self.X.shape[0]
        if self.y.shape != (n,) or self.split.shape != (n,):
            raise ValueError("X, y and split must agree on the sample count")
        known = np.isin(self.split, SPLITS)
        if not known.all():
            raise ValueError(f"unknown split tags: {sorted(set(self.split[~known].tolist()))}")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def is_classification(self) -> bool:
        return np.issubdtype(self.y.dtype, np.integer)

    @property
    def num_classes(self) -> int:
        if not self.is_classification:
            raise ValueError("regression dataset has no class count")
        if (lowest := int(self.y.min())) < 0:
            raise ValueError(f"class labels must be non-negative, got {lowest}")
        return int(self.y.max()) + 1

    def indices(self, tag: str) -> np.ndarray:
        return np.flatnonzero(self.split == tag)

    def subset(self, tag: str) -> tuple[np.ndarray, np.ndarray]:
        idx = self.indices(tag)
        return self.X[idx], self.y[idx]

    def equals(self, other: "Dataset") -> bool:
        return (self.X.shape == other.X.shape
                and np.array_equal(self.X, other.X)
                and self.y.dtype.kind == other.y.dtype.kind
                and np.array_equal(self.y, other.y)
                and np.array_equal(self.split, other.split)
                and self.provenance == other.provenance)


def _assign_splits(n: int, rng: np.random.Generator) -> np.ndarray:
    """floor(0.6 n) train, floor(0.2 n) dev and the rest test tags, shuffled."""
    n_train = int(np.floor(0.6 * n))
    n_dev = int(np.floor(0.2 * n))
    tags = np.array(["train"] * n_train + ["dev"] * n_dev
                    + ["test"] * (n - n_train - n_dev))
    return tags[rng.permutation(n)]


def gen_blobs(num_classes: int, n: int, dim: int, spread: float, seed: int) -> Dataset:
    """Near-balanced Gaussian blobs around random unit-direction class means."""
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if n < num_classes:
        raise ValueError("need at least one sample per class")
    if dim < 1:
        raise ValueError(f"need at least 1 feature, got dim={dim}")
    if not (np.isfinite(spread) and spread > 0):
        raise ValueError(f"spread must be positive and finite, got {spread}")
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((num_classes, dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    labels = rng.permutation(np.arange(n) % num_classes)  # counts differ by <= 1
    X = means[labels] + spread * rng.standard_normal((n, dim))
    prov = (f"generator=blobs;seed={seed};"
            f"params=classes={num_classes},n={n},dim={dim},spread={spread:.17g}")
    return Dataset(X, labels.astype(np.int64), _assign_splits(n, rng), prov)


def gen_regression(n: int, dim: int, noise_std: float, lo: float, hi: float,
                   seed: int) -> Dataset:
    """Smooth nonlinear targets in [lo, hi] plus clamped Gaussian noise.

    The clean target is a sum of sinusoids of two random linear projections,
    mapped affinely from its [-1.5, 1.5] range onto [lo, hi].
    """
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got [{lo}, {hi}]")
    if not (np.isfinite(noise_std) and noise_std >= 0):
        raise ValueError(f"noise_std must be non-negative and finite, got {noise_std}")
    if n < 1:
        raise ValueError(f"need at least 1 row, got n={n}")
    if dim < 1:
        raise ValueError(f"need at least 1 feature, got dim={dim}")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, dim))
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    raw = np.sin(X @ u) + 0.5 * np.sin(2.0 * (X @ v))
    clean = lo + (raw + 1.5) / 3.0 * (hi - lo)
    y = np.clip(clean + noise_std * rng.standard_normal(n), lo, hi)
    prov = (f"generator=regression;seed={seed};"
            f"params=n={n},dim={dim},noise_std={noise_std:.17g},"
            f"lo={lo:.17g},hi={hi:.17g}")
    return Dataset(X, y, _assign_splits(n, rng), prov)


def inject_label_noise(ds: Dataset, rate: float, seed: int) -> Dataset:
    """Reassign floor(rate * n_train) train labels uniformly over all classes.

    A reassignment may land on the original class.  Dev/test are untouched.
    """
    if not ds.is_classification:
        raise ValueError("label noise applies to classification only")
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"noise rates must lie in [0, 1], got {rate}")
    train_idx = ds.indices("train")
    k = int(np.floor(rate * train_idx.size))
    y = ds.y.copy()
    if k > 0:
        rng = np.random.default_rng(seed)
        hit = rng.choice(train_idx, size=k, replace=False)
        y[hit] = rng.integers(0, ds.num_classes, size=k)
    prov = ds.provenance + f"|noise=rate={rate:.17g},seed={seed}"
    return Dataset(ds.X.copy(), y, ds.split.copy(), prov)


def subsample_train(ds: Dataset, fraction: float, seed: int) -> Dataset:
    """Keep a uniform floor(fraction * n_train) subset of the train split."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fractions must lie in (0, 1], got {fraction}")
    train_idx = ds.indices("train")
    k = int(np.floor(fraction * train_idx.size))
    if k == 0:
        raise ValueError("subsampling would leave an empty train split")
    rng = np.random.default_rng(seed)
    mask = ds.split != "train"
    mask[rng.choice(train_idx, size=k, replace=False)] = True
    prov = ds.provenance + f"|subsample=fraction={fraction:.17g},seed={seed}"
    return Dataset(ds.X[mask].copy(), ds.y[mask].copy(), ds.split[mask].copy(), prov)


def save_csv(ds: Dataset, path) -> None:
    if not (np.isfinite(ds.X).all() and np.isfinite(ds.y).all()):
        raise ValueError("cannot save non-finite features or labels: load_csv rejects them")
    # one %-format per row, written as it is formatted; %.17g round-trips float64
    row_fmt = ",".join(["%s", "%d" if ds.is_classification else "%.17g"]
                       + ["%.17g"] * ds.dim) + "\n"
    with replacing(path, newline="\n") as fh:
        fh.write(f"# {ds.provenance}\nsplit,y,"
                 + ",".join(f"x{i}" for i in range(ds.dim)) + "\n")
        fh.writelines(row_fmt % (tag, y, *row.tolist())
                      for tag, y, row in zip(ds.split, ds.y, ds.X))


def load_csv(path) -> Dataset:
    provenance = ""
    header = None
    feats = array("d")  # every row's features, row after row
    tags, labels, linenos = [], [], array("q")
    known = {tag: tag for tag in SPLITS}  # each row keeps a shared tag string
    with open(path, encoding="utf-8-sig") as fh:  # skips a leading byte-order mark
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                if not provenance:
                    provenance = line.lstrip("#").strip()
                continue
            if header is None:
                header = line.split(",")
                if header[:2] != ["split", "y"]:
                    raise DatasetParseError(f"line {lineno}: header must start with 'split,y'")
                if len(header) < 3:
                    raise DatasetParseError(f"line {lineno}: header names no feature column")
                continue
            cells = line.split(",")
            if len(cells) != len(header):
                raise DatasetParseError(
                    f"line {lineno}: expected {len(header)} columns, got {len(cells)}")
            tag = known.get(cells[0])
            if tag is None:
                raise DatasetParseError(f"line {lineno}: unknown split tag {cells[0]!r}")
            try:
                feats.extend(map(float, cells[2:]))
            except ValueError:
                raise DatasetParseError(f"line {lineno}: non-numeric feature cell") from None
            tags.append(tag)
            labels.append(cells[1])
            linenos.append(lineno)
    if header is None or not labels:
        raise DatasetParseError("file contains no data rows")

    classification = "generator=blobs" in provenance
    if "generator=" not in provenance:
        classification = all(map(_is_int_token, labels))
    parse = int if classification else float
    y = array("q" if classification else "d")
    for lineno, y_str in zip(linenos, labels):
        try:
            y.append(parse(y_str))
        except ValueError:
            raise DatasetParseError(f"line {lineno}: non-numeric label {y_str!r}") from None
    X = np.frombuffer(feats).reshape(len(labels), len(header) - 2)
    y = np.frombuffer(y, dtype=np.int64 if classification else np.float64)
    finite = np.isfinite(X).all(axis=1) & np.isfinite(y)
    if not finite.all():
        lineno = linenos[int(np.argmin(finite))]
        raise DatasetParseError(f"line {lineno}: non-finite feature or label")
    return Dataset(X, y, np.array(tags), provenance)


def _is_int_token(s: str) -> bool:
    try:
        int(s)
        return True
    except ValueError:
        return False


@contextmanager
def replacing(path, **kwargs):
    """A text file under a temporary name, renamed to ``path`` once complete:
    a reader never sees half a file; a failed write leaves ``path`` as it was, and no ``.tmp``
    (its directory, if new, stays)."""
    tmp = f"{path}.tmp"
    os.makedirs(os.path.dirname(tmp) or ".", exist_ok=True)
    try:
        with open(tmp, "w", encoding="utf-8", **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:  # the half-written file goes, the error stays
        remove_files(tmp)
        raise


def remove_files(*paths) -> None:
    """Delete those of ``paths`` that exist: the records of an earlier run."""
    for path in paths:
        with suppress(FileNotFoundError):
            os.remove(path)
