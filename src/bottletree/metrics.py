"""Evaluation metrics: macro-F1/recall, accuracy, Pearson, Spearman.

Hand-rolled so the edge contracts are explicit: empty classes contribute
F1 = 0, constant inputs give correlation 0 with a warning, and Spearman uses
average ranks for ties.  The test suite cross-checks the correlations against
scipy.
"""

from __future__ import annotations

import warnings

import numpy as np


def _check_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("inputs must be 1-D")
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    return a, b


def accuracy(preds, golds) -> float:
    preds, golds = _check_pair(preds, golds)
    return float(np.mean(preds == golds))


def confusion_matrix(preds, golds, num_classes: int) -> np.ndarray:
    """(r, r) integer counts: row ``c`` holds the rows of gold class ``c``,
    column ``k`` those predicted as ``k``."""
    preds, golds = _check_pair(preds, golds)
    if any(v.dtype.kind not in "biu" and not (v == np.round(v)).all() for v in (preds, golds)):
        raise ValueError("class labels must be integers")
    if golds.size and (min(preds.min(), golds.min()) < 0
                       or max(preds.max(), golds.max()) >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes})")
    cells = golds.astype(np.int64, copy=False) * num_classes + preds.astype(np.int64, copy=False)
    return np.bincount(cells, minlength=num_classes * num_classes).reshape(
        num_classes, num_classes)


def _f1_of(confusion: np.ndarray) -> np.ndarray:
    denom = confusion.sum(axis=0) + confusion.sum(axis=1)  # 2tp + fp + fn
    out = np.zeros(confusion.shape[0])
    np.divide(2.0 * np.diag(confusion), denom, out=out, where=denom > 0)
    return out


def _recall_of(confusion: np.ndarray) -> float:
    support = confusion.sum(axis=1)
    recalls = np.zeros(confusion.shape[0])
    np.divide(np.diag(confusion), support, out=recalls, where=support > 0)
    return float(recalls.mean())


def per_class_f1(preds, golds, num_classes: int) -> np.ndarray:
    """F1 per class; a class never predicted nor present scores 0."""
    return _f1_of(confusion_matrix(preds, golds, num_classes))


def macro_f1(preds, golds, num_classes: int) -> float:
    return float(per_class_f1(preds, golds, num_classes).mean())


def macro_recall(preds, golds, num_classes: int) -> float:
    """Unweighted mean of per-class recall; absent classes contribute 0."""
    return _recall_of(confusion_matrix(preds, golds, num_classes))


def classification_scores(preds, golds, num_classes: int) -> dict:
    """Accuracy, macro-F1, macro-recall and per-class F1 from one confusion
    matrix, with the values of the functions of those names."""
    confusion = confusion_matrix(preds, golds, num_classes)
    f1 = _f1_of(confusion)
    return {"accuracy": float(np.trace(confusion) / confusion.sum()),
            "macro_f1": float(f1.mean()), "macro_recall": _recall_of(confusion),
            "per_class_f1": f1.tolist()}


def pearson(x, y) -> float:
    """Product-moment correlation; constant input is defined as 0 with a warning."""
    x, y = _check_pair(x, y)
    if x.size < 2:
        raise ValueError("correlation needs at least 2 points")
    xc = x - x.mean()
    yc = y - y.mean()
    ssx = float(np.dot(xc, xc))
    ssy = float(np.dot(yc, yc))
    if ssx == 0.0 or ssy == 0.0:
        warnings.warn("constant input: correlation defined as 0", stacklevel=2)
        return 0.0
    return float(np.dot(xc, yc) / np.sqrt(ssx * ssy))


def average_ranks(x) -> np.ndarray:
    """1-based ranks; tied values share the average of their rank range."""
    x = np.asarray(x)
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    # tie runs [starts[k], ends[k]] of the sorted values (NaNs never tie)
    breaks = np.flatnonzero(sorted_x[1:] != sorted_x[:-1]) + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks - 1, [x.size - 1]))
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def spearman(x, y) -> float:
    """Pearson correlation of average-ranked data."""
    x, y = _check_pair(x, y)
    if x.size < 2:
        raise ValueError("correlation needs at least 2 points")
    return pearson(average_ranks(x), average_ranks(y))
