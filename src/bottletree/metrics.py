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


def per_class_f1(preds, golds, num_classes: int) -> np.ndarray:
    """F1 per class; a class never predicted nor present scores 0."""
    preds, golds = _check_pair(preds, golds)
    if golds.size and (min(preds.min(), golds.min()) < 0
                       or max(preds.max(), golds.max()) >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes})")
    out = np.zeros(num_classes)
    for c in range(num_classes):
        tp = float(np.sum((preds == c) & (golds == c)))
        fp = float(np.sum((preds == c) & (golds != c)))
        fn = float(np.sum((preds != c) & (golds == c)))
        denom = 2.0 * tp + fp + fn
        out[c] = 2.0 * tp / denom if denom > 0 else 0.0
    return out


def macro_f1(preds, golds, num_classes: int) -> float:
    return float(per_class_f1(preds, golds, num_classes).mean())


def macro_recall(preds, golds, num_classes: int) -> float:
    """Unweighted mean of per-class recall; absent classes contribute 0."""
    preds, golds = _check_pair(preds, golds)
    recalls = np.zeros(num_classes)
    for c in range(num_classes):
        support = float(np.sum(golds == c))
        if support > 0:
            recalls[c] = float(np.sum((preds == c) & (golds == c))) / support
    return float(recalls.mean())


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
