"""Regression labels -> soft class memberships, and entropy over the result.

Continuous labels are binned into r uniform classes, distances to the bin
centers are softened row-wise with a softmax, and the resulting row-stochastic
membership matrix plays the role of the assignment matrix in the structural
entropy loss (``entropy.se_loss_matrix`` / ``entropy.se_loss`` with C = Y').
Labels are data, plain arrays with no gradient; a hard label is a one-hot row.
``soft_cuts`` / ``soft_volumes`` are brute-force summation oracles for the
matrix form, and the hard tree's cuts and volumes on one-hot rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .autodiff import DimensionError, softmax_values
from .entropy import _check_pair, check_membership


@dataclass(frozen=True)
class BinSpec:
    """Uniform-width bins over [lo, hi] with midpoint centers."""

    lo: float
    hi: float
    centers: tuple[float, ...]

    @property
    def num_bins(self) -> int:
        return len(self.centers)


def make_bins(lo: float, hi: float, num_bins: int) -> BinSpec:
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if num_bins < 2:
        raise ValueError(f"need at least 2 bins, got {num_bins}")
    width = (hi - lo) / num_bins
    centers = tuple(lo + (j + 0.5) * width for j in range(num_bins))
    return BinSpec(float(lo), float(hi), centers)


def distance_matrix(labels, bins: BinSpec) -> np.ndarray:
    """|label_i - center_j| as an n x r array, or S x n x r for a stack.

    Labels outside [lo, hi] are accepted (the distances stay well defined)
    but trigger a warning, since they usually indicate a range mistake.
    """
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim not in (1, 2):
        raise DimensionError("labels must be a 1-D sequence or a stack of them")
    if not np.all(np.isfinite(y)):
        raise ValueError("labels must be finite")
    if y.size and (y.min() < bins.lo or y.max() > bins.hi):
        warnings.warn(f"labels outside declared range [{bins.lo}, {bins.hi}]",
                      stacklevel=2)
    centers = np.asarray(bins.centers)
    return np.abs(y[..., None] - centers)


def check_temperature(temperature: float) -> None:
    if not (np.isfinite(temperature) and temperature > 0):
        raise ValueError(f"temperature must be positive and finite, got {temperature}")


def soften(distances: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Row-stochastic membership: softmax of negated distances.

    Closer bin centers get higher probability; temperature 1 is the plain
    softmax, smaller values approach the hard nearest-bin limit.
    """
    check_temperature(temperature)
    return check_membership(softmax_values(-distances / temperature, -1))


def nearest_bin(labels, bins: BinSpec) -> np.ndarray:
    """Hard nearest-center class ids (ties resolve to the lower index)."""
    y = np.asarray(labels, dtype=np.float64)
    centers = np.asarray(bins.centers)
    return np.argmin(np.abs(y[..., None] - centers), axis=-1)


def soft_volumes(adj, assignment) -> np.ndarray:
    """Per-class soft volumes sum_i Y'_ij * d_i, by direct summation.

    Conserves the graph volume: the values sum to vol(G) for any
    row-stochastic membership.
    """
    a, m = _check_pair(adj, assignment)
    degrees = a.sum(axis=1)
    out = np.zeros(m.shape[1])
    for j in range(m.shape[1]):
        acc = 0.0
        for i in range(m.shape[0]):
            acc += m[i, j] * degrees[i]
        out[j] = acc
    return out


def soft_cuts(adj, assignment) -> np.ndarray:
    """Per-class soft cuts sum_{i,k} A_ik * Y'_kj * (1 - Y'_ij), by direct summation.

    Each edge weight is scaled by the probability that one endpoint belongs
    to the class and the other does not; reduces to the hard cut for one-hot
    memberships.
    """
    a, m = _check_pair(adj, assignment)
    n, r = m.shape
    out = np.zeros(r)
    for j in range(r):
        acc = 0.0
        for i in range(n):
            for k in range(n):
                acc += a[i, k] * m[k, j] * (1.0 - m[i, j])
        out[j] = acc
    return out
