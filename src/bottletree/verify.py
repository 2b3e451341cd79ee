"""Self-contained verification suite: oracle, invariant, and gradient checks.

Each check pits one route against an independent one (set enumeration,
brute-force summation, finite differences, Monte Carlo) on deterministic
random instances; ``reduction`` pits the two oracles on one-hot memberships.
A check takes no arguments (its seed and sizes are fixed) and returns
``(passed, detail)``; ``run_checks`` alone names and times it.  The CLI
``verify`` subcommand and the acceptance tests both go through
``run_checks``; ``verify`` prints one line per check and writes no file.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .autodiff import finite_difference_check
from .coder import combined_loss, init_params, kl_to_standard_normal
from .entropy import (build_adjacency, check_membership, hard_assignment,
                      intermediate_layer_entropy, se_loss, se_loss_matrix,
                      tree_from_assignment)
from .softbins import make_bins, soft_cuts, soft_volumes
from .training import ClassificationTask, RegressionTask, batch_assignment


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


# Batch sizes that ``se_loss`` splits into 2 and 6 row tiles at the shipped
# ``SE_BLOCK_ENTRIES``, both with a ragged last tile; ``_random_instance``
# alone never exceeds one tile.
MULTI_TILE_ROWS = (300, 601)


def _random_instance(rng, n=None):
    n = n or int(rng.integers(4, 33))
    d = int(rng.integers(2, 9))
    r = int(rng.integers(2, 6))
    h = rng.standard_normal((n, d))
    labels = rng.integers(0, r, size=n)
    return h, labels, n, d, r


def _random_soft(rng, n: int, r: int) -> np.ndarray:
    return check_membership(rng.dirichlet(np.ones(r), size=n))


def _summation_loss(adj: np.ndarray, assignment: np.ndarray) -> float:
    """The loss summed class by class from brute-force cuts and volumes."""
    vol = adj.sum()
    return -sum((g / vol) * math.log2(max(v / vol, 1e-12))
                for g, v in zip(soft_cuts(adj, assignment), soft_volumes(adj, assignment)))


def check_matrix_definition() -> tuple[bool, str]:
    """Matrix-form and fused losses == intermediate-layer entropy from the definition."""
    rng = np.random.default_rng(1001)
    worst = 0.0
    worst_fused = 0.0
    for _ in range(100):
        h, labels, n, d, r = _random_instance(rng)
        adj = build_adjacency(h)
        c = hard_assignment(labels, r)
        oracle_val = intermediate_layer_entropy(adj, tree_from_assignment(c))
        worst = max(worst, abs(se_loss_matrix(adj, c) - oracle_val))
        worst_fused = max(worst_fused, abs(float(se_loss(h, c)[0]) - oracle_val))
    return (worst <= 1e-9 and worst_fused <= 1e-9,
            f"max |matrix - definition| = {worst:.3e}, "
            f"max |fused - definition| = {worst_fused:.3e} "
            "over 100 instances")


def check_soft_reduction() -> tuple[bool, str]:
    """On one-hot memberships the soft summation == the hard tree's definition."""
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        h, labels, n, d, r = _random_instance(rng)
        adj = build_adjacency(h)
        onehot = hard_assignment(labels, r)
        definition = intermediate_layer_entropy(adj, tree_from_assignment(onehot))
        worst = max(worst, abs(_summation_loss(adj, onehot) - definition))
    return (worst <= 1e-12,
            f"max |summation - definition| = {worst:.3e} over 100 instances")


def check_soft_consistency() -> tuple[bool, str]:
    """Matrix and fused forms == summation form built from brute-force cuts/volumes."""
    rng = np.random.default_rng(1003)
    worst = 0.0
    worst_fused = 0.0
    worst_cons = 0.0
    for _ in range(100):
        h, _, n, d, r = _random_instance(rng)
        adj = build_adjacency(h)
        soft = _random_soft(rng, n, r)
        summation = _summation_loss(adj, soft)
        worst = max(worst, abs(se_loss_matrix(adj, soft) - summation))
        worst_fused = max(worst_fused, abs(float(se_loss(h, soft)[0]) - summation))
        worst_cons = max(worst_cons, abs(soft_volumes(adj, soft).sum() - adj.sum()))
    worst_tiled = 0.0
    for n in MULTI_TILE_ROWS:
        h, _, _, _, r = _random_instance(rng, n=n)
        soft = _random_soft(rng, n, r)
        worst_tiled = max(worst_tiled, abs(float(se_loss(h, soft)[0])
                                           - se_loss_matrix(build_adjacency(h), soft)))
    passed = max(worst, worst_fused, worst_cons, worst_tiled) <= 1e-9
    return (passed,
            f"max |matrix - summation| = {worst:.3e}, "
            f"max |fused - summation| = {worst_fused:.3e}, "
            f"max volume-conservation gap = {worst_cons:.3e}, "
            f"max |fused - matrix| at {MULTI_TILE_ROWS} rows = "
            f"{worst_tiled:.3e}")


def check_bounds() -> tuple[bool, str]:
    """0 <= loss <= log2(r) for positive symmetric graphs, hard and soft."""
    rng = np.random.default_rng(1004)
    lo, hi_gap = np.inf, -np.inf
    for i in range(1000):
        n = int(rng.integers(3, 17))
        r = int(rng.integers(2, 6))
        if i % 2 == 0:
            adj = build_adjacency(rng.standard_normal((n, int(rng.integers(2, 6)))))
        else:
            w = np.abs(rng.standard_normal((n, n))) + 1e-3
            adj = (w + w.T) / 2.0
        assignment = (hard_assignment(rng.integers(0, r, size=n), r)
                      if i % 4 < 2 else _random_soft(rng, n, r))
        value = se_loss_matrix(adj, assignment)
        lo = min(lo, value)
        hi_gap = max(hi_gap, value - math.log2(r))
    passed = lo >= -1e-12 and hi_gap <= 1e-12
    return (passed,
            f"min = {lo:.3e}, max excess over log2(r) = {hi_gap:.3e} "
            "over 1000 instances")


def check_invariance() -> tuple[bool, str]:
    """Loss is scale-invariant in A and permutation-equivariant in (H, C)."""
    rng = np.random.default_rng(1005)
    worst_scale = 0.0
    worst_perm = 0.0
    for _ in range(50):
        h, labels, n, d, r = _random_instance(rng)
        adj = build_adjacency(h)
        c = hard_assignment(labels, r)
        base = se_loss_matrix(adj, c)
        for scale in (0.1, 10.0):
            scaled = adj * scale
            worst_scale = max(worst_scale, abs(se_loss_matrix(scaled, c) - base))
        perm = rng.permutation(n)
        c_p = hard_assignment(labels[perm], r)
        worst_perm = max(worst_perm,
                         abs(se_loss_matrix(build_adjacency(h[perm]), c_p) - base))
    passed = worst_scale <= 1e-9 and worst_perm <= 1e-12
    return (passed,
            f"max scale gap = {worst_scale:.3e}, max permutation gap = "
            f"{worst_perm:.3e} over 50 instances")


def check_gradients() -> tuple[bool, str]:
    """Full-objective gradients vs central differences with frozen noise, and
    the entropy's tiled backward vs central differences along random directions."""
    rng = np.random.default_rng(1006)
    worst = 0.0
    n, input_dim = 8, 5
    tasks = (ClassificationTask(3), RegressionTask(make_bins(0.0, 5.0, 5)))
    for b in range(12):
        task = tasks[b % 2]
        params = init_params(input_dim, (16,), task.latent_dim, int(rng.integers(0, 2**32)))
        X = rng.standard_normal((n, input_dim))
        noise = rng.standard_normal((1, n, task.latent_dim))
        y = (rng.integers(0, task.num_classes, size=n) if task.kind == "classification"
             else rng.uniform(0.0, 5.0, size=n))
        assignment = batch_assignment(task, y)

        def f(flat):
            bd = combined_loss(params.like(flat), X, assignment, y, kind=task.kind, beta=0.1,
                               gamma=1.0, noise=noise)
            return bd.total, bd.grad

        worst = max(worst, finite_difference_check(f, params.flat, h=1e-5))
    # A batch of 8 rows is one tile; these cross tile boundaries.  The error
    # along v is scaled by its bound |grad| |v|, as <grad, v> may be near 0.
    worst_tiled, step = 0.0, 1e-5
    for n in MULTI_TILE_ROWS:
        h, _, _, _, r = _random_instance(rng, n=n)
        soft = _random_soft(rng, n, r)
        grad = se_loss(h, soft, need_grad=True)[1](1.0)
        v = rng.standard_normal((3, *h.shape))  # three directions, one stack
        numeric = (se_loss(h + step * v, soft)[0] - se_loss(h - step * v, soft)[0]) / (2 * step)
        error = np.abs((grad * v).sum(axis=(1, 2)) - numeric) / (
            np.linalg.norm(grad) * np.linalg.norm(v, axis=(1, 2)))
        worst_tiled = max(worst_tiled, float(error.max()))
    return (worst < 1e-4 and worst_tiled < 1e-6,
            f"max relative gradient error = {worst:.3e} over 12 batches, "
            f"max entropy directional error = {worst_tiled:.3e} along 3 directions "
            f"at {MULTI_TILE_ROWS} rows")


def check_kl() -> tuple[bool, str]:
    """Closed-form KL vs Monte Carlo; KL(0, 0) must be exactly zero."""
    rng = np.random.default_rng(1007)
    dim = 4
    worst = 0.0
    for _ in range(10):
        mu = rng.standard_normal((1, dim))
        logvar = rng.uniform(-1.5, 1.5, size=(1, dim))
        closed = float(kl_to_standard_normal(mu, logvar)[0])
        sigma = np.exp(0.5 * logvar[0])
        z = mu[0] + sigma * rng.standard_normal((1_000_000, dim))
        # log N(z; mu, sigma^2) - log N(z; 0, I); the 2*pi terms cancel
        log_ratio = (-0.5 * (logvar[0] + ((z - mu[0]) / sigma) ** 2)
                     + 0.5 * z ** 2).sum(axis=1)
        worst = max(worst, abs(log_ratio.mean() - closed))
    exact_zero = kl_to_standard_normal(np.zeros((3, dim)), np.zeros((3, dim)))[0] == 0.0
    passed = worst <= 1e-2 and exact_zero
    return (passed,
            f"max |closed-form - Monte Carlo| = {worst:.3e} over "
            f"10 posteriors; KL(0,0) exactly zero: {exact_zero}")


ALL_CHECKS: dict[str, Callable[[], tuple[bool, str]]] = {
    "oracle": check_matrix_definition,
    "reduction": check_soft_reduction,
    "soft": check_soft_consistency,
    "bounds": check_bounds,
    "invariance": check_invariance,
    "grad": check_gradients,
    "kl": check_kl,
}


def _run(name: str) -> CheckResult:
    start = time.perf_counter()
    passed, detail = ALL_CHECKS[name]()
    return CheckResult(name, passed, detail, time.perf_counter() - start)


def run_checks(only: list[str] | None = None) -> Iterator[CheckResult]:
    """Each check's timed result as the check ends; every name is vetted before any
    runs, and a name given twice runs once, where it first appears."""
    names = list(dict.fromkeys(only or ALL_CHECKS))
    unknown = [n for n in names if n not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; available: {list(ALL_CHECKS)}")
    return map(_run, names)
