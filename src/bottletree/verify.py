"""Self-contained verification suite: oracle, invariant, and gradient checks.

Each check pits the differentiable implementation against an independent
route (set enumeration, brute-force summation, finite differences, Monte
Carlo) on deterministic random instances.  The CLI ``verify`` subcommand and
the acceptance tests both run these.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import finite_difference_check
from .coder import combined_loss, init_params, kl_to_standard_normal
from .entropy import (AdjacencyMatrix, AssignmentMatrix, build_adjacency,
                      hard_assignment, intermediate_layer_entropy, se_loss,
                      se_loss_matrix, tree_from_assignment)
from .softbins import make_bins, soft_cuts, soft_volumes
from .training import batch_assignment, RegressionTask


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


def _random_instance(rng, n=None, d=None, r=None):
    n = n or int(rng.integers(4, 33))
    d = d or int(rng.integers(2, 9))
    r = r or int(rng.integers(2, 6))
    h = rng.standard_normal((n, d))
    labels = rng.integers(0, r, size=n)
    return h, labels, n, d, r


def _random_soft(rng, n: int, r: int) -> AssignmentMatrix:
    return AssignmentMatrix(rng.dirichlet(np.ones(r), size=n), mode="soft")


def check_matrix_definition(instances: int = 100, seed: int = 1001) -> CheckResult:
    """Matrix-form and fused losses == intermediate-layer entropy from the definition."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_fused = 0.0
    for _ in range(instances):
        h, labels, n, d, r = _random_instance(rng)
        adj = build_adjacency(h)
        c = hard_assignment(labels, r)
        oracle_val = intermediate_layer_entropy(adj, tree_from_assignment(c))
        worst = max(worst, abs(se_loss_matrix(adj, c) - oracle_val))
        worst_fused = max(worst_fused, abs(float(se_loss(h, c)[0]) - oracle_val))
    return CheckResult("oracle", worst <= 1e-9 and worst_fused <= 1e-9,
                       f"max |matrix - definition| = {worst:.3e}, "
                       f"max |fused - definition| = {worst_fused:.3e} "
                       f"over {instances} instances",
                       time.perf_counter() - start)


def check_soft_reduction(instances: int = 100, seed: int = 1002) -> CheckResult:
    """One-hot soft memberships reproduce the hard loss bit-for-bit."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        h, labels, n, d, r = _random_instance(rng)
        adj = build_adjacency(h)
        hard = hard_assignment(labels, r)
        onehot = AssignmentMatrix(hard.membership.copy(), mode="soft")
        worst = max(worst, abs(se_loss_matrix(adj, onehot) - se_loss_matrix(adj, hard)))
    return CheckResult("reduction", worst <= 1e-12,
                       f"max one-hot gap = {worst:.3e} over {instances} instances",
                       time.perf_counter() - start)


def check_soft_consistency(instances: int = 100, seed: int = 1003) -> CheckResult:
    """Matrix and fused forms == summation form built from brute-force cuts/volumes."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_fused = 0.0
    worst_cons = 0.0
    for _ in range(instances):
        h, _, n, d, r = _random_instance(rng)
        adj = build_adjacency(h)
        soft = _random_soft(rng, n, r)
        cuts = soft_cuts(adj, soft)
        vols = soft_volumes(adj, soft)
        vol = adj.volume
        summation = -sum((g / vol) * math.log2(max(v / vol, 1e-12))
                         for g, v in zip(cuts, vols))
        worst = max(worst, abs(se_loss_matrix(adj, soft) - summation))
        worst_fused = max(worst_fused, abs(float(se_loss(h, soft)[0]) - summation))
        worst_cons = max(worst_cons, abs(vols.sum() - vol))
    worst_tiled = 0.0
    for n in MULTI_TILE_ROWS:
        h, _, _, _, r = _random_instance(rng, n=n)
        soft = _random_soft(rng, n, r)
        worst_tiled = max(worst_tiled, abs(float(se_loss(h, soft)[0])
                                           - se_loss_matrix(build_adjacency(h), soft)))
    passed = max(worst, worst_fused, worst_cons, worst_tiled) <= 1e-9
    return CheckResult("soft", passed,
                       f"max |matrix - summation| = {worst:.3e}, "
                       f"max |fused - summation| = {worst_fused:.3e}, "
                       f"max volume-conservation gap = {worst_cons:.3e}, "
                       f"max |fused - matrix| at {MULTI_TILE_ROWS} rows = "
                       f"{worst_tiled:.3e}",
                       time.perf_counter() - start)


def check_bounds(instances: int = 1000, seed: int = 1004) -> CheckResult:
    """0 <= loss <= log2(r) for positive symmetric graphs, hard and soft."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    lo, hi_gap = np.inf, -np.inf
    for i in range(instances):
        n = int(rng.integers(3, 17))
        r = int(rng.integers(2, 6))
        if i % 2 == 0:
            adj = build_adjacency(rng.standard_normal((n, int(rng.integers(2, 6)))))
        else:
            w = np.abs(rng.standard_normal((n, n))) + 1e-3
            adj = AdjacencyMatrix((w + w.T) / 2.0)
        assignment = (hard_assignment(rng.integers(0, r, size=n), r)
                      if i % 4 < 2 else _random_soft(rng, n, r))
        value = se_loss_matrix(adj, assignment)
        lo = min(lo, value)
        hi_gap = max(hi_gap, value - math.log2(r))
    passed = lo >= -1e-12 and hi_gap <= 1e-12
    return CheckResult("bounds", passed,
                       f"min = {lo:.3e}, max excess over log2(r) = {hi_gap:.3e} "
                       f"over {instances} instances",
                       time.perf_counter() - start)


def check_invariance(instances: int = 50, seed: int = 1005) -> CheckResult:
    """Loss is scale-invariant in A and permutation-equivariant in (H, C)."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst_scale = 0.0
    worst_perm = 0.0
    for _ in range(instances):
        h, labels, n, d, r = _random_instance(rng)
        adj = build_adjacency(h)
        c = hard_assignment(labels, r)
        base = se_loss_matrix(adj, c)
        for scale in (0.1, 10.0):
            scaled = AdjacencyMatrix(adj.weights * scale)
            worst_scale = max(worst_scale, abs(se_loss_matrix(scaled, c) - base))
        perm = rng.permutation(n)
        c_p = hard_assignment(labels[perm], r)
        worst_perm = max(worst_perm,
                         abs(se_loss_matrix(build_adjacency(h[perm]), c_p) - base))
    passed = worst_scale <= 1e-9 and worst_perm <= 1e-12
    return CheckResult("invariance", passed,
                       f"max scale gap = {worst_scale:.3e}, max permutation gap = "
                       f"{worst_perm:.3e} over {instances} instances",
                       time.perf_counter() - start)


def check_gradients(batches: int = 12, seed: int = 1006, h: float = 1e-5) -> CheckResult:
    """Full-objective gradients vs central differences with frozen noise."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    bins = make_bins(0.0, 5.0, 5)
    for b in range(batches):
        classification = b % 2 == 0
        n, input_dim = 8, 5
        latent = 3 if classification else 1
        params = init_params(input_dim, (16,), latent, int(rng.integers(0, 2**32)))
        X = rng.standard_normal((n, input_dim))
        noise = rng.standard_normal((1, n, latent))
        beta, gamma = 0.1, 1.0
        if classification:
            y = rng.integers(0, latent, size=n)
            assignment = hard_assignment(y, latent)
            kind = "classification"
        else:
            y = rng.uniform(0.0, 5.0, size=n)
            assignment = batch_assignment(RegressionTask(bins), y)
            kind = "regression"

        def f(flat):
            bd = combined_loss(params.like(flat), X, assignment, y, kind=kind, beta=beta,
                               gamma=gamma, noise=noise, need_grad=True)
            return bd.total, bd.grad

        worst = max(worst, finite_difference_check(f, params.flat, h=h))
    return CheckResult("grad", worst < 1e-4,
                       f"max relative gradient error = {worst:.3e} over {batches} batches",
                       time.perf_counter() - start)


def check_kl(posteriors: int = 10, samples: int = 1_000_000,
             seed: int = 1007) -> CheckResult:
    """Closed-form KL vs Monte Carlo; KL(0, 0) must be exactly zero."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    dim = 4
    worst = 0.0
    for _ in range(posteriors):
        mu = rng.standard_normal((1, dim))
        logvar = rng.uniform(-1.5, 1.5, size=(1, dim))
        closed = float(kl_to_standard_normal(mu, logvar)[0])
        sigma = np.exp(0.5 * logvar[0])
        z = mu[0] + sigma * rng.standard_normal((samples, dim))
        # log N(z; mu, sigma^2) - log N(z; 0, I); the 2*pi terms cancel
        log_ratio = (-0.5 * (logvar[0] + ((z - mu[0]) / sigma) ** 2)
                     + 0.5 * z ** 2).sum(axis=1)
        worst = max(worst, abs(log_ratio.mean() - closed))
    exact_zero = kl_to_standard_normal(np.zeros((3, dim)), np.zeros((3, dim)))[0] == 0.0
    passed = worst <= 1e-2 and exact_zero
    return CheckResult("kl", passed,
                       f"max |closed-form - Monte Carlo| = {worst:.3e} over "
                       f"{posteriors} posteriors; KL(0,0) exactly zero: {exact_zero}",
                       time.perf_counter() - start)


ALL_CHECKS: dict[str, Callable[[], CheckResult]] = {
    "oracle": check_matrix_definition,
    "reduction": check_soft_reduction,
    "soft": check_soft_consistency,
    "bounds": check_bounds,
    "invariance": check_invariance,
    "grad": check_gradients,
    "kl": check_kl,
}


def run_checks(only: list[str] | None = None) -> list[CheckResult]:
    names = list(ALL_CHECKS) if not only else only
    unknown = [n for n in names if n not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; available: {list(ALL_CHECKS)}")
    return [ALL_CHECKS[name]() for name in names]
