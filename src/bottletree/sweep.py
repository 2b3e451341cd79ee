"""Grid sweeps over (beta, gamma, perturbation, seed) cells.

Each cell trains one model and evaluates it on the test split.  Per-run
reports are retained as JSON; ``runs.csv`` holds one row per run per metric
(long format) and ``aggregate.csv`` the per-cell mean/std over seeds.  Child
failures are recorded and the sweep continues.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .datasets import Dataset, inject_label_noise, load_csv, subsample_train
from .softbins import make_bins
from .training import (ClassificationTask, RegressionTask, TrainConfig,
                       evaluate, train)


@dataclass(frozen=True)
class Perturbation:
    kind: str  # "none" | "noise" | "fraction"
    value: float
    seed: int

    def tag(self) -> str:
        if self.kind == "none":
            return "none"
        return f"{self.kind}{self.value:g}"


@dataclass
class ExperimentSpec:
    data_path: str
    task_kind: str  # "classification" | "regression"
    betas: tuple[float, ...]
    gammas: tuple[float, ...]
    seeds: tuple[int, ...]
    out_dir: str
    noise_rates: tuple[float, ...] = ()
    fractions: tuple[float, ...] = ()
    perturb_seed: int = 0
    jobs: int = 1
    bins: int = 5
    lo: float | None = None
    hi: float | None = None
    soft_labels: bool = True
    temperature: float = 1.0
    train_kwargs: dict = field(default_factory=dict)  # lr/epochs/patience/...

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if any(b < 0 for b in self.betas) or any(g < 0 for g in self.gammas):
            raise ValueError("grid values must be non-negative")
        if self.noise_rates and self.fractions:
            raise ValueError("choose label noise or train-fraction perturbation, not both")

    def perturbations(self) -> list[Perturbation]:
        if self.noise_rates:
            return [Perturbation("noise", r, self.perturb_seed) for r in self.noise_rates]
        if self.fractions:
            return [Perturbation("fraction", f, self.perturb_seed) for f in self.fractions]
        return [Perturbation("none", 0.0, self.perturb_seed)]

    def cells(self) -> list[tuple[float, float, Perturbation, int]]:
        return list(product(self.betas, self.gammas, self.perturbations(), self.seeds))


def apply_perturbation(ds: Dataset, p: Perturbation) -> Dataset:
    if p.kind == "none":
        return ds
    if p.kind == "noise":
        return inject_label_noise(ds, p.value, p.seed)
    if p.kind == "fraction":
        return subsample_train(ds, p.value, p.seed)
    raise ValueError(f"unknown perturbation kind {p.kind!r}")


def build_task(ds: Dataset, kind: str, bins: int = 5,
               lo: float | None = None, hi: float | None = None,
               soft_labels: bool = True, temperature: float = 1.0):
    """The task for ``ds``; regression bins default to the label range."""
    if kind == "classification":
        if not ds.is_classification:
            raise ValueError("dataset labels are continuous; use --task regression")
        return ClassificationTask(ds.num_classes)
    lo = lo if lo is not None else float(ds.y.min())
    hi = hi if hi is not None else float(ds.y.max())
    return RegressionTask(make_bins(lo, hi, bins), soft_labels, temperature)


def run_cell(spec: ExperimentSpec,
             cell: tuple[float, float, Perturbation, int]) -> dict:
    beta, gamma, perturbation, seed = cell
    ds = apply_perturbation(load_csv(spec.data_path), perturbation)
    task = build_task(ds, spec.task_kind, spec.bins, spec.lo, spec.hi,
                      spec.soft_labels, spec.temperature)
    config = TrainConfig(task=task, beta=beta, gamma=gamma, seed=seed,
                         **spec.train_kwargs)
    result = train(config, ds.subset("train"), ds.subset("dev"))
    report = evaluate(result.params, *ds.subset("test"), config)
    return report.to_json_dict()


def _cell_name(cell: tuple[float, float, Perturbation, int]) -> str:
    beta, gamma, p, seed = cell
    return f"run_b{beta:g}_g{gamma:g}_p{p.tag()}_s{seed}"


def _worker(args) -> tuple[int, dict | None, str | None]:
    index, spec, cell = args
    try:
        return index, run_cell(spec, cell), None
    except Exception as exc:  # recorded, sweep continues
        return index, None, f"{type(exc).__name__}: {exc}"


RUN_METRICS = ("accuracy", "macro_f1", "macro_recall", "pearson", "spearman")
LOSS_METRICS = ("task", "kl", "se", "total")


def _metric_rows(report: dict) -> list[tuple[str, float]]:
    rows = [(m, report[m]) for m in RUN_METRICS if report.get(m) is not None]
    rows.extend((f"loss_{m}", report["loss"][m]) for m in LOSS_METRICS)
    return rows


def run_sweep(spec: ExperimentSpec) -> dict:
    """Run every cell; write per-run JSONs, runs.csv, aggregate.csv, errors.json."""
    os.makedirs(spec.out_dir, exist_ok=True)
    runs_dir = os.path.join(spec.out_dir, "runs")
    os.makedirs(runs_dir, exist_ok=True)

    cells = spec.cells()
    jobs = [(i, spec, cell) for i, cell in enumerate(cells)]
    if spec.jobs > 1:
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            outcomes = list(pool.map(_worker, jobs))
        outcomes.sort(key=lambda t: t[0])
    else:
        outcomes = [_worker(j) for j in jobs]

    reports: dict[int, dict] = {}
    errors: list[dict] = []
    for index, report, error in outcomes:
        cell = cells[index]
        if error is not None:
            errors.append({"cell": _cell_name(cell), "error": error})
            continue
        reports[index] = report
        with open(os.path.join(runs_dir, _cell_name(cell) + ".json"),
                  "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")

    run_rows = []
    for index, report in sorted(reports.items()):
        beta, gamma, p, seed = cells[index]
        for metric, value in _metric_rows(report):
            run_rows.append({"beta": beta, "gamma": gamma, "perturb_kind": p.kind,
                             "perturb_value": p.value, "seed": seed,
                             "metric": metric, "value": value})
    _write_csv(os.path.join(spec.out_dir, "runs.csv"),
               ["beta", "gamma", "perturb_kind", "perturb_value", "seed",
                "metric", "value"], run_rows)

    groups: dict[tuple, list[float]] = {}
    for row in run_rows:
        key = (row["beta"], row["gamma"], row["perturb_kind"],
               row["perturb_value"], row["metric"])
        groups.setdefault(key, []).append(row["value"])
    agg_rows = []
    for key in sorted(groups, key=str):
        values = np.asarray(groups[key])
        beta, gamma, pk, pv, metric = key
        agg_rows.append({"beta": beta, "gamma": gamma, "perturb_kind": pk,
                         "perturb_value": pv, "metric": metric,
                         "mean": float(values.mean()),
                         "std": float(values.std()),  # population std (ddof=0)
                         "n": values.size})
    _write_csv(os.path.join(spec.out_dir, "aggregate.csv"),
               ["beta", "gamma", "perturb_kind", "perturb_value", "metric",
                "mean", "std", "n"], agg_rows)

    if errors:
        with open(os.path.join(spec.out_dir, "errors.json"), "w", encoding="utf-8") as fh:
            json.dump(errors, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return {"cells": len(cells), "succeeded": len(reports), "failed": len(errors)}


def _write_csv(path: str, fieldnames: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
