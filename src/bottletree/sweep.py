"""Grid sweeps over (beta, gamma, perturbation, seed) cells.

The sweep checks its values, parses its CSV once and builds its task from
the unperturbed data, all before it writes anything, and each worker process
gets the ``Dataset`` and the task at start-up, so every cell bins as
``train`` does.  One job per (beta, gamma, perturbation) group trains the
group's seeds in lockstep (each bit for bit its solo ``train``) and
evaluates each on the test split; with fewer groups than workers, each
group's seeds are split into lockstep chunks, one job each, so every worker
gets work.  Per-run reports are written as JSON as soon as their job ends;
``runs.csv`` holds one row per run per metric (long format) and
``aggregate.csv`` the per-cell mean/std over seeds.  Cell failures are
recorded and the sweep continues.  A dead worker breaks the pool: every cell
not yet finished, in any worker, is recorded as an error.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .datasets import Dataset, inject_label_noise, load_csv, remove_files, subsample_train
from .softbins import check_temperature, make_bins
from .training import (ClassificationTask, RegressionTask, TrainConfig, check_train_values,
                       evaluate, train, train_seeds, write_csv, write_json)


class WorkerCrashed(RuntimeError):
    """A sweep worker died; finished cells are written, the rest are in errors.json."""


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

    def __post_init__(self):  # before any file is written
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        for beta, gamma in product(self.betas, self.gammas):
            check_train_values({**self.train_kwargs, "beta": beta, "gamma": gamma})
        if self.task_kind == "regression":
            check_temperature(self.temperature)
        if not all(0.0 <= rate <= 1.0 for rate in self.noise_rates):
            raise ValueError(f"noise rates must lie in [0, 1], got {list(self.noise_rates)}")
        if not all(0.0 < fraction <= 1.0 for fraction in self.fractions):
            raise ValueError(f"fractions must lie in (0, 1], got {list(self.fractions)}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.noise_rates and self.fractions:
            raise ValueError("choose label noise or train-fraction perturbation, not both")
        if self.noise_rates and self.task_kind == "regression":
            raise ValueError("label noise applies to classification only; "
                             "a regression sweep may perturb train fractions")
        counts = Counter(map(_cell_name, self.cells()))  # a cell's name is its identity
        if repeated := [name for name, k in counts.items() if k > 1]:
            raise ValueError(f"the grid repeats cells {repeated}; seeds and grid values "
                             "must differ, values to :g precision")

    def perturbations(self) -> list[Perturbation]:
        if self.noise_rates:
            return [Perturbation("noise", r, self.perturb_seed) for r in self.noise_rates]
        if self.fractions:
            return [Perturbation("fraction", f, self.perturb_seed) for f in self.fractions]
        return [Perturbation("none", 0.0, self.perturb_seed)]

    def groups(self) -> list[tuple[float, float, Perturbation]]:
        return list(product(self.betas, self.gammas, self.perturbations()))

    def cells(self) -> list[tuple[float, float, Perturbation, int]]:
        return [(*group, seed) for group in self.groups() for seed in self.seeds]


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


# The sweep's parsed CSV and the task built from it, in each process that runs cells.
_dataset: Dataset | None = None
_task: ClassificationTask | RegressionTask | None = None


def _hold(ds: Dataset | None, task) -> None:
    """Give this process the sweep's dataset and task: a pool worker's initializer."""
    global _dataset, _task
    _dataset, _task = ds, task


def run_cell(spec: ExperimentSpec,
             group: tuple[float, float, Perturbation]) -> list[dict | str]:
    """Per seed of ``spec.seeds``, its test report dict or its error text,
    on the dataset ``run_sweep`` parsed from ``spec.data_path``, perturbed.
    The task, and so a regression's bins, is the unperturbed dataset's.

    The group's seeds train in lockstep; if that raises, each trains alone,
    so a failing seed fails only its own cell, with its solo error.
    """
    beta, gamma, perturbation = group
    ds = apply_perturbation(_dataset, perturbation)
    configs = [TrainConfig(task=_task, beta=beta, gamma=gamma, seed=seed,
                           **spec.train_kwargs) for seed in spec.seeds]
    train_set, dev_set = ds.subset("train"), ds.subset("dev")
    try:
        results = train_seeds(configs, train_set, dev_set)
    except Exception:  # a seed failed: each trains alone below
        results = [None] * len(configs)
    outcomes = []
    for config, result in zip(configs, results):
        try:
            result = result or train(config, train_set, dev_set)
            outcomes.append(evaluate(result.params, *ds.subset("test"), config).to_json_dict())
        except Exception as exc:  # recorded for this cell, the others go on
            outcomes.append(f"{type(exc).__name__}: {exc}")
    return outcomes


def _cell_name(cell: tuple[float, float, Perturbation, int]) -> str:
    beta, gamma, p, seed = cell
    return f"run_b{beta:g}_g{gamma:g}_p{p.tag()}_s{seed}"


def _jobs(spec: ExperimentSpec) -> list[tuple[ExperimentSpec, tuple, int]]:
    """(spec over a chunk of the seeds, group, index of its first cell) per job.

    A job is a whole group, unless there are fewer groups than workers: then
    each group's seeds are split into ``ceil(jobs / groups)`` near-equal chunks.
    """
    groups, seeds = spec.groups(), spec.seeds
    parts = min(len(seeds), -(-spec.jobs // max(len(groups), 1)))
    bounds = [len(seeds) * i // parts for i in range(parts + 1)]
    return [(replace(spec, seeds=seeds[lo:hi]), group, g * len(seeds) + lo)
            for g, group in enumerate(groups) for lo, hi in zip(bounds, bounds[1:])]


def _worker(spec: ExperimentSpec, group) -> list[dict | str]:
    try:
        return run_cell(spec, group)
    except Exception as exc:  # recorded for every cell of the group, sweep continues
        return [f"{type(exc).__name__}: {exc}"] * len(spec.seeds)


RUN_METRICS = ("accuracy", "macro_f1", "macro_recall", "pearson", "spearman")
LOSS_METRICS = ("task", "kl", "se", "total")
RUN_FIELDS = ["beta", "gamma", "perturb_kind", "perturb_value", "seed", "metric", "value"]
AGGREGATE_KEY = [f for f in RUN_FIELDS if f not in ("seed", "value")]  # one row per key


def _metric_rows(report: dict) -> list[tuple[str, float]]:
    rows = [(m, report[m]) for m in RUN_METRICS if report.get(m) is not None]
    rows.extend((f"loss_{m}", report["loss"][m]) for m in LOSS_METRICS)
    return rows


def run_sweep(spec: ExperimentSpec) -> dict:
    """Run every cell; write per-run JSONs, runs.csv, aggregate.csv, errors.json,
    then raise ``WorkerCrashed`` if a worker died.

    The CSV is parsed and the task built from it first, so a missing or
    malformed CSV, or one the task cannot use, raises before anything is
    written.  An ``errors.json`` left by an earlier sweep into ``out_dir``
    is removed; earlier per-run JSONs are kept.
    """
    ds = load_csv(spec.data_path)
    task = build_task(ds, spec.task_kind, spec.bins, spec.lo, spec.hi,
                      spec.soft_labels, spec.temperature)
    runs_dir = os.path.join(spec.out_dir, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    errors_path = os.path.join(spec.out_dir, "errors.json")
    remove_files(errors_path)

    cells = spec.cells()
    reports: dict[int, dict] = {}
    errors: dict[int, str] = {}

    def record(first: int, outcomes: list[dict | str]) -> None:
        for index, outcome in enumerate(outcomes, start=first):
            if isinstance(outcome, str):
                errors[index] = outcome
            else:
                reports[index] = outcome
                write_json(os.path.join(runs_dir, _cell_name(cells[index]) + ".json"),
                           outcome)

    jobs, crashed = _jobs(spec), False
    if spec.jobs > 1:
        # Forked workers inherit the dataset from the initializer's arguments
        # without pickling it.
        with ProcessPoolExecutor(max_workers=spec.jobs, initializer=_hold,
                                 initargs=(ds, task)) as pool:
            futures = {pool.submit(_worker, job_spec, group): (job_spec, first)
                       for job_spec, group, first in jobs}
            for future in as_completed(futures):
                job_spec, first = futures[future]
                try:
                    record(first, future.result())
                except BrokenProcessPool as exc:
                    crashed = True
                    record(first, [f"{type(exc).__name__}: {exc}"] * len(job_spec.seeds))
    else:
        _hold(ds, task)
        try:
            for job_spec, group, first in jobs:
                record(first, _worker(job_spec, group))
        finally:
            _hold(None, None)

    run_rows = []
    for index, report in sorted(reports.items()):
        beta, gamma, p, seed = cells[index]
        for metric, value in _metric_rows(report):
            run_rows.append(dict(zip(RUN_FIELDS,
                                     (beta, gamma, p.kind, p.value, seed, metric, value))))
    write_csv(os.path.join(spec.out_dir, "runs.csv"), RUN_FIELDS, run_rows)

    groups: dict[tuple, list[float]] = {}
    for row in run_rows:
        groups.setdefault(tuple(row[f] for f in AGGREGATE_KEY), []).append(row["value"])
    agg_rows = []
    for key in sorted(groups, key=str):
        values = np.asarray(groups[key])
        agg_rows.append({**dict(zip(AGGREGATE_KEY, key)), "mean": float(values.mean()),
                         "std": float(values.std()),  # population std (ddof=0)
                         "n": values.size})
    write_csv(os.path.join(spec.out_dir, "aggregate.csv"),
              [*AGGREGATE_KEY, "mean", "std", "n"], agg_rows)

    if errors:
        write_json(errors_path,
                   [{"cell": _cell_name(cells[i]), "error": errors[i]} for i in sorted(errors)])
    if crashed:
        raise WorkerCrashed(f"a sweep worker died; {len(reports)}/{len(cells)} runs "
                            "written, the rest are in errors.json")
    return {"cells": len(cells), "succeeded": len(reports), "failed": len(errors)}

