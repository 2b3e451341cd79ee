"""Grid sweeps over (beta, gamma, perturbation, seed) cells.

Before it writes anything, the sweep parses its CSV once, resolves its
config template from the unperturbed data with ``training.config_for``, the
route ``train`` takes, checks every cell's ``TrainConfig`` and applies each
perturbation, checking its splits, so a bad task kind or value, or a fraction
that leaves under 2 train rows, raises and writes nothing.  Each worker gets
the perturbed datasets and the template at start-up, so every cell bins as
``train`` does.  Beta and gamma come only from the grids (``sweep --betas``,
``--gammas``).  One job per (beta, gamma, perturbation) group trains the
group's seeds in lockstep (each bit for bit its solo ``train``) and
evaluates each on the test split; with fewer groups than workers, each
group's seeds are split into lockstep chunks, one job each, so every worker
gets work, and no more workers start than there are jobs.  Per-run reports
are written as JSON as soon as their job ends; ``runs.csv`` holds one row
per run per metric (long format) and ``aggregate.csv`` the per-cell
mean/std over seeds.  Cell failures are recorded and the sweep continues.
A dead worker breaks the pool: every cell not yet finished, in any worker,
is recorded as an error.
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
from .training import (TrainConfig, check_splits, config_for, evaluate, train, train_seeds,
                       write_csv, write_json)


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

    def apply(self, ds: Dataset) -> Dataset:
        if self.kind == "none":
            return ds
        perturb = inject_label_noise if self.kind == "noise" else subsample_train
        return perturb(ds, self.value, self.seed)


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
    train_kwargs: dict = field(default_factory=dict)  # ``config_for``'s: bins/lr/epochs/...

    def __post_init__(self):  # ``run_sweep`` checks the rest before writing
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.perturb_seed < 0:
            raise ValueError(f"perturb_seed must be >= 0, got {self.perturb_seed}")
        if self.noise_rates and self.fractions:
            raise ValueError("choose label noise or train-fraction perturbation, not both")
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


# The sweep's perturbed datasets and its config template, in each process that runs cells.
_datasets: dict[Perturbation, Dataset] = {}
_template: TrainConfig | None = None


def _hold(datasets: dict[Perturbation, Dataset], template: TrainConfig | None) -> None:
    """Give this process the sweep's datasets and template: a pool worker's initializer."""
    global _datasets, _template
    _datasets, _template = datasets, template


def run_cell(spec: ExperimentSpec,
             group: tuple[float, float, Perturbation]) -> list[dict | str]:
    """Per seed of ``spec.seeds``, its test report dict or its error text,
    on the dataset ``run_sweep`` parsed from ``spec.data_path``, perturbed.
    The task, and so a regression's bins, is the unperturbed dataset's.

    The group's seeds train in lockstep; if that raises, each trains alone,
    so a failing seed fails only its own cell, with its solo error.
    """
    beta, gamma, perturbation = group
    ds = _datasets[perturbation]
    configs = [replace(_template, beta=beta, gamma=gamma, seed=seed) for seed in spec.seeds]
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

    The CSV is parsed, the task and every cell's config built and each
    perturbation applied and its splits checked first, so a bad CSV, task, train
    value, perturbation, split or seed raises before anything is written.  An
    ``errors.json`` left by an earlier sweep into ``out_dir`` is removed;
    earlier per-run JSONs are kept.
    """
    ds = load_csv(spec.data_path)
    template = config_for(ds, spec.task_kind, **spec.train_kwargs)
    for beta, gamma, seed in product(spec.betas, spec.gammas, spec.seeds):
        replace(template, beta=beta, gamma=gamma, seed=seed)  # a config checks itself
    datasets = {p: check_splits(p.apply(ds), spec.task_kind) for p in spec.perturbations()}
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
    workers = min(spec.jobs, len(jobs))  # a fork pool starts all its workers at once
    if workers > 1:
        # Forked workers inherit the datasets from the initializer's arguments
        # without pickling them.
        with ProcessPoolExecutor(max_workers=workers, initializer=_hold,
                                 initargs=(datasets, template)) as pool:
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
        _hold(datasets, template)
        try:
            for job_spec, group, first in jobs:
                record(first, _worker(job_spec, group))
        finally:
            _hold({}, None)

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

