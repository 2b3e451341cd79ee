"""Grid sweeps over (beta, gamma, perturbation, seed) cells.

Before it writes anything, the sweep parses its CSV once, resolves its
config template from the unperturbed data with ``training.config_for``, the
route ``train`` takes, builds every cell's ``TrainConfig`` and applies each
perturbation, checking its splits, so a bad task kind or value, or a fraction
that leaves under 2 train rows, raises and writes nothing.  Every job runs in
a pool worker, at ``jobs=1`` too; a worker gets the perturbed datasets at
start-up, and a job carries its cells' configs, so every cell bins as
``train`` does.  Beta and gamma come only from the grids (``--betas``,
``--gammas``).  One job per (beta, gamma, perturbation) group trains the
group's seeds in lockstep (each bit for bit its solo ``train``) and
evaluates each on the test split; with fewer groups than workers, each
group's seeds are split into lockstep chunks, one job each, so every worker
gets work, and no more workers start than there are jobs.  Per-run reports
are written as JSON as soon as their job ends; ``runs.csv`` holds one row
per run per metric (long format) and ``aggregate.csv`` the per-cell
mean/std over seeds.  Cell failures are recorded and the sweep continues.
A dead worker breaks the pool: every cell not yet finished, in any worker,
is recorded as an error.  Workers ignore SIGINT, so a Ctrl-C reaches only
the sweep's own process: it drops the queued jobs, lets the running ones
end, writes every finished cell as usual, names the rest ``interrupted`` in
``errors.json`` and re-raises (the CLI exits 130).  ``run_sweep`` imports
the pool's modules (``concurrent.futures``, ``multiprocessing``) only when
it starts the pool, so a process that runs no sweep never loads them.
"""

from __future__ import annotations

import os
from collections import Counter
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
    perturb_seed: int = 0  # the noise or fraction draws' seed: 0 without either
    jobs: int = 1
    train_kwargs: dict = field(default_factory=dict)  # ``config_for``'s: bins/lr/epochs/...

    def __post_init__(self):  # ``run_sweep`` checks the rest before writing
        if not (self.betas and self.gammas and self.seeds):
            raise ValueError("betas, gammas and seeds must be non-empty")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.perturb_seed < 0:
            raise ValueError(f"perturb_seed must be >= 0, got {self.perturb_seed}")
        if self.perturb_seed and not (self.noise_rates or self.fractions):
            raise ValueError(f"perturb_seed {self.perturb_seed} seeds no noise rate or fraction")
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


# The sweep's perturbed datasets, in each worker process.
_datasets: dict[Perturbation, Dataset] = {}


def _hold(datasets: dict[Perturbation, Dataset]) -> None:
    """Give this worker the sweep's perturbed datasets, and leave Ctrl-C to
    the parent: the pool's initializer."""
    import signal

    global _datasets
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _datasets = datasets


def run_cell(perturbation: Perturbation, configs: list[TrainConfig]) -> list[dict | str]:
    """Per config, its test report dict or its error text, on the sweep's
    dataset perturbed by ``perturbation``.  The configs differ only in their
    seeds, and their task, so a regression's bins, is the unperturbed data's.

    The seeds train in lockstep; if that raises, each trains alone, so a
    failing seed fails only its own cell, with its solo error.
    """
    ds = _datasets[perturbation]
    train_set, dev_set, test_set = ds.subset("train"), ds.subset("dev"), ds.subset("test")
    try:
        results = train_seeds(configs, train_set, dev_set)
    except Exception:  # a seed failed: each trains alone below
        results = [None] * len(configs)
    outcomes = []
    for config, result in zip(configs, results):
        try:
            result = result or train(config, train_set, dev_set)
            outcomes.append(evaluate(result.params, *test_set, config).to_json_dict())
        except Exception as exc:  # recorded for this cell, the others go on
            outcomes.append(f"{type(exc).__name__}: {exc}")
    return outcomes


def _cell_name(cell: tuple[float, float, Perturbation, int]) -> str:
    beta, gamma, p, seed = cell
    return f"run_b{beta:g}_g{gamma:g}_p{p.tag()}_s{seed}"


def _jobs(spec: ExperimentSpec) -> list[tuple[Perturbation, range]]:
    """(perturbation, indices of its cells in ``spec.cells()``) per job.

    A job is a whole group, unless there are fewer groups than workers: then
    each group's seeds are split into ``ceil(jobs / groups)`` near-equal chunks.
    """
    groups, seeds = spec.groups(), len(spec.seeds)
    parts = min(seeds, -(-spec.jobs // len(groups)))
    bounds = [seeds * i // parts for i in range(parts + 1)]
    return [(p, range(g * seeds + lo, g * seeds + hi)) for g, (_, _, p) in enumerate(groups)
            for lo, hi in zip(bounds, bounds[1:])]


def _worker(perturbation: Perturbation, configs: list[TrainConfig]) -> list[dict | str]:
    try:
        return run_cell(perturbation, configs)
    except Exception as exc:  # recorded for every cell of the job, sweep continues
        return [f"{type(exc).__name__}: {exc}"] * len(configs)


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
    then raise ``KeyboardInterrupt`` if the sweep was interrupted, or
    ``WorkerCrashed`` if a worker died.

    The CSV is parsed, the task and every cell's config built and each
    perturbation applied and its splits checked first, so a bad CSV, task, train
    value, perturbation, split or seed raises before anything is written.  An
    ``errors.json`` left by an earlier sweep into ``out_dir`` is removed;
    earlier per-run JSONs are kept.
    """
    ds = load_csv(spec.data_path)
    template = config_for(ds, spec.task_kind, **spec.train_kwargs)
    cells = spec.cells()
    configs = [replace(template, beta=beta, gamma=gamma, seed=seed)  # each checks itself
               for beta, gamma, _, seed in cells]
    datasets = {p: check_splits(p.apply(ds), spec.task_kind) for p in spec.perturbations()}
    runs_dir = os.path.join(spec.out_dir, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    errors_path = os.path.join(spec.out_dir, "errors.json")
    remove_files(errors_path)

    reports: dict[int, dict] = {}
    errors: dict[int, str] = {}

    def record(indices: range, outcomes: list[dict | str]) -> None:
        for index, outcome in zip(indices, outcomes):
            if isinstance(outcome, str):
                errors[index] = outcome
            else:
                reports[index] = outcome
                write_json(os.path.join(runs_dir, _cell_name(cells[index]) + ".json"),
                           outcome)

    # Imported here, not with the module: only a sweep's own process uses them.
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    def collect(future, indices: range) -> bool:
        """Record a finished job's outcomes; True if its worker died."""
        try:
            record(indices, future.result())
        except BrokenProcessPool as exc:
            record(indices, [f"{type(exc).__name__}: {exc}"] * len(indices))
            return True
        return False

    jobs, crashed, interrupted = _jobs(spec), False, False
    # A fork pool starts all its workers at once, and they inherit the
    # datasets from the initializer's arguments without pickling them.
    with ProcessPoolExecutor(max_workers=min(spec.jobs, len(jobs)), initializer=_hold,
                             initargs=(datasets,)) as pool:
        pending = {pool.submit(_worker, perturbation, [configs[i] for i in indices]): indices
                   for perturbation, indices in jobs}
        try:
            for future in as_completed(pending):
                crashed |= collect(future, pending[future])
                del pending[future]
        except KeyboardInterrupt:  # the queued jobs go, the running ones end
            interrupted = True
            pool.shutdown(cancel_futures=True)
            for future, indices in pending.items():
                if future.cancelled():
                    record(indices, ["interrupted"] * len(indices))
                else:
                    crashed |= collect(future, indices)

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
    if interrupted:
        raise KeyboardInterrupt
    if crashed:
        raise WorkerCrashed(f"a sweep worker died; {len(reports)}/{len(cells)} runs "
                            "written, the rest are in errors.json")
    return {"cells": len(cells), "succeeded": len(reports), "failed": len(errors)}

