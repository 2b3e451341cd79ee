"""The benchmark's three workloads: inputs from a seed, one timed op, its checks.

Every call into bottletree goes through the module attribute
(``training.train``, ``sweep.run_sweep``, ...), so the traced run's patches
see it.  Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from bottletree import datasets, softbins, sweep, training

REPORT_KEYS = {"schema_version", "kind", "n", "seed", "config", "loss",
               "accuracy", "macro_f1", "macro_recall", "per_class_f1",
               "pearson", "spearman"}
LOSS_KEYS = {"task", "kl", "se", "total", "beta", "gamma"}
JOBS = 2  # sweep-noise-j2: one worker per core of the 2-CPU reference box


@dataclass
class Tally:
    """Ops attempted and failed, plus checks that are not ops (set-up, tracing)."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, problem: str | None) -> bool:
        self.attempted += 1
        if problem:
            self.failed += 1
            print(f"failed op: {problem}", file=sys.stderr)
        return not problem

    def problem(self, what: str) -> None:
        self.problems.append(what)
        print(f"failed check: {what}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


@dataclass
class Sample:
    """Timings and outcome of one op (a train + evaluate, or one whole sweep)."""

    wall_s: float
    train_s: float
    eval_s: list[float]
    rows_epochs: int
    headline: float


def _error(exc: BaseException) -> str:
    traceback.print_exception(exc, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


def report_problem(doc: dict, kind: str, n: int, floor: float) -> str | None:
    """Why a report dict is wrong, or None: schema, finite losses, headline floor."""
    if set(doc) != REPORT_KEYS or doc["schema_version"] != 1:
        return f"report schema: keys {sorted(doc)}"
    if doc["kind"] != kind or doc["n"] != n:
        return f"report is for kind={doc['kind']} n={doc['n']}, expected {kind} n={n}"
    if set(doc["loss"]) != LOSS_KEYS or not all(map(math.isfinite, doc["loss"].values())):
        return f"report loss: {doc['loss']}"
    headline = doc["macro_f1"] if kind == "classification" else doc["spearman"]
    if headline is None or not math.isfinite(headline) or headline < floor:
        return f"headline {headline} below floor {floor}"
    return None


class TrainWorkload:
    """Generate -> CSV round trip -> train (fixed epochs) -> evaluate on test.

    ``evals`` > 1 repeats the evaluate after the timed cell (train + one
    evaluate), so that a fast evaluate still gives ``eval_s`` enough samples.
    """

    def __init__(self, seed: int, *, generate, task, batch_size: int,
                 epochs: int, lr: float, evals: int, floor: float):
        self.seed = seed
        self._generate, self.task = generate, task
        self.batch_size, self.epochs, self.lr = batch_size, epochs, lr
        self.evals, self.floor = evals, floor
        self._reference: dict | None = None

    def generate(self):
        return self._generate(self.seed)

    def config(self) -> training.TrainConfig:
        # patience == epochs: early stopping never fires, so the work is fixed.
        return training.TrainConfig(
            task=self.task, beta=0.01, gamma=1.0, lr=self.lr, epochs=self.epochs,
            patience=self.epochs, batch_size=self.batch_size, hidden=(64,),
            seed=self.seed)

    def run(self, ds, data_path: Path, work_dir: Path, tally: Tally) -> Sample:
        cfg = self.config()
        rows = ds.indices("train").size * self.epochs
        t0 = perf_counter()
        try:
            result = training.train(cfg, ds.subset("train"), ds.subset("dev"))
        except Exception as exc:
            train_s = perf_counter() - t0
            tally.op(f"train: {_error(exc)}")
            for _ in range(self.evals):
                tally.op("evaluate: not run, train failed")
            return Sample(train_s, train_s, [], rows, math.nan)
        train_s = perf_counter() - t0
        losses = [row[k] for row in result.history
                  for k in ("task", "kl", "se", "total", "dev_metric")]
        finite = len(result.history) == self.epochs and all(map(math.isfinite, losses))
        tally.op(None if finite else "train: non-finite loss or missing epochs in history")
        eval_s, headlines = [], []
        for _ in range(self.evals):
            seconds, headline = self._evaluate(result.params, ds, cfg, tally)
            eval_s.append(seconds)
            headlines.append(headline)
        return Sample(train_s + eval_s[0], train_s, eval_s, rows, headlines[0])

    def _evaluate(self, params, ds, cfg, tally: Tally) -> tuple[float, float]:
        X_test, y_test = ds.subset("test")
        t0 = perf_counter()
        try:
            doc = training.evaluate(params, X_test, y_test, cfg).to_json_dict()
        except Exception as exc:
            seconds = perf_counter() - t0
            tally.op(f"evaluate: {_error(exc)}")
            return seconds, math.nan
        seconds = perf_counter() - t0
        kind = self.task.kind
        problem = report_problem(doc, kind, y_test.size, self.floor)
        # Same flags, same report: the determinism contract.
        if problem is None and self._reference is not None and doc != self._reference:
            problem = "report differs from the first run with the same flags"
        self._reference = self._reference or doc
        tally.op(problem and f"evaluate: {problem}")
        return seconds, doc["macro_f1"] if kind == "classification" else doc["spearman"]


class SweepWorkload:
    """Generate -> CSV -> run_sweep over gamma x seeds at label noise 0.2, jobs=2."""

    def __init__(self, seed: int, *, n: int, epochs: int, seeds: int, floor: float):
        self.seed = seed
        self.n, self.epochs, self.seeds, self.floor = n, epochs, seeds, floor
        self._reference: dict[str, bytes] | None = None
        self._runs = 0

    def generate(self):
        return datasets.gen_blobs(4, self.n, 16, 0.45, self.seed)

    def run(self, ds, data_path: Path, work_dir: Path, tally: Tally) -> Sample:
        out_dir = work_dir / f"sweep-{self._runs}"
        self._runs += 1
        spec = sweep.ExperimentSpec(
            data_path=str(data_path), task_kind="classification", betas=(0.01,),
            gammas=(0.0, 1.0), seeds=tuple(range(self.seeds)), out_dir=str(out_dir),
            noise_rates=(0.2,), perturb_seed=self.seed, jobs=JOBS,
            train_kwargs={"epochs": self.epochs, "patience": self.epochs})
        cells = len(spec.cells())
        rows = cells * ds.indices("train").size * self.epochs
        t0 = perf_counter()
        try:
            summary = sweep.run_sweep(spec)
        except Exception as exc:
            wall = perf_counter() - t0
            error = _error(exc)
            for _ in range(cells):
                tally.op(f"sweep: {error}")
            return Sample(wall, wall, [], rows, math.nan)
        wall = perf_counter() - t0
        try:
            headlines = self._check(out_dir, cells, summary, ds.indices("test").size, tally)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        mean = sum(headlines) / len(headlines) if headlines else math.nan
        return Sample(wall, wall, [], rows, mean)

    def _check(self, out_dir: Path, cells: int, summary: dict, n_test: int,
               tally: Tally) -> list[float]:
        """One op per cell: errors.json entries, missing or wrong per-run JSONs."""
        errors_path = out_dir / "errors.json"
        errors = json.loads(errors_path.read_text()) if errors_path.exists() else []
        for entry in errors:
            tally.op(f"sweep cell {entry['cell']}: {entry['error']}")
        files = {p.name: p.read_bytes() for p in sorted((out_dir / "runs").glob("*.json"))}
        for name in ("runs.csv", "aggregate.csv"):
            path = out_dir / name
            files[name] = path.read_bytes() if path.exists() else b""
        outputs_ok = (summary == {"cells": cells, "succeeded": cells - len(errors),
                                  "failed": len(errors)}
                      and files["runs.csv"] and files["aggregate.csv"])
        # Same spec, byte-identical outputs: the determinism contract.
        same = self._reference is None or files == self._reference
        self._reference = self._reference or files
        headlines = []
        runs = [n for n in files if n.endswith(".json")]
        for name in runs:
            doc = json.loads(files[name])
            problem = report_problem(doc, "classification", n_test, self.floor)
            if problem is None and not outputs_ok:
                problem = f"sweep summary {summary} or runs.csv/aggregate.csv wrong"
            if problem is None and not same:
                problem = "sweep outputs differ from the first run with the same spec"
            if tally.op(problem and f"sweep cell {name}: {problem}"):
                headlines.append(doc["macro_f1"])
        for _ in range(cells - len(errors) - len(runs)):
            tally.op("sweep cell: per-run JSON missing")
        return headlines


def make(name: str, seed: int, tiny: bool):
    """The named workload; ``tiny`` shrinks it for the smoke test.

    Floors sit well under every seed's headline at full size; at tiny size the
    model barely trains, so the floor only demands a finite score.
    """
    if name == "cls-b64":
        return TrainWorkload(
            seed, batch_size=64, epochs=2 if tiny else 40, lr=1e-3, evals=5,
            floor=-1.0 if tiny else 0.6, task=training.ClassificationTask(4),
            generate=lambda s: datasets.gen_blobs(4, 400 if tiny else 5000, 16, 0.45, s))
    if name == "reg-soft-b1024":
        # 18 000 train rows at B=1024 is 18 steps an epoch: 6 epochs >= 100
        # steps.  At lr 1e-3 those steps leave the fit (and Spearman) at the
        # mercy of the init seed; at 1e-2 it settles.
        return TrainWorkload(
            seed, batch_size=1024, epochs=2 if tiny else 6, lr=1e-2, evals=1,
            floor=-1.0 if tiny else 0.5,
            task=training.RegressionTask(softbins.make_bins(0.0, 5.0, 5)),
            generate=lambda s: datasets.gen_regression(
                1500 if tiny else 30000, 16, 0.5, 0.0, 5.0, s))
    if name == "sweep-noise-j2":
        return SweepWorkload(seed, n=300 if tiny else 2000,
                             epochs=1 if tiny else 10, seeds=2 if tiny else 6,
                             floor=-1.0 if tiny else 0.4)
    raise ValueError(f"unknown workload {name!r}")

