"""Spans recorded around bottletree's public functions, from outside the package.

``Tracer.install`` replaces each function ``layers()`` names with a wrapper that
records a span: name, parent span name, phase, start, end and self time (the
span's duration minus the part its child spans cover).  Each name is patched
in every namespace a caller resolves it from, because ``from .x import f``
copies the binding: ``coder`` holds its own ``build_adjacency``, ``training``
its own ``combined_loss`` and ``predict``.  Backward work of every op, the
entropy ops included, lands in ``autodiff.backward``; splitting it by layer
needs tracing inside the program.

Spans stay in memory.  A forked child (a sweep worker) starts with an empty
buffer and appends its spans to ``<spill_dir>/spans-<pid>.jsonl`` each time
its outermost span closes, so they are on disk before the worker returns the
cell's result to the pool.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

from bottletree import autodiff, coder, datasets, metrics, sweep, training


class Span(NamedTuple):
    pid: int
    name: str
    parent: str | None
    phase: str      # "op", "dev" (inside training.predict) or "eval"
    start: float
    end: float
    self_s: float
    count: float | None  # tape nodes, graph entries or rows, where counted


# A span's phase is its parent's, except that entering one of these switches
# it; once inside evaluate, a span stays in the "eval" phase.
_PHASE_OF = {"training.evaluate": "eval", "training.predict": "dev"}


def _tape_nodes(loss, *args, **kwargs) -> int:
    """Nodes ``backward`` will visit: the loss and its recorded ancestors."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent, _ in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _graph_entries(embeddings, *args, **kwargs) -> int:
    return embeddings.shape[0] ** 2


def layers() -> list[tuple[str, object, str, Callable | None, Callable | None]]:
    """(span name, owner, attribute, count-before, count-after) per patch site.

    Count-before runs on the call's arguments inside its own ``trace.count``
    span, so that walking the tape is not billed to ``backward``; count-after
    reads the result.
    """
    rows = [
        ("autodiff.backward", autodiff.Tensor, "backward", _tape_nodes, None),
        ("training.adam", training.Adam, "step", None, None),
        ("training.loop", training, "train", None, None),
        ("training.loop", sweep, "train", None, None),
        ("training.evaluate", training, "evaluate", None, None),
        ("training.evaluate", sweep, "evaluate", None, None),
        ("training.predict", training, "predict", None, None),
        ("training.batch_assignment", training, "batch_assignment", None, None),
        ("coder.combined_loss", coder, "combined_loss", None, None),
        ("coder.combined_loss", training, "combined_loss", None, None),
        ("coder.encode", coder, "encode", None, None),
        ("coder.encode", training, "encode", None, None),
        ("coder.reparameterize", coder, "reparameterize", None, None),
        ("coder.kl", coder, "kl_to_standard_normal", None, None),
        ("coder.task_loss", coder, "task_loss", None, None),
        ("entropy.build_adjacency", coder, "build_adjacency", _graph_entries, None),
        ("entropy.se_loss_matrix", coder, "se_loss_matrix", None, None),
        ("softbins.distance_matrix", training, "distance_matrix", None, None),
        ("softbins.soften", training, "soften", None, None),
        ("datasets.gen", datasets, "gen_blobs", None, None),
        ("datasets.gen", datasets, "gen_regression", None, None),
        ("datasets.save_csv", datasets, "save_csv", None, None),
        ("datasets.load_csv", datasets, "load_csv", None, lambda ds: ds.n),
        ("datasets.load_csv", sweep, "load_csv", None, lambda ds: ds.n),
        ("sweep.run_sweep", sweep, "run_sweep", None, None),
        ("sweep.run_cell", sweep, "run_cell", None, None),
    ]
    # training reads metrics through the module object (``M.macro_f1``).
    for fn in ("accuracy", "per_class_f1", "macro_f1", "macro_recall",
               "pearson", "average_ranks", "spearman"):
        rows.append(("metrics." + fn, metrics, fn, None, None))
    return rows


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.spill_dir.mkdir(exist_ok=True)
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._stack: list[list] = []  # [name, parent, phase, child_s, start]
        self._patched: list[tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._forked = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans, self._stack = [], []
        self._pid = os.getpid()
        self._forked = True

    def open(self, name: str) -> None:
        if self._stack:
            parent, phase = self._stack[-1][0], self._stack[-1][2]
        else:
            parent, phase = None, "op"
        if phase != "eval":
            phase = _PHASE_OF.get(name, phase)
        self._stack.append([name, parent, phase, 0.0, perf_counter()])

    def close(self, count: float | None = None) -> None:
        end = perf_counter()
        name, parent, phase, child_s, start = self._stack.pop()
        duration = end - start
        self.spans.append(Span(self._pid, name, parent, phase, start, end,
                               duration - child_s, count))
        if self._stack:
            self._stack[-1][3] += duration
        elif self._forked:
            self._spill()

    def _spill(self) -> None:
        path = self.spill_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect_spilled(self) -> None:
        """Move spans written by forked children into this tracer."""
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                self.spans.extend(Span(*json.loads(line)) for line in fh)
            path.unlink()

    def wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count = None
            if before is not None:
                tracer.open("trace.count")
                try:
                    count = before(*args, **kwargs)
                finally:
                    tracer.close()
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    count = after(result)
                return result
            finally:
                tracer.close(count)

        return traced

    def patch(self, name: str, owner, attr: str, before=None, after=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:  # renamed or removed by a later change: report, skip
            self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(name, fn, before, after))

    def install(self) -> None:
        for name, owner, attr, before, after in layers():
            self.patch(name, owner, attr, before, after)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched = []


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def step_durations(spans: list[Span]) -> list[float]:
    """Per training step: first call of the step (batch_assignment) to Adam's end."""
    out: list[float] = []
    for pid in {s.pid for s in spans}:
        start = None
        for s in sorted((s for s in spans if s.pid == pid), key=lambda s: s.start):
            if s.name == "training.batch_assignment" and s.parent == "training.loop":
                start = s.start
            elif s.name == "training.adam" and start is not None:
                out.append(s.end - start)
                start = None
    return out


def layer_metrics(spans: list[Span], jobs: int) -> dict[str, tuple[float, str]]:
    """Per-layer numbers, each with its unit, from the spans of a traced run."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name, phase=None):
        return [s for s in by_name.get(name, ()) if phase is None or s.phase == phase]

    steps = len(named("training.adam", "op"))
    trains = len(named("training.loop"))
    evals = named("training.evaluate")

    def per_step_ms(name):
        return 1e3 * sum(s.self_s for s in named(name, "op")) / steps if steps else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in ("autodiff.backward", "coder.encode", "coder.reparameterize",
                 "coder.kl", "coder.task_loss", "coder.combined_loss",
                 "training.adam", "training.batch_assignment",
                 "entropy.build_adjacency", "entropy.se_loss_matrix",
                 "softbins.distance_matrix", "softbins.soften"):
        out[f"{name}.self_ms_per_step"] = (per_step_ms(name), "ms")

    nodes = sum(s.count for s in named("autodiff.backward", "op"))
    out["autodiff.tape_nodes_per_step"] = (nodes / steps if steps else 0.0, "count")
    out["training.loop.self_s"] = (
        sum(s.self_s for s in named("training.loop")) / trains if trains else 0.0, "s")
    dev_s = sum(s.self_s for s in spans if s.phase == "dev")
    out["training.predict.self_s"] = (dev_s / trains if trains else 0.0, "s")
    step_s = step_durations(spans)
    deciles = statistics.quantiles(step_s, n=10) if len(step_s) >= 2 else [0.0] * 9
    out["training.step_ms.p50"] = (1e3 * _median(step_s), "ms")
    out["training.step_ms.p90"] = (1e3 * deciles[8], "ms")
    out["training.step.count"] = (steps / trains if trains else 0.0, "count")

    graphs = named("entropy.build_adjacency")
    entries = sum(s.count for s in named("entropy.build_adjacency", "op"))
    out["entropy.graph_entries_per_step"] = (entries / steps if steps else 0.0, "count")
    # Computed, not measured: one float64 n x n graph of the largest batch.
    out["entropy.graph_bytes_computed"] = (8.0 * max((s.count for s in graphs), default=0), "B")

    out["training.evaluate.s"] = (_median([s.end - s.start for s in evals]), "s")
    out["training.evaluate.loss_s"] = (_median(
        [s.end - s.start for s in named("coder.combined_loss")
         if s.parent == "training.evaluate"]), "s")
    metrics_s = sum(s.self_s for s in spans
                    if s.name.startswith("metrics.") and s.phase == "eval")
    out["metrics.self_ms"] = (1e3 * metrics_s / len(evals) if evals else 0.0, "ms")

    cells = named("sweep.run_cell")
    sweeps = named("sweep.run_sweep")
    cell_s = [s.end - s.start for s in cells]
    out["sweep.cell_s.p50"] = (_median(cell_s), "s")
    out["sweep.cell_s.max"] = (max(cell_s, default=0.0), "s")
    cell_loads = [s for s in named("datasets.load_csv") if s.parent == "sweep.run_cell"]
    out["sweep.load_csv_s_total"] = (
        sum(s.end - s.start for s in cell_loads) / len(sweeps) if sweeps else 0.0, "s")
    idle = [1.0 - sum(c.end - c.start for c in cells if w.start <= c.start <= w.end)
            / (jobs * (w.end - w.start)) for w in sweeps]
    out["sweep.pool_idle_share"] = (_median(idle), "share")

    # Set-up parses the CSV too; in the sweep so does every cell.
    loads = named("datasets.load_csv")
    load_s = sum(s.end - s.start for s in loads)
    out["datasets.save_csv.s"] = (_median([s.end - s.start for s in named("datasets.save_csv")]), "s")
    out["datasets.load_csv.s"] = (_median([s.end - s.start for s in loads]), "s")
    out["datasets.load_csv.rows_per_s"] = (
        sum(s.count for s in loads) / load_s if load_s else 0.0, "1/s")
    return out


def self_sum_share(spans: list[Span]) -> float:
    """Sum of self times over the summed duration of the outermost spans.

    1.0 when spans nest properly: every second of a root span is some span's
    self time exactly once.
    """
    roots = sum(s.end - s.start for s in spans if s.parent is None)
    return sum(s.self_s for s in spans) / roots if roots else 0.0
