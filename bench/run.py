#!/usr/bin/env python3
"""Benchmark for bottletree: one workload per process, end to end or traced.

    python3 bench/run.py --workload cls-b64 --seed 1 --seconds 20 --trace 0

Run from anywhere; the sources are taken from ``src/`` next to this
directory.  Set-up (import, data generation, CSV write and ``load_csv``)
runs three times.  Then the workload's op repeats until ``--seconds`` have
passed, at least three times.  With ``--trace 0`` the output is the
end-to-end metrics, medians over the repetitions.  With ``--trace 1``,
traced and untraced ops alternate and the output is the per-layer metrics
plus the tracing overhead.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0 only
when every correctness check passed.  Scratch files live in
``.bench_work/`` and are removed on exit.
"""

import os

# One BLAS thread per process, before numpy loads: default threads made
# 64-row steps slower and noisier, and two sweep workers would oversubscribe
# two cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3
MIN_REPS = 3        # untraced ops per run; a traced run does MIN_TRACED of each
MIN_TRACED = 2
SELF_SUM_TOLERANCE = 0.01


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("cls-b64", "reg-soft-b1024", "sweep-noise-j2"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the workload (smoke test only)")
    return ap.parse_args(argv)


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "bottletree").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": _commit(), "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:  # sweep workers, reaped when the pool closes
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def _median(xs) -> float:
    xs = [x for x in xs if math.isfinite(x)]
    return statistics.median(xs) if xs else 0.0


def run(args, work: Path) -> int:
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import bottletree
    import_s = perf_counter() - t0
    if Path(bottletree.__file__).resolve().parent != SRC / "bottletree":
        print(f"imported bottletree from {bottletree.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from bottletree import datasets, sweep

    import tracing
    import workloads

    env = environment(np)
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, tiny=args.tiny)
    print(json.dumps({"env": env}, sort_keys=True))

    wl = workloads.make(args.workload, args.seed, args.tiny)
    is_sweep = isinstance(wl, workloads.SweepWorkload)
    tally = workloads.Tally()
    tracer = tracing.Tracer(work / "spans") if args.trace else None

    data_path = work / "data.csv"
    setup_s = []
    if tracer:
        tracer.install()
    for _ in range(SETUP_REPS):
        start = perf_counter()
        if tracer:
            tracer.open("bench.setup")
        ds = wl.generate()
        datasets.save_csv(ds, data_path)
        loaded = datasets.load_csv(data_path)
        if tracer:
            tracer.close()
        setup_s.append(perf_counter() - start)
        if not loaded.equals(ds):
            tally.problem("CSV round trip changed the dataset")
    if tracer:
        tracer.uninstall()

    # Per-cell evaluate times of the sweep come from its forked workers.
    eval_timer = None
    if is_sweep and not args.trace:
        eval_timer = tracing.Tracer(work / "evals")
        eval_timer.patch("training.evaluate", sweep, "evaluate")

    samples = {False: [], True: []}   # keyed by "traced"
    deadline = perf_counter() + args.seconds
    while True:
        traced = bool(tracer) and len(samples[True]) < len(samples[False])
        start = perf_counter()
        if traced:
            tracer.install()
            tracer.open("bench.op")
        sample = wl.run(loaded, data_path, work, tally)
        if traced:
            tracer.close()
            tracer.uninstall()
            tracer.collect_spilled()
        if eval_timer:
            eval_timer.collect_spilled()
            sample.eval_s = [s.end - s.start for s in eval_timer.spans]
            eval_timer.spans = []
        samples[traced].append(sample)
        done = (min(len(samples[False]), len(samples[True])) >= MIN_TRACED if tracer
                else len(samples[False]) >= MIN_REPS)
        if done and 2 * perf_counter() - start > deadline:  # next op would overrun
            break
    if eval_timer:
        eval_timer.uninstall()

    if tracer:
        untraced = _median(s.wall_s for s in samples[False])
        metrics = tracing.layer_metrics(tracer.spans, workloads.JOBS)
        metrics["sweep.cells_failed"] = (float(tally.failed if is_sweep else 0), "count")
        metrics["trace.overhead_share"] = (
            _median(s.wall_s for s in samples[True]) / untraced - 1.0, "share")
        share = tracing.self_sum_share(tracer.spans)
        metrics["trace.self_sum_share"] = (share, "share")
        if abs(share - 1.0) > SELF_SUM_TOLERANCE:
            tally.problem(f"span self times sum to {share:.4f} of traced wall time")
        if tracer.missing:
            print(f"not traced (missing): {', '.join(sorted(tracer.missing))}", file=sys.stderr)
    else:
        ops = samples[False]
        metrics = {
            "setup_s": (import_s + statistics.median(setup_s), "s"),
            "train_samples_per_s": (_median(s.rows_epochs / s.train_s for s in ops), "rows/s"),
            "eval_s": (_median(t for s in ops for t in s.eval_s), "s"),
            "sweep_s": (_median(s.wall_s for s in ops), "s"),
            "peak_rss_mb": (peak_rss_mb(is_sweep), "MB"),
            "test_headline": (_median(s.headline for s in ops), "score"),
            "ok_ratio": (1.0 - tally.failed / max(tally.attempted, 1), "ratio"),
        }

    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    print(f"ops: {tally.attempted} attempted, {tally.failed} failed; "
          f"reps: {len(samples[False])} untraced, {len(samples[True])} traced")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.correct else 3


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bottletree" / "__init__.py").is_file():
        print(f"bottletree sources not found under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
