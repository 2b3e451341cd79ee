#!/usr/bin/env python3
"""Experiment protocols as named presets: python3 scripts/protocols.py PRESET

noise: label-noise flip rates {0.1, 0.2, 0.3}; fraction: keep {0.9, 0.7, 0.5,
0.3} of the train split; both with gamma in {0, 1}.  gamma: gamma in {0, 1e-2,
1e-1, 1, 10}, --task regression for soft labels.  Each makes (or reuses) its
data in --out-dir and sweeps five seeds into per-run JSONs, runs.csv and
aggregate.csv.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from bottletree.datasets import gen_blobs, gen_regression, save_csv  # noqa: E402
from bottletree.sweep import ExperimentSpec, WorkerCrashed, run_sweep  # noqa: E402

# preset: (default out dir, perturbation field, its default values, default gammas)
PRESETS = {
    "noise": ("runs/noise_robustness", "noise_rates", (0.1, 0.2, 0.3), (0.0, 1.0)),
    "fraction": ("runs/train_fraction", "fractions", (0.9, 0.7, 0.5, 0.3), (0.0, 1.0)),
    "gamma": ("runs/gamma_sensitivity", None, (), (0.0, 1e-2, 1e-1, 1.0, 10.0)),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("preset", choices=PRESETS)
    ap.add_argument("--out-dir", default=None)
    ap.add_argument("--task", choices=["classification", "regression"],
                    default="classification")
    for flag, kind, default in (("--classes", int, 4), ("--n", int, 2000), ("--dim", int, 16),
                                ("--spread", float, 0.45), ("--data-seed", int, 42),
                                ("--jobs", int, 1)):
        ap.add_argument(flag, type=kind, default=default)
    ap.add_argument("--values", type=float, nargs="+", help="noise rates or train fractions")
    ap.add_argument("--gammas", type=float, nargs="+")
    ap.add_argument("--betas", type=float, nargs="+", default=[0.01])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    args = ap.parse_args()
    out_dir, field, values, gammas = PRESETS[args.preset]
    out_dir, regression = args.out_dir or out_dir, args.task == "regression"
    if regression and field:
        ap.error(f"the {args.preset} preset perturbs class labels; use --task classification")
    if args.values and not field:
        ap.error(f"the {args.preset} preset perturbs nothing; --values has no effect")

    os.makedirs(out_dir, exist_ok=True)
    data_path = os.path.join(out_dir, "blobs.csv" if field else f"{args.task}.csv")
    if not os.path.exists(data_path):
        save_csv(gen_regression(args.n, args.dim, 0.5, 0.0, 5.0, args.data_seed) if regression
                 else gen_blobs(args.classes, args.n, args.dim, args.spread, args.data_seed),
                 data_path)
    spec = ExperimentSpec(
        data_path=data_path, task_kind=args.task, betas=tuple(args.betas),
        gammas=tuple(args.gammas or gammas), seeds=tuple(args.seeds), out_dir=out_dir,
        jobs=args.jobs, lo=0.0 if regression else None, hi=5.0 if regression else None,
        **({field: tuple(args.values or values)} if field else {}))
    try:
        summary = run_sweep(spec)
    except WorkerCrashed as exc:  # finished runs are on disk; the rest are in errors.json
        print(exc, file=sys.stderr)
        return 2
    print(f"{summary['succeeded']}/{summary['cells']} runs succeeded; "
          f"see {os.path.join(out_dir, 'aggregate.csv')}")
    return 0 if summary["failed"] == 0 else 2


if __name__ == "__main__":
    sys.exit(main())
