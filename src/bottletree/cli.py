"""Command-line harness: dataset generation, training, sweeps, verification.

Exit codes: 0 success, 1 usage error, 2 runtime failure, 3 verification
failure.  Every command is deterministic given its flags; the default output
directory can be set with the BOTTLETREE_OUT environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .coder import save_checkpoint
from .datasets import gen_blobs, gen_regression, load_csv, remove_files, save_csv
from .entropy import build_adjacency, entropy_report, hard_assignment
from .softbins import distance_matrix, make_bins, soften
from .sweep import ExperimentSpec, run_sweep
from .training import (HISTORY_FIELDS, TrainingDiverged, config_for, evaluate, train,
                       write_csv, write_json)
from .verify import ALL_CHECKS, _random_instance, run_checks

OUT_ENV = "BOTTLETREE_OUT"


class _UsageExit(SystemExit):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageExit(1)


def _default_out() -> str:
    return os.environ.get(OUT_ENV, "runs")


def _hidden(arg: str) -> tuple[int, ...]:
    return tuple(int(x) for x in arg.split(",") if x)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bottletree",
                     description="Probabilistic coding with an encoding-tree "
                                 "entropy regularizer")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    gen_sub = gen.add_subparsers(dest="generator", required=True,
                                 parser_class=_Parser)
    blobs = gen_sub.add_parser("blobs", help="Gaussian blob classification set")
    blobs.add_argument("--classes", type=int, required=True)
    blobs.add_argument("--n", type=int, required=True)
    blobs.add_argument("--dim", type=int, required=True)
    blobs.add_argument("--spread", type=float, default=1.0)
    blobs.add_argument("--seed", type=int, required=True)
    blobs.add_argument("--out", default=None, help="output CSV path")
    reg = gen_sub.add_parser("regression", help="noisy nonlinear regression set")
    reg.add_argument("--n", type=int, required=True)
    reg.add_argument("--dim", type=int, required=True)
    reg.add_argument("--noise-std", type=float, default=0.25)
    reg.add_argument("--lo", type=float, required=True)
    reg.add_argument("--hi", type=float, required=True)
    reg.add_argument("--seed", type=int, required=True)
    reg.add_argument("--out", default=None, help="output CSV path")

    tr = sub.add_parser("train", help="train one model and report test metrics")
    _add_train_flags(tr)
    tr.add_argument("--beta", type=float, default=1e-2)
    tr.add_argument("--gamma", type=float, default=1.0)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--out-dir", default=None)

    sw = sub.add_parser("sweep", help="grid sweep over beta/gamma/seeds/perturbations")
    _add_train_flags(sw)
    sw.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    sw.add_argument("--betas", type=float, nargs="+", default=[1e-2])
    sw.add_argument("--gammas", type=float, nargs="+", default=[1.0])
    sw.add_argument("--noise-rates", type=float, nargs="+", default=[])
    sw.add_argument("--fractions", type=float, nargs="+", default=[])
    sw.add_argument("--perturb-seed", type=int, default=0)
    sw.add_argument("--jobs", type=int, default=1)
    sw.add_argument("--out-dir", default=None)

    ver = sub.add_parser("verify", help="run the oracle/invariant/gradient suite")
    ver.add_argument("--only", default=None,
                     help=f"comma-separated subset of {','.join(ALL_CHECKS)}")
    ver.add_argument("--dump", default=None, metavar="PATH",
                     help="also write a JSON debug record (A, C, per-class "
                          "cuts/volumes, loss) for one hard and one soft instance")
    return parser


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument("--task", choices=["classification", "regression"],
                   required=True)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--hidden", type=_hidden, default=(64,),
                   help="comma-separated hidden widths, e.g. 64,32")
    p.add_argument("--activation", choices=["relu", "sigmoid"], default="relu")
    p.add_argument("--use-mu-graph", action="store_true", dest="use_mu_for_graph",
                   help="build the similarity graph from the posterior mean")
    p.add_argument("--samples", type=int, default=1, dest="samples_per_input",
                   metavar="SAMPLES", help="latent samples per input per step")
    p.add_argument("--bins", type=int, default=5, help="regression bin count")
    p.add_argument("--lo", type=float, default=None,
                   help="label-range lower bound (default: from data)")
    p.add_argument("--hi", type=float, default=None,
                   help="label-range upper bound (default: from data)")
    p.add_argument("--hard-labels", action="store_false", dest="soft_labels",
                   help="nearest-bin hard labels instead of softened ones")
    p.add_argument("--tau", type=float, default=1.0, dest="temperature", metavar="TAU",
                   help="softening temperature")


# The flags of ``_add_train_flags`` that ``config_for`` takes, each dest its keyword.
RUN_FLAGS = ("lr", "epochs", "patience", "batch_size", "hidden", "activation",
             "use_mu_for_graph", "samples_per_input", "bins", "lo", "hi", "soft_labels",
             "temperature")


def cmd_gen(args) -> int:
    if args.generator == "blobs":
        ds = gen_blobs(args.classes, args.n, args.dim, args.spread, args.seed)
        default_name = f"blobs_c{args.classes}_n{args.n}_d{args.dim}_s{args.seed}.csv"
    else:
        ds = gen_regression(args.n, args.dim, args.noise_std, args.lo, args.hi,
                            args.seed)
        default_name = f"regression_n{args.n}_d{args.dim}_s{args.seed}.csv"
    out = args.out or os.path.join(_default_out(), default_name)
    save_csv(ds, out)
    print(f"wrote {ds.n} rows to {out}")
    return 0


def cmd_train(args) -> int:
    ds = load_csv(args.data)
    config = config_for(ds, args.task, beta=args.beta, gamma=args.gamma, seed=args.seed,
                        **{name: getattr(args, name) for name in RUN_FLAGS})
    out_dir = args.out_dir or _default_out()
    os.makedirs(out_dir, exist_ok=True)
    # Each outcome removes the other's files, left by an earlier run here.
    report_path, history_path, model_path, dump = (
        os.path.join(out_dir, name)
        for name in ("report.json", "history.csv", "model.json", "diverged.json"))
    try:
        result = train(config, ds.subset("train"), ds.subset("dev"))
    except TrainingDiverged as exc:
        remove_files(report_path, history_path, model_path)
        write_json(dump, {"step": exc.step, "breakdown": exc.breakdown, "what": exc.what,
                          "parameter": exc.parameter})
        print(f"training diverged at step {exc.step} ({exc.detail}); dump at {dump}",
              file=sys.stderr)
        return 2
    report = evaluate(result.params, *ds.subset("test"), config)
    remove_files(dump)
    write_json(report_path, report.to_json_dict())
    write_csv(history_path, HISTORY_FIELDS, result.history)
    save_checkpoint(result.params, model_path, seed=config.seed)
    name = "macro_f1" if config.task.kind == "classification" else "spearman"
    print(f"test {name} = {getattr(report, name):.6f} "
          f"(best dev epoch {result.best_epoch})")
    return 0


def cmd_sweep(args) -> int:
    spec = ExperimentSpec(
        data_path=args.data, task_kind=args.task, betas=tuple(args.betas),
        gammas=tuple(args.gammas), seeds=tuple(args.seeds),
        out_dir=args.out_dir or _default_out(),
        noise_rates=tuple(args.noise_rates), fractions=tuple(args.fractions),
        perturb_seed=args.perturb_seed, jobs=args.jobs,
        train_kwargs={name: getattr(args, name) for name in RUN_FLAGS})
    summary = run_sweep(spec)
    print(f"sweep finished: {summary['succeeded']}/{summary['cells']} runs "
          f"succeeded, {summary['failed']} failed; outputs in {spec.out_dir}")
    return 0  # child failures are recorded in errors.json, never abort the sweep


def cmd_verify(args) -> int:
    only = [s for s in (args.only or "").split(",") if s] or None
    results = run_checks(only)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<12} ({r.seconds:6.2f}s)  {r.detail}")
    if args.dump:
        _write_debug_dump(args.dump)
        print(f"debug record written to {args.dump}")
    return 0 if all(r.passed for r in results) else 3


def _write_debug_dump(path: str) -> None:
    rng = np.random.default_rng(0)
    h, labels, n, d, r = _random_instance(rng, n=8, d=3, r=3)
    adj = build_adjacency(h)
    soft = soften(distance_matrix(rng.uniform(0.0, 5.0, size=n),
                                  make_bins(0.0, 5.0, 3)))
    record = {
        "hard": entropy_report(adj, hard_assignment(labels, r)),
        "soft": entropy_report(adj, soft),
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    write_json(path, record)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageExit as exc:
        return int(exc.code)
    commands = {"gen": cmd_gen, "train": cmd_train, "sweep": cmd_sweep, "verify": cmd_verify}
    try:
        return commands[args.command](args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"bottletree: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
