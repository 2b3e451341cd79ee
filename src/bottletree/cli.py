"""Command-line harness: argument parsing, output paths and exit codes.

The work and every run default are the library's: ``train`` and ``sweep`` pass
on only the flags typed.  Exit codes: 0 success, 1 usage error (argparse's
2), 2 runtime failure, 3 verification failure, 130 interrupted (Ctrl-C).  A
library warning prints as one ``bottletree: <category>: <message>`` line.
BOTTLETREE_OUT sets the default output dir.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import fields

from .coder import save_checkpoint
from .datasets import gen_blobs, gen_regression, load_csv, remove_files, save_csv
from .sweep import ExperimentSpec, run_sweep
from .training import (HISTORY_FIELDS, TrainConfig, TrainingDiverged, config_for, evaluate,
                       train, write_csv, write_json)
from .verify import ALL_CHECKS, run_checks

OUT_ENV = "BOTTLETREE_OUT"


def _default_out() -> str:
    return os.environ.get(OUT_ENV, "runs")


def _hidden(arg: str) -> tuple[int, ...]:
    try:  # an empty entry is no width: int("") raises
        return tuple(int(x) for x in arg.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integer widths, e.g. 64,32, got {arg!r}") from None


def _check_names(arg: str) -> list[str]:
    names = arg.split(",")
    if "" in names:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated check names, e.g. oracle,grad, got {arg!r}")
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bottletree",
                                     description="Probabilistic coding with an "
                                                 "encoding-tree entropy regularizer")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    gen_sub = gen.add_subparsers(dest="generator", required=True)
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

    tr = sub.add_parser("train", help="train one model and report test metrics",
                        argument_default=argparse.SUPPRESS)
    _add_train_flags(tr)
    tr.add_argument("--beta", type=float)
    tr.add_argument("--gamma", type=float)
    tr.add_argument("--seed", type=int)
    tr.add_argument("--out-dir", default=None)

    sw = sub.add_parser("sweep", help="grid sweep over beta/gamma/seeds/perturbations",
                        argument_default=argparse.SUPPRESS)
    _add_train_flags(sw)
    sw.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    sw.add_argument("--betas", type=float, nargs="+", default=[TrainConfig.beta])
    sw.add_argument("--gammas", type=float, nargs="+", default=[TrainConfig.gamma])
    sw.add_argument("--noise-rates", type=float, nargs="+")
    sw.add_argument("--fractions", type=float, nargs="+")
    sw.add_argument("--perturb-seed", type=int)
    sw.add_argument("--jobs", type=int)
    sw.add_argument("--out-dir", default=None)

    ver = sub.add_parser("verify", help="run the oracle/invariant/gradient suite")
    ver.add_argument("--only", type=_check_names,
                     help=f"comma-separated subset of {','.join(ALL_CHECKS)}")
    return parser


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument("--task", choices=["classification", "regression"],
                   required=True)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--hidden", type=_hidden,
                   help="comma-separated hidden widths, e.g. 64,32")
    p.add_argument("--activation", choices=["relu", "sigmoid"])
    p.add_argument("--use-mu-graph", action="store_true", dest="use_mu_for_graph",
                   help="build the similarity graph from the posterior mean")
    p.add_argument("--samples", type=int, dest="samples_per_input",
                   metavar="SAMPLES", help="latent samples per input per step")
    p.add_argument("--bins", type=int, help="regression bin count")
    p.add_argument("--lo", type=float, help="label-range lower bound (default: from data)")
    p.add_argument("--hi", type=float, help="label-range upper bound (default: from data)")
    p.add_argument("--hard-labels", action="store_false", dest="soft_labels",
                   help="nearest-bin hard labels instead of softened ones")
    p.add_argument("--tau", type=float, dest="temperature", metavar="TAU",
                   help="softening temperature")


def _typed(args) -> dict:
    """Flags typed past ``--data``, ``--task`` and ``--out-dir``, by dest; lists as tuples."""
    return {name: tuple(value) if isinstance(value, list) else value
            for name, value in vars(args).items()
            if name not in ("command", "data", "task", "out_dir")}


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
    config = config_for(ds, args.task, **_typed(args))
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
    run_flags = _typed(args)  # the flags not ``ExperimentSpec``'s are ``config_for``'s
    grid = {f.name: run_flags.pop(f.name) for f in fields(ExperimentSpec) if f.name in run_flags}
    spec = ExperimentSpec(data_path=args.data, task_kind=args.task,
                          out_dir=args.out_dir or _default_out(), **grid,
                          train_kwargs=run_flags)
    summary = run_sweep(spec)
    print(f"sweep finished: {summary['succeeded']}/{summary['cells']} runs "
          f"succeeded, {summary['failed']} failed; outputs in {spec.out_dir}")
    return 0  # child failures are recorded in errors.json, never abort the sweep


def cmd_verify(args) -> int:
    failed = 0
    for r in run_checks(args.only):  # each line as its check ends
        failed += not r.passed
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<12} ({r.seconds:6.2f}s)  {r.detail}")
    return 3 if failed else 0


def _show_warning(message, category, *_) -> None:
    # one write per line, so two sweep workers' lines do not interleave
    sys.stderr.write(f"bottletree: {category.__name__}: {message}\n")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's: 2 after a usage error, 0 after --help
        return 1 if exc.code else 0
    commands = {"gen": cmd_gen, "train": cmd_train, "sweep": cmd_sweep, "verify": cmd_verify}
    with warnings.catch_warnings():  # puts ``showwarning`` back on the way out
        warnings.showwarning = _show_warning  # forked sweep workers inherit it
        try:
            return commands[args.command](args)
        except (ValueError, OSError, RuntimeError, MemoryError) as exc:
            print(f"bottletree: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        except KeyboardInterrupt:  # Ctrl-C: the shell's code for SIGINT, no traceback
            print("bottletree: interrupted", file=sys.stderr)
            return 130
