"""Property test of the command line over each flag's edge values.

A draw starts from a usable ``gen``, ``train`` or ``sweep`` line and
overrides up to three of its flags, each with a value from that flag's edge
set: 0, -1, nan, inf, 1e308, the ends of its range, and for ``--fractions``
one that empties the train split and one that leaves it one row.  ``train``
and ``sweep`` read a CSV whose row count is drawn at the split minimums: 4
rows leave no dev row, 5 one test row, 6 and 8 one dev row (too few for a
regression), and 60 rows (36 train) are usable.  Whatever the values,
``cli.main`` returns 0, 1 (usage) or 2 (runtime failure) and prints no
traceback.  Exit 2 leaves no new file or directory, except the one outcome
the README documents as writing: a ``train`` that diverges writes
``diverged.json``.  Exit 0 leaves artifacts that parse.  Hypothesis draws a
fixed set of examples from each test's source text, so the same contract is
also checked on every single (flag, edge value) pair once, drawn or not.
"""

import contextlib
import csv
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bottletree.cli import main
from bottletree.coder import load_checkpoint
from bottletree.datasets import gen_blobs, gen_regression, load_csv, save_csv

REALS = ["0", "-1", "nan", "inf", "1e308"]
COUNTS = ["0", "-1", "nan", "1e308"]  # not an int, or out of range
SEEDS = ["0", "-1"]
# Flags of train and sweep alike (the ones that take a grid are below).
RUN_EDGES = {
    "--lr": [*REALS, "1e-2"],
    "--epochs": ["1", *COUNTS],
    "--patience": ["0", "1", "2", *COUNTS],
    "--batch-size": ["2", "60", "1", *COUNTS],
    "--hidden": ["1", "0", "-1", "4,0", "nan"],
    "--samples": ["1", "2", *COUNTS],
    "--bins": ["2", "1", *COUNTS],
    "--lo": [*REALS, "5"],
    "--hi": [*REALS, "5"],
    "--tau": [*REALS, "1"],
}
EDGES = {
    "gen blobs": {"--classes": ["2", "1", *COUNTS], "--n": ["2", "60", "1", *COUNTS],
                  "--dim": ["1", *COUNTS], "--spread": [*REALS, "1"], "--seed": SEEDS},
    "gen regression": {"--n": ["1", "60", *COUNTS], "--dim": ["1", *COUNTS],
                       "--noise-std": [*REALS, "0.25"], "--lo": [*REALS, "5"],
                       "--hi": [*REALS, "5"], "--seed": SEEDS},
    "train": {**RUN_EDGES, "--beta": [*REALS, "1"], "--gamma": [*REALS, "1"],
              "--seed": SEEDS},
    "sweep": {**RUN_EDGES, "--betas": [*REALS, "1"], "--gammas": [*REALS, "1"],
              "--seeds": SEEDS, "--perturb-seed": SEEDS, "--jobs": ["1", "2", "0", "-1"],
              "--noise-rates": ["0", "1", "-1", "nan", "inf", "1.5"],
              "--fractions": ["1", "0.01", "0.03", "0", "-1", "nan", "inf"]},
}
SMALL_RUN = ["--epochs", "1", "--patience", "0", "--batch-size", "16", "--hidden", "4"]
# The usable ``gen`` line per generator that a case's overrides follow.
GEN_BASE = {"blobs": ["--classes", "2", "--n", "60", "--dim", "2", "--seed", "0"],
            "regression": ["--n", "60", "--dim", "2", "--lo", "0", "--hi", "5", "--seed", "0"]}
# The flags only a regression reads.
REGRESSION_FLAGS = {"--bins", "--lo", "--hi", "--tau"}


def overrides(command: str):
    """Up to three (flag, edge value) pairs; argparse keeps a flag's last value."""
    edges = EDGES[command]
    pair = st.sampled_from(sorted(edges)).flatmap(
        lambda flag: st.tuples(st.just(flag), st.sampled_from(edges[flag])))
    return st.lists(pair, max_size=3).map(lambda pairs: [v for p in pairs for v in p])


# Row counts at the split boundaries (train/dev/test 2/0/2, 3/1/1, 3/1/2, 4/1/3)
# and a usable 60 (36/12/12), where a fraction of 0.01 keeps no train row and
# one of 0.03 keeps one.
ROWS = [4, 5, 6, 8, 60]


@pytest.fixture(scope="module")
def csvs(tmp_path_factory):
    """A CSV per task and row count of ``ROWS``."""
    root = tmp_path_factory.mktemp("values")
    paths = {}
    for n in ROWS:
        paths["classification", n] = root / f"blobs{n}.csv"
        paths["regression", n] = root / f"reg{n}.csv"
        save_csv(gen_blobs(3, n, 3, spread=0.4, seed=1), paths["classification", n])
        save_csv(gen_regression(n, 3, 0.2, lo=0.0, hi=5.0, seed=2), paths["regression", n])
    return root, paths


def run(root: Path, argv: list[str]) -> tuple[int, str, Path, set[Path]]:
    """Exit code, stderr, the work directory and what the command left in it."""
    work = Path(tempfile.mkdtemp(dir=root))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([arg.replace("{work}", str(work)) for arg in argv])
    return code, err.getvalue(), work, set(work.rglob("*"))


def check(code: int, err: str, work: Path, left: set[Path], parse) -> None:
    try:
        assert code in (0, 1, 2), (code, err)
        assert "Traceback" not in err, err
        if code == 0:
            parse(work)
        elif "training diverged" in err:  # the documented dump
            assert left == {work / "out", work / "out" / "diverged.json"}, (left, err)
        elif code == 2:
            assert left == set(), (left, err)
    finally:
        shutil.rmtree(work)


def parse_gen(work: Path) -> None:
    load_csv(work / "data.csv")


def parse_run(work: Path) -> None:
    out = work / "out"
    json.loads((out / "report.json").read_text())
    assert list(csv.DictReader((out / "history.csv").open()))
    load_checkpoint(out / "model.json")


def parse_sweep(work: Path) -> None:
    out = work / "out"
    for name in ("runs.csv", "aggregate.csv"):
        list(csv.DictReader((out / name).open()))
    for path in [*(out / "runs").iterdir(), *out.glob("errors.json")]:
        json.loads(path.read_text())


PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the CLI prints these, not raises
@settings(PROPERTY, max_examples=60)
@given(generator=st.sampled_from(["blobs", "regression"]), data=st.data())
def test_gen_values(csvs, generator, data):
    root, _ = csvs
    extra = data.draw(overrides(f"gen {generator}"))
    code, err, work, left = run(root, ["gen", generator, *GEN_BASE[generator], *extra,
                                       "--out", "{work}/data.csv"])
    check(code, err, work, left, parse_gen)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(PROPERTY, max_examples=60)
@given(task=st.sampled_from(["classification", "regression"]), data=st.data())
def test_train_values(csvs, task, data):
    root, paths = csvs
    rows = data.draw(st.sampled_from(ROWS))
    extra = data.draw(overrides("train"))
    code, err, work, left = run(root, ["train", "--data", str(paths[task, rows]),
                                       "--task", task, *SMALL_RUN, *extra,
                                       "--out-dir", "{work}/out"])
    check(code, err, work, left, parse_run)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(PROPERTY, max_examples=40)
@given(task=st.sampled_from(["classification", "regression"]), data=st.data())
def test_sweep_values(csvs, task, data):
    root, paths = csvs
    rows = data.draw(st.sampled_from(ROWS))
    extra = data.draw(overrides("sweep"))
    code, err, work, left = run(root, ["sweep", "--data", str(paths[task, rows]),
                                       "--task", task, "--seeds", "0", *SMALL_RUN, *extra,
                                       "--out-dir", "{work}/out"])
    check(code, err, work, left, parse_sweep)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value) for command, edges in EDGES.items()
    for flag, values in edges.items() for value in values])
def test_each_edge_value_alone(csvs, command, flag, value):
    """Every edge value once, whatever the property tests draw: ``train`` and
    ``sweep`` read the 60-row CSV, a regression's for the flags only it reads."""
    root, paths = csvs
    if command.startswith("gen "):
        generator = command.split()[1]
        argv = ["gen", generator, *GEN_BASE[generator], flag, value, "--out", "{work}/data.csv"]
        parse = parse_gen
    else:
        task = "regression" if flag in REGRESSION_FLAGS else "classification"
        seeds = ["--seeds", "0"] if command == "sweep" else []
        argv = [command, "--data", str(paths[task, 60]), "--task", task, *seeds, *SMALL_RUN,
                flag, value, "--out-dir", "{work}/out"]
        parse = parse_sweep if command == "sweep" else parse_run
    check(*run(root, argv), parse)
