"""Property test of the command line over each flag's edge values.

A draw starts from a usable ``gen``, ``train`` or ``sweep`` line on a 60-row
CSV and overrides up to three of its flags, each with a value from that
flag's edge set: 0, -1, nan, inf, 1e308, the ends of its range, and for
``--fractions`` one that empties the train split.  Whatever the values,
``cli.main`` returns 0, 1 (usage) or 2 (runtime failure) and prints no
traceback.  Exit 2 leaves no new file or directory, except the one outcome
the README documents as writing: a ``train`` that diverges writes
``diverged.json``.  Exit 0 leaves artifacts that parse.
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
              "--fractions": ["1", "0.01", "0", "-1", "nan", "inf"]},
}
SMALL_RUN = ["--epochs", "1", "--patience", "0", "--batch-size", "16", "--hidden", "4"]


def overrides(command: str):
    """Up to three (flag, edge value) pairs; argparse keeps a flag's last value."""
    edges = EDGES[command]
    pair = st.sampled_from(sorted(edges)).flatmap(
        lambda flag: st.tuples(st.just(flag), st.sampled_from(edges[flag])))
    return st.lists(pair, max_size=3).map(lambda pairs: [v for p in pairs for v in p])


@pytest.fixture(scope="module")
def csvs(tmp_path_factory):
    """60-row CSVs: 36 train rows, so a fraction of 0.01 keeps none."""
    root = tmp_path_factory.mktemp("values")
    paths = {"classification": root / "blobs.csv", "regression": root / "reg.csv"}
    save_csv(gen_blobs(3, 60, 3, spread=0.4, seed=1), paths["classification"])
    save_csv(gen_regression(60, 3, 0.2, lo=0.0, hi=5.0, seed=2), paths["regression"])
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
    base = {"blobs": ["--classes", "2", "--n", "60", "--dim", "2", "--seed", "0"],
            "regression": ["--n", "60", "--dim", "2", "--lo", "0", "--hi", "5",
                           "--seed", "0"]}[generator]
    extra = data.draw(overrides(f"gen {generator}"))
    code, err, work, left = run(root, ["gen", generator, *base, *extra,
                                       "--out", "{work}/data.csv"])
    check(code, err, work, left, lambda work: load_csv(work / "data.csv"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(PROPERTY, max_examples=60)
@given(task=st.sampled_from(["classification", "regression"]), data=st.data())
def test_train_values(csvs, task, data):
    root, paths = csvs
    extra = data.draw(overrides("train"))
    code, err, work, left = run(root, ["train", "--data", str(paths[task]), "--task", task,
                                       *SMALL_RUN, *extra, "--out-dir", "{work}/out"])
    check(code, err, work, left, parse_run)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(PROPERTY, max_examples=40)
@given(task=st.sampled_from(["classification", "regression"]), data=st.data())
def test_sweep_values(csvs, task, data):
    root, paths = csvs
    extra = data.draw(overrides("sweep"))
    code, err, work, left = run(root, ["sweep", "--data", str(paths[task]), "--task", task,
                                       "--seeds", "0", *SMALL_RUN, *extra,
                                       "--out-dir", "{work}/out"])
    check(code, err, work, left, parse_sweep)
