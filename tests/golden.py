"""Golden bytes: the outputs of a fixed set of ``bottletree`` invocations, pinned.

The invocations are the README's protocol lines at ``test_cli.SMALL`` sizes,
``train`` with no optional flag and with every flag, a multi-tile regression
``train``, two sweeps at ``--jobs 1`` and ``--jobs 2`` and a diverged ``train``.
Each runs as ``python -m bottletree`` in a fresh directory, with one BLAS
thread.  ``tests/golden.json`` records the environment, each invocation's
argv, exit code, stdout and stderr, and the SHA-256 of every file left
behind; ``tests/test_golden.py`` reruns them and compares.

The children run without warning filters, so stderr is what a user sees: a
diverged ``train`` prints only its own line (``train_seeds`` silences
numpy's overflow warnings, whose text would name a source line).
``verify`` is left out, because its stdout carries timings.

    python tests/golden.py --write   # regenerate tests/golden.json
    python tests/golden.py           # compare, listing every difference

A change that moves an output's bytes on purpose regenerates the manifest
and names each changed file, with the reason, in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "golden.json"
SRC = HERE.parent / "src"
if __name__ == "__main__":
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from test_cli import SMALL, protocol_lines  # noqa: E402

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
BLOBS, REGRESSION = "runs/protocols/blobs.csv", "runs/protocols/regression.csv"


def invocations() -> list[list[str]]:
    """Every argv, the ``gen`` lines first: the rest read their CSVs."""
    readme = [[*argv, *SMALL[argv[0]]] for argv in protocol_lines()]
    return [
        *[argv for argv in readme if argv[0] == "gen"],
        ["gen", "regression", "--n", "3000", "--dim", "16", "--lo", "0", "--hi", "5",
         "--seed", "7", "--out", "runs/multi_tile.csv"],
        *[argv for argv in readme if argv[0] != "gen"],
        ["train", "--data", BLOBS, "--task", "classification",
         "--out-dir", "runs/train_classification"],
        ["train", "--data", REGRESSION, "--task", "regression",
         "--out-dir", "runs/train_regression"],
        ["train", "--data", REGRESSION, "--task", "regression", "--lr", "0.003",
         "--epochs", "3", "--patience", "2", "--batch-size", "32", "--hidden", "16,8",
         "--activation", "sigmoid", "--use-mu-graph", "--samples", "2", "--bins", "4",
         "--lo", "0", "--hi", "5", "--hard-labels", "--tau", "0.7", "--beta", "0.1",
         "--gamma", "2", "--seed", "3", "--out-dir", "runs/train_every_flag"],
        ["train", "--data", "runs/multi_tile.csv", "--task", "regression",
         "--batch-size", "1024", "--hidden", "256,128", "--epochs", "2",
         "--out-dir", "runs/train_multi_tile"],
        *[["sweep", "--data", BLOBS, "--task", "classification", "--noise-rates", "0", "0.2",
           *SMALL["sweep"], "--jobs", jobs, "--out-dir", f"runs/noise_jobs{jobs}"]
          for jobs in "12"],
        *[["sweep", "--data", REGRESSION, "--task", "regression", "--fractions", "0.9", "0.5",
           "--bins", "4", "--tau", "0.7", *SMALL["sweep"], "--jobs", jobs,
           "--out-dir", f"runs/fractions_jobs{jobs}"] for jobs in "12"],
        ["train", "--data", BLOBS, "--task", "classification", "--lr", "1e200",
         "--out-dir", "runs/diverged"],
    ]


def environment() -> dict:
    """What the bytes depend on besides the code, read as ``bench/run.py`` reads BLAS."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas_name,
            "machine": platform.machine(), "threads": THREADS}


def _invoke(argv: list[str], workdir: Path, env: dict) -> dict:
    done = subprocess.run([sys.executable, "-m", "bottletree", *argv], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=300)
    return {"argv": argv, "exit": done.returncode, "stdout": done.stdout,
            "stderr": done.stderr}


def run(workdir: Path) -> dict:
    """Run every invocation in ``workdir``, two at a time once the CSVs exist."""
    env = {name: value for name, value in os.environ.items() if name != "BOTTLETREE_OUT"}
    env.update(THREADS, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                                 env.get("PYTHONPATH")])))
    argvs, invoke = invocations(), partial(_invoke, workdir=workdir, env=env)
    gens = sum(argv[0] == "gen" for argv in argvs)
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(invoke, argvs[:gens]))
        results += pool.map(invoke, argvs[gens:])
    files = {path.relative_to(workdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(workdir.rglob("*")) if path.is_file()}
    return {"environment": environment(), "invocations": results, "files": files}


def output_differences(expected: dict, actual: dict) -> list[str]:
    """Every invocation result and every file that differs from ``expected``."""
    if [r["argv"] for r in expected["invocations"]] != invocations():
        return ["the manifest's invocations are not this file's: regenerate it with --write"]
    problems = [f"{' '.join(want['argv'])}: {key} {want[key]!r} -> {got[key]!r}"
                for want, got in zip(expected["invocations"], actual["invocations"])
                for key in ("exit", "stdout", "stderr") if want[key] != got[key]]
    want, got = expected["files"], actual["files"]
    for path in sorted(want.keys() | got.keys()):
        if want.get(path) != got.get(path):
            state = "missing" if path not in got else "new" if path not in want else "differs"
            problems.append(f"{path}: {state}")
    return problems


def environment_differences(expected: dict, actual: dict) -> list[str]:
    want, got = expected["environment"], actual["environment"]
    return [f"environment {key}: {want.get(key)!r} -> {got.get(key)!r}"
            for key in sorted(want.keys() | got.keys()) if want.get(key) != got.get(key)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"regenerate {MANIFEST.name}")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        actual = run(Path(workdir))
    if args.write:
        MANIFEST.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(actual['files'])} digests to {MANIFEST}")
        return 0
    expected = json.loads(MANIFEST.read_text())
    problems = output_differences(expected, actual)
    for line in problems + environment_differences(expected, actual):
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
