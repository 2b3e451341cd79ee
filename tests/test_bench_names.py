"""The names the benchmark patches still resolve in the package.

``bench/tracing.py`` wraps each function ``layers()`` names and reports a
missing one only as "not traced", so a renamed function would silently read
0 in its trace row.  This pins which rows do not resolve today, so a rename
in the package fails here instead.
"""

import importlib.util
from pathlib import Path

from bottletree import sweep

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# Rows whose targets are gone: the tape's placeholder, the entropy ops under
# their old names, and three metric functions folded into
# ``classification_scores``.  Shrink this set when the trace is repaired.
UNRESOLVED = {"None.backward", "bottletree.coder.build_adjacency",
              "bottletree.coder.se_loss_matrix", "bottletree.metrics.accuracy",
              "bottletree.metrics.macro_recall", "bottletree.metrics.per_class_f1"}


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_only_the_known_trace_rows_do_not_resolve():
    # named as Tracer.patch reports a missing one
    unresolved = {f"{getattr(owner, '__name__', owner)}.{attr}"
                  for _, owner, attr, _, _ in _tracing().layers()
                  if getattr(owner, attr, None) is None}
    assert unresolved == UNRESOLVED


def test_the_sweep_evaluate_the_benchmark_times_resolves():
    # bench/run.py patches it to time each sweep cell's evaluate
    assert callable(getattr(sweep, "evaluate", None))
