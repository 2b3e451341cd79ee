"""Numeric helpers shared by the closed-form training step, both entropy
routes and the checks: the log floor ``LOG_EPS``, the package's one sigmoid
``_sigmoid_of_negated``, the max-shifted softmax, the shape and non-finite
errors, and the central-difference gradient check.

Nothing in the package records an autodiff tape: training
(``coder.combined_loss``), ``evaluate`` (its loss terms, forward only, per
batch), the matrix-form reference ``entropy.se_loss_matrix`` and ``verify``
are plain numpy.  The reverse-mode tape the step was once built on lives
with the tests (``tests/tape.py``), which pin the closed form to it bit for
bit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# Floor applied to every log/log2 argument. Realizes the 0*log(0) = 0
# convention for empty classes to machine precision.
LOG_EPS = 1e-12

# The tape class lives in tests/tape.py.  The benchmark's trace
# (bench/tracing.py:71) still reads this name and reports the patch it
# cannot make; ROADMAP item 1 deletes that row, and then this line.
Tensor = None


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class NonFiniteError(ValueError):
    """A forward value that must be finite is not; ``what`` names the value."""

    def __init__(self, what: str, message: str):
        super().__init__(message)
        self.what = what


def softmax_values(x: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted softmax of finite values along ``axis``."""
    if not np.isfinite(x).all():
        raise NonFiniteError("softmax input", "softmax needs finite inputs")
    e = x - x.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def _sigmoid_of_negated(neg_x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``sigmoid(x) = 1 / (1 + exp(-x))`` from ``neg_x = -x`` in three passes,
    ``exp``, ``+= 1`` and ``1 / .``, into ``out`` if given (it may be ``neg_x``).
    Exactly 0 where ``exp`` overflows (x < -709.78), 0.5 at +-0, NaN for NaN."""
    with np.errstate(over="ignore"):
        den = np.exp(neg_x, out=out)
    den += 1.0
    return np.divide(1.0, den, out=out)


def finite_difference_check(f: Callable[[np.ndarray], tuple[float, np.ndarray]],
                            x: np.ndarray,
                            h: float = 1e-5) -> float:
    """Max relative error between an analytic gradient and central differences.

    ``f(x)`` returns the loss and its gradient, shaped like ``x``; it must be
    deterministic (freeze any sampling noise before calling).  Each entry of
    ``x`` is moved by +-h in place and restored.  Relative error per entry is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    loss, grad = f(x)
    if not np.isfinite(loss):
        raise FloatingPointError("loss is non-finite at the evaluation point")
    analytic = np.array(grad, dtype=np.float64).reshape(-1)

    worst = 0.0
    for i in range(x.size):
        orig = x.flat[i]
        x.flat[i] = orig + h
        up = float(f(x)[0])
        x.flat[i] = orig - h
        down = float(f(x)[0])
        x.flat[i] = orig
        if not (np.isfinite(up) and np.isfinite(down)):
            raise FloatingPointError("non-finite loss during finite differencing")
        numeric = (up - down) / (2.0 * h)
        err = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst
