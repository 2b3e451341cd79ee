"""Minimal reverse-mode automatic differentiation over dense float64 arrays,
and the numeric helpers the closed-form training step shares with it: the
package's one sigmoid, ``_sigmoid_of_negated``, serves ``Tensor.sigmoid``,
the encoder and both entropy routes.

Nothing in the package records a tape: training (``coder.combined_loss``),
``evaluate``, the matrix-form reference ``entropy.se_loss_matrix`` and
``verify`` are plain numpy.  The tape serves the tests, which build on it
the training step the closed form is pinned to, and the benchmark's trace,
which patches ``Tensor.backward``.  Every operation records its parents
with closures mapping the output gradient to their contributions, and a
tensor is created after its parents, so one ``backward()`` visits the
pending nodes in descending creation order (a heap) without a topological
sort or recursion.  Elementwise broadcasting is restricted to equal shapes,
a scalar with a tensor, and a (..., 1, h) bias row against (..., n, h); a
leading stack axis S makes matmul run slice by slice.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Sequence

import numpy as np

# Floor applied to every log/log2 argument. Realizes the 0*log(0) = 0
# convention for empty classes to machine precision.
LOG_EPS = 1e-12

# Creation numbers: a tensor's number exceeds those of all its parents.
_creation = itertools.count()


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class NonFiniteError(ValueError):
    """A forward value that must be finite is not; ``what`` names the value."""

    def __init__(self, what: str, message: str):
        super().__init__(message)
        self.what = what


class GraphConsumedError(RuntimeError):
    """backward() was called a second time on an already-consumed graph."""


def _as_array(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


def _is_scalar_shape(shape: tuple[int, ...]) -> bool:
    return all(d == 1 for d in shape)


def _is_row_of(row: tuple[int, ...], full: tuple[int, ...]) -> bool:
    return (len(row) == len(full) in (2, 3) and row[-2] == 1
            and row[:-2] == full[:-2] and row[-1] == full[-1])


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Collapse a gradient back to a scalar or (..., 1, h) row operand shape."""
    if grad.shape == shape:
        return grad
    if _is_scalar_shape(shape):
        return np.asarray(grad.sum(), dtype=np.float64).reshape(shape)
    return grad.sum(axis=-2, keepdims=True)


class Tensor:
    """Dense float64 array participating in a reverse-mode graph."""

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_consumed", "_order")

    def __init__(self, values, requires_grad: bool = False):
        self.values = _as_array(values)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        # tuple of (parent, grad_fn) where grad_fn maps d(out) -> d(parent)
        self._parents: tuple[tuple["Tensor", Callable[[np.ndarray], np.ndarray]], ...] = ()
        self._consumed = False
        self._order = next(_creation)

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.size != 1:
            raise DimensionError(f"item() needs a size-1 tensor, got shape {self.shape}")
        return float(self.values.reshape(()))

    # -- graph construction helpers ------------------------------------------

    @staticmethod
    def _from_op(values: np.ndarray,
                 parents: Sequence[tuple["Tensor", Callable[[np.ndarray], np.ndarray]]]) -> "Tensor":
        out = Tensor(values)
        tracked = tuple((p, fn) for p, fn in parents if p.requires_grad)
        if tracked:
            out.requires_grad = True
            out._parents = tracked
        return out

    @staticmethod
    def _coerce(other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        arr = _as_array(other)
        if not _is_scalar_shape(arr.shape):
            raise DimensionError("only scalars auto-wrap into tensors")
        return Tensor(arr)

    def _check_elementwise(self, other: "Tensor") -> None:
        if self.shape == other.shape:
            return
        if _is_scalar_shape(self.shape) or _is_scalar_shape(other.shape):
            return
        if _is_row_of(self.shape, other.shape) or _is_row_of(other.shape, self.shape):
            return
        raise DimensionError(
            "elementwise op needs equal shapes, a scalar operand or a (..., 1, h) "
            f"row against (..., n, h), got {self.shape} and {other.shape}")

    # -- elementwise arithmetic ----------------------------------------------

    def __add__(self, other):
        b = Tensor._coerce(other)
        self._check_elementwise(b)
        return Tensor._from_op(
            self.values + b.values,
            [(self, lambda g: _unbroadcast(g, self.shape)),
             (b, lambda g: _unbroadcast(g, b.shape))])

    def __sub__(self, other):
        b = Tensor._coerce(other)
        self._check_elementwise(b)
        return Tensor._from_op(
            self.values - b.values,
            [(self, lambda g: _unbroadcast(g, self.shape)),
             (b, lambda g: _unbroadcast(-g, b.shape))])

    def __mul__(self, other):
        b = Tensor._coerce(other)
        self._check_elementwise(b)
        av, bv = self.values, b.values
        return Tensor._from_op(
            av * bv,
            [(self, lambda g: _unbroadcast(g * bv, self.shape)),
             (b, lambda g: _unbroadcast(g * av, b.shape))])

    __rmul__ = __mul__

    def __neg__(self):
        return Tensor._from_op(-self.values, [(self, lambda g: -g)])

    def exp(self):
        out_vals = np.exp(self.values)
        return Tensor._from_op(out_vals, [(self, lambda g: g * out_vals)])

    def log(self):
        """Natural log with the argument floored at LOG_EPS."""
        x = self.values
        clamped = np.maximum(x, LOG_EPS)
        mask = (x >= LOG_EPS).astype(np.float64)
        return Tensor._from_op(np.log(clamped), [(self, lambda g: g * mask / clamped)])

    def sigmoid(self):
        out_vals = _sigmoid_of_negated(-self.values)
        return Tensor._from_op(out_vals, [(self, lambda g: g * out_vals * (1.0 - out_vals))])

    def clamp(self, lo: float | None = None, hi: float | None = None):
        """Clip values to [lo, hi]; gradient passes through inside the bounds."""
        if lo is None and hi is None:
            raise ValueError("clamp needs at least one bound")
        x = self.values
        out_vals = np.clip(x, lo, hi)
        if lo is None:
            mask = x <= hi
        elif hi is None:
            mask = x >= lo
        else:
            mask = (x >= lo) & (x <= hi)
        return Tensor._from_op(out_vals, [(self, lambda g: g * mask)])

    def relu(self):
        return self.clamp(lo=0.0)

    # -- shape ops -------------------------------------------------------------

    def cols(self, start: int, stop: int) -> "Tensor":
        """Column slice [start, stop) of a 2-D tensor or of each slice of a stack."""
        if self.values.ndim not in (2, 3):
            raise DimensionError(f"cols() needs a 2-D tensor or stack, got {self.shape}")
        shape, m = self.shape, self.shape[-1]
        if not (0 <= start <= stop <= m):
            raise DimensionError(f"column range [{start}, {stop}) out of bounds for width {m}")

        def grad_fn(g, shape=shape, start=start, stop=stop):
            full = np.zeros(shape)
            full[..., start:stop] = g
            return full

        return Tensor._from_op(self.values[..., start:stop].copy(), [(self, grad_fn)])

    # -- matmul ------------------------------------------------------------------

    def __matmul__(self, other):
        """Product of 2-D tensors, or slice by slice of two (S, ., .) stacks."""
        if not isinstance(other, Tensor):
            raise DimensionError("matmul needs two tensors")
        a, b = self.shape, other.shape
        if not (len(a) == len(b) in (2, 3) and a[:-2] == b[:-2]):
            raise DimensionError(
                f"matmul needs 2-D tensors or equal stacks of them, got shapes {a} and {b}")
        if a[-1] != b[-2]:
            raise DimensionError(f"matmul inner extents differ: {a} vs {b}")
        av, bv = self.values, other.values
        return Tensor._from_op(
            av @ bv,
            [(self, lambda g: g @ bv.swapaxes(-1, -2)),
             (other, lambda g: av.swapaxes(-1, -2) @ g)])

    # -- reductions ----------------------------------------------------------------

    def _check_axis(self, axis: int | None) -> None:
        if axis is not None and not (-self.values.ndim <= axis < self.values.ndim):
            raise DimensionError(f"axis {axis} out of range for shape {self.shape}")

    def sum(self, axis: int | None = None):
        self._check_axis(axis)
        shape = self.shape
        if axis is None:
            return Tensor._from_op(np.asarray(self.values.sum()),
                                   [(self, lambda g: np.full(shape, float(g)))])

        def grad_fn(g, axis=axis, shape=shape):
            return np.broadcast_to(np.expand_dims(g, axis), shape).copy()

        return Tensor._from_op(self.values.sum(axis=axis), [(self, grad_fn)])

    def mean(self):
        shape, count = self.shape, self.size
        return Tensor._from_op(np.asarray(self.values.mean()),
                               [(self, lambda g: np.full(shape, float(g) / count))])

    def softmax(self, axis: int = -1):
        """Numerically stable softmax along ``axis`` with the exact Jacobian."""
        self._check_axis(axis)
        out_vals = softmax_values(self.values, axis)

        def grad_fn(g, s=out_vals, axis=axis):
            return s * (g - (g * s).sum(axis=axis, keepdims=True))

        return Tensor._from_op(out_vals, [(self, grad_fn)])

    # -- backward ---------------------------------------------------------------------

    def backward(self) -> None:
        """Populate .grad on every requires_grad ancestor of this scalar."""
        if self.size != 1:
            raise DimensionError(f"backward() needs a scalar loss, got shape {self.shape}")
        if self._consumed:
            raise GraphConsumedError("backward() already ran on this graph; rebuild it")
        self._consumed = True
        if not self.requires_grad:
            return  # constant loss: nothing to do

        # Pending gradients by creation number; the heap pops the newest
        # node first, and every consumer of a node is newer than it.
        pending: dict[int, np.ndarray] = {self._order: np.ones(self.shape)}
        heap: list[tuple[int, Tensor]] = [(-self._order, self)]
        while heap:
            node = heapq.heappop(heap)[1]
            g = pending.pop(node._order)
            # Every grad_fn multiplies, copies or sums g, so a non-finite
            # interior gradient reaches some leaf as inf or nan (inf * 0 is
            # nan): checking the leaves, the parameter gradients, suffices.
            if not node._parents and not np.isfinite(g).all():
                raise FloatingPointError("non-finite gradient encountered during backward")
            node.grad = g if node.grad is None else node.grad + g
            for parent, grad_fn in node._parents:
                contrib = grad_fn(g)
                prev = pending.get(parent._order)
                if prev is None:
                    pending[parent._order] = contrib
                    heapq.heappush(heap, (-parent._order, parent))
                else:
                    pending[parent._order] = prev + contrib


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
