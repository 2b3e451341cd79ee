"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A dynamic tape: every operation records its parent tensors together with a
closure mapping the output gradient to each parent's gradient contribution.
Graphs are rebuilt per training step and consumed by a single ``backward()``
call.  Everything is 64-bit; elementwise broadcasting is restricted to
equal shapes, a scalar with a tensor, and a (1, h) row against an (n, h)
matrix (a bias added to every row), which is all the model here needs.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

# Floor applied to every log/log2 argument. Realizes the 0*log(0) = 0
# convention for empty classes to machine precision.
LOG_EPS = 1e-12

_LN2 = float(np.log(2.0))


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class GraphConsumedError(RuntimeError):
    """backward() was called a second time on an already-consumed graph."""


def _as_array(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


def _is_scalar_shape(shape: tuple[int, ...]) -> bool:
    return all(d == 1 for d in shape)


def _is_row_of(row: tuple[int, ...], full: tuple[int, ...]) -> bool:
    return len(row) == 2 == len(full) and row[0] == 1 and row[1] == full[1]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Collapse a gradient back to a scalar or (1, h) row operand shape."""
    if grad.shape == shape:
        return grad
    if _is_scalar_shape(shape):
        return np.asarray(grad.sum(), dtype=np.float64).reshape(shape)
    return grad.sum(axis=0, keepdims=True)


class Tensor:
    """Dense float64 array participating in a reverse-mode graph."""

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_consumed")

    def __init__(self, values, requires_grad: bool = False):
        self.values = _as_array(values)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        # tuple of (parent, grad_fn) where grad_fn maps d(out) -> d(parent)
        self._parents: tuple[tuple["Tensor", Callable[[np.ndarray], np.ndarray]], ...] = ()
        self._consumed = False

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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

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
            "elementwise op needs equal shapes, a scalar operand or a (1, h) row "
            f"against (n, h), got {self.shape} and {other.shape}")

    # -- elementwise arithmetic ----------------------------------------------

    def __add__(self, other):
        b = Tensor._coerce(other)
        self._check_elementwise(b)
        return Tensor._from_op(
            self.values + b.values,
            [(self, lambda g: _unbroadcast(g, self.shape)),
             (b, lambda g: _unbroadcast(g, b.shape))])

    __radd__ = __add__

    def __sub__(self, other):
        b = Tensor._coerce(other)
        self._check_elementwise(b)
        return Tensor._from_op(
            self.values - b.values,
            [(self, lambda g: _unbroadcast(g, self.shape)),
             (b, lambda g: _unbroadcast(-g, b.shape))])

    def __rsub__(self, other):
        return Tensor._coerce(other).__sub__(self)

    def __mul__(self, other):
        b = Tensor._coerce(other)
        self._check_elementwise(b)
        av, bv = self.values, b.values
        return Tensor._from_op(
            av * bv,
            [(self, lambda g: _unbroadcast(g * bv, self.shape)),
             (b, lambda g: _unbroadcast(g * av, b.shape))])

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = Tensor._coerce(other)
        self._check_elementwise(b)
        av, bv = self.values, b.values
        return Tensor._from_op(
            av / bv,
            [(self, lambda g: _unbroadcast(g / bv, self.shape)),
             (b, lambda g: _unbroadcast(-g * av / (bv * bv), b.shape))])

    def __rtruediv__(self, other):
        return Tensor._coerce(other).__truediv__(self)

    def __neg__(self):
        return Tensor._from_op(-self.values, [(self, lambda g: -g)])

    def abs(self):
        sign = np.sign(self.values)
        return Tensor._from_op(np.abs(self.values), [(self, lambda g: g * sign)])

    def exp(self):
        out_vals = np.exp(self.values)
        return Tensor._from_op(out_vals, [(self, lambda g: g * out_vals)])

    def log(self):
        """Natural log with the argument floored at LOG_EPS."""
        x = self.values
        clamped = np.maximum(x, LOG_EPS)
        mask = (x >= LOG_EPS).astype(np.float64)
        return Tensor._from_op(np.log(clamped), [(self, lambda g: g * mask / clamped)])

    def log2(self):
        """Base-2 log with the argument floored at LOG_EPS."""
        x = self.values
        clamped = np.maximum(x, LOG_EPS)
        mask = (x >= LOG_EPS).astype(np.float64)
        return Tensor._from_op(np.log2(clamped), [(self, lambda g: g * mask / (clamped * _LN2))])

    def sigmoid(self):
        out_vals = _stable_sigmoid(self.values)
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

    @property
    def T(self) -> "Tensor":
        if self.values.ndim != 2:
            raise DimensionError(f"transpose needs a 2-D tensor, got shape {self.shape}")
        return Tensor._from_op(self.values.T.copy(), [(self, lambda g: g.T.copy())])

    def reshape(self, shape) -> "Tensor":
        old = self.shape
        return Tensor._from_op(self.values.reshape(shape).copy(),
                               [(self, lambda g: g.reshape(old).copy())])

    def cols(self, start: int, stop: int) -> "Tensor":
        """Column slice [start, stop) of a 2-D tensor."""
        if self.values.ndim != 2:
            raise DimensionError(f"cols() needs a 2-D tensor, got shape {self.shape}")
        n, m = self.shape
        if not (0 <= start <= stop <= m):
            raise DimensionError(f"column range [{start}, {stop}) out of bounds for width {m}")

        def grad_fn(g, n=n, m=m, start=start, stop=stop):
            full = np.zeros((n, m))
            full[:, start:stop] = g
            return full

        return Tensor._from_op(self.values[:, start:stop].copy(), [(self, grad_fn)])

    # -- matmul ------------------------------------------------------------------

    def __matmul__(self, other):
        if not isinstance(other, Tensor):
            raise DimensionError("matmul needs two tensors")
        if self.values.ndim != 2 or other.values.ndim != 2:
            raise DimensionError(
                f"matmul needs 2-D tensors, got shapes {self.shape} and {other.shape}")
        if self.shape[1] != other.shape[0]:
            raise DimensionError(
                f"matmul inner extents differ: {self.shape} vs {other.shape}")
        av, bv = self.values, other.values
        return Tensor._from_op(
            av @ bv,
            [(self, lambda g: g @ bv.T),
             (other, lambda g: av.T @ g)])

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

    def mean(self, axis: int | None = None):
        self._check_axis(axis)
        shape = self.shape
        if axis is None:
            count = self.size
            return Tensor._from_op(np.asarray(self.values.mean()),
                                   [(self, lambda g: np.full(shape, float(g) / count))])
        count = shape[axis]

        def grad_fn(g, axis=axis, shape=shape, count=count):
            return np.broadcast_to(np.expand_dims(g / count, axis), shape).copy()

        return Tensor._from_op(self.values.mean(axis=axis), [(self, grad_fn)])

    def max(self, axis: int | None = None):
        """Max reduction; the gradient routes to the first maximal element."""
        self._check_axis(axis)
        x = self.values
        if axis is None:
            idx = int(np.argmax(x))  # first occurrence on ties

            def grad_fn(g, idx=idx, shape=x.shape):
                full = np.zeros(shape)
                full.reshape(-1)[idx] = float(g)
                return full

            return Tensor._from_op(np.asarray(x.max()), [(self, grad_fn)])

        idx = np.expand_dims(np.argmax(x, axis=axis), axis)

        def grad_fn(g, idx=idx, axis=axis, shape=x.shape):
            full = np.zeros(shape)
            np.put_along_axis(full, idx, np.expand_dims(g, axis), axis=axis)
            return full

        return Tensor._from_op(x.max(axis=axis), [(self, grad_fn)])

    def softmax(self, axis: int = -1):
        """Numerically stable softmax along ``axis`` with the exact Jacobian."""
        self._check_axis(axis)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("softmax needs finite inputs")
        shifted = self.values - self.values.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out_vals = e / e.sum(axis=axis, keepdims=True)

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

        order = _topo_order(self)
        pending: dict[int, np.ndarray] = {id(self): np.ones(self.shape)}
        for node in order:
            g = pending.pop(id(node), None)
            if g is None:
                continue
            # Every grad_fn multiplies, copies or sums g, so a non-finite
            # interior gradient reaches some leaf as inf or nan (inf * 0 is
            # nan): checking the leaves, the parameter gradients, suffices.
            if not node._parents and not np.isfinite(g).all():
                raise FloatingPointError("non-finite gradient encountered during backward")
            node.grad = g if node.grad is None else node.grad + g
            for parent, grad_fn in node._parents:
                contrib = grad_fn(g)
                prev = pending.get(id(parent))
                pending[id(parent)] = contrib if prev is None else prev + contrib


def _topo_order(root: Tensor) -> list[Tensor]:
    """Reverse topological order (root first) over requires_grad nodes."""
    post: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            post.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    post.reverse()
    return post


def _stable_sigmoid(x: np.ndarray, out: np.ndarray | None = None,
                    den: np.ndarray | None = None) -> np.ndarray:
    # exp(min(x, 0)) / (1 + exp(-|x|)): 1 / (1 + exp(-x)) for x >= 0 and
    # exp(x) / (1 + exp(x)) below, bit for bit, without masked gathers.
    # ``out`` and the scratch ``den`` are optional buffers; ``den`` may be x.
    out = np.minimum(x, 0.0, out=np.empty_like(x) if out is None else out)
    np.exp(out, out=out)
    den = np.abs(x, out=np.empty_like(x) if den is None else den)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    out /= den
    return out


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def parameter(values) -> Tensor:
    return Tensor(values, requires_grad=True)


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


def finite_difference_check(f: Callable[[Sequence[Tensor]], Tensor],
                            params: Sequence[Tensor],
                            h: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central differences.

    ``f(params)`` must rebuild the graph from scratch on every call and be
    deterministic (freeze any sampling noise before calling).  Relative error
    per entry is |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    zero_grads(params)
    loss = f(params)
    if not np.isfinite(loss.item()):
        raise FloatingPointError("loss is non-finite at the evaluation point")
    loss.backward()
    analytic = [np.zeros(p.shape) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        a_flat = a.reshape(-1)
        for i in range(p.size):
            orig = p.values.flat[i]
            p.values.flat[i] = orig + h
            up = f(params).item()
            p.values.flat[i] = orig - h
            down = f(params).item()
            p.values.flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise FloatingPointError("non-finite loss during finite differencing")
            numeric = (up - down) / (2.0 * h)
            err = abs(a_flat[i] - numeric) / max(abs(a_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, err)
    zero_grads(params)
    return worst
