"""Latent-similarity graphs, three-tier encoding trees, and partition entropy.

Two independent routes to the same quantity live here on purpose:

* ``structural_entropy_definition`` / ``intermediate_layer_entropy`` walk the
  tree and enumerate cut edges and volumes set by set.  Pure numpy + Python
  loops, not differentiable - this is the oracle.
* ``se_loss_matrix`` evaluates the closed matrix form
  ``-sum_j ((1-C)^T A C)_jj / sum(A) * log2((1^T A C)_jj / sum(A))``
  in dense numpy for an arbitrary graph ``A``.  It is the matrix-form
  reference, and the only route for graphs that are not ``sigmoid(HH^T)``.

``se_loss`` is the training route: the same matrix form on
``A = sigmoid(HH^T)`` in plain numpy, returning its value and its backward.
Its forward pass visits the upper half of the symmetric ``A`` once, in
cache-sized row tiles, and also accumulates the n x d(r+1) panel its
gradient needs; the backward pass reads only that panel.  Graph memory is
O(tile + n * r * d) instead of several n x n arrays.  A stack of S slices
runs its tiles slice by slice in one tile block, and all the rest once over
the stack.  Both routes form the graph with the one sigmoid,
``autodiff._sigmoid_of_negated``, from a negated Gram; at d = 1 each tile
is bit for bit a block of ``build_adjacency``'s graph.  ``se_loss`` sums ``sum(A)`` from the row degrees, so the two losses
agree to about an ulp, not bit for bit.

A hard three-tier tree is the one-hot case of the row-stochastic membership
``C``.  Graphs and assignments are plain float64 arrays, checked by
``check_graph`` and ``check_membership`` where a route takes them from its
caller; nothing here records an autodiff tape.  Tests pin the routes against
each other; never collapse them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import LOG_EPS, DimensionError, NonFiniteError, _sigmoid_of_negated

_LN2 = float(np.log(2.0))

# Graph entries per full-width row tile of ``se_loss``; a tile forms only the
# columns from its first row on, and a batch of <= 256 rows is one tile.  The
# tile's two buffers (Gram and graph, 512 KiB each, one block) fit a 2 MiB
# per-core L2.
# Timed on the three-pass tile against 2**14 to 2**18: fastest at n=1024 (fwd +
# bwd) and within 6% of 2**17 at n=6000 (fwd); 2**14 pays per-tile call
# overhead (3000 tiles at n=6000), and 2**18's buffers overflow the L2.
SE_BLOCK_ENTRIES = 1 << 16
# The process's tile block, made on first use and held (a forked worker has its
# own): every call takes its buffers from it, so a call allocates, and faults
# in, no tile memory whatever the heap's layout.  A call whose tiles do not fit
# (one row of n > SE_BLOCK_ENTRIES) grows it for good.  Each entry is written
# before it is read, so nothing passes from one call to the next; one thread at
# a time may use it.
_held_block: np.ndarray | None = None


class DegenerateBatchError(ValueError):
    """A similarity graph needs at least two points."""


def check_graph(a) -> np.ndarray:
    """A similarity graph as a float64 array: 2-D, square and finite.

    Degrees are row sums including the diagonal, ``a.sum(axis=1)``; the
    volume is the sum of all entries, ``a.sum()``.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"adjacency must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("adjacency entries must be finite")
    return a


def check_membership(c) -> np.ndarray:
    """A leaf-to-class membership as a float64 array, (n, r) or a stack
    (S, n, r): entries in [0, 1] and rows summing to 1; one-hot for a hard tree."""
    c = np.asarray(c, dtype=np.float64)
    if c.ndim not in (2, 3):
        raise DimensionError(f"assignment must be 2-D or a stack, got shape {c.shape}")
    if (c < -1e-12).any() or (c > 1.0 + 1e-12).any():
        raise ValueError("assignment entries must lie in [0, 1]")
    if (np.abs(c.sum(axis=-1) - 1.0) > 1e-9).any():
        raise ValueError("assignment rows must sum to 1 within 1e-9")
    return c


def _check_pair(a, c) -> tuple[np.ndarray, np.ndarray]:
    """``check_graph(a)`` and ``check_membership(c)``, with one row per vertex."""
    a, c = check_graph(a), check_membership(c)
    if c.shape[-2] != a.shape[0]:
        raise DimensionError(
            f"assignment has {c.shape[-2]} rows but graph has {a.shape[0]} vertices")
    return a, c


def _check_embeddings(h: np.ndarray) -> None:
    if h.ndim < 2:
        raise DimensionError(f"embeddings must be (..., n, d), got shape {h.shape}")
    if h.shape[-2] < 2:
        raise DegenerateBatchError("need at least 2 points to build a similarity graph")
    if not np.isfinite(h).all():
        raise NonFiniteError("embedding", "embeddings must be finite")


def build_adjacency(embeddings) -> np.ndarray:
    """Similarity graph over a batch of embeddings: sigmoid of the Gram matrix.

    Symmetric with entries in (0, 1); the diagonal (self-similarity) is kept.
    """
    h = np.asarray(embeddings, dtype=np.float64)
    if h.ndim != 2:
        raise DimensionError(f"build_adjacency takes one (n, d) batch, got shape {h.shape}")
    _check_embeddings(h)
    # The negated Gram, formed as ``_se_stack`` forms its tiles.
    neg_gram = h @ np.negative(h.T, order="C")
    return _sigmoid_of_negated(neg_gram, out=neg_gram)


def hard_assignment(labels, num_classes: int) -> np.ndarray:
    """One-hot membership from integer class labels, (n,) or a stack (S, n)."""
    labels = np.asarray(labels)
    if labels.ndim not in (1, 2):
        raise DimensionError("labels must be a 1-D sequence or a stack of them")
    if labels.dtype.kind not in "biu" and not (labels == np.round(labels)).all():
        raise ValueError("class labels must be integers")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    return np.eye(num_classes)[labels.astype(np.int64, copy=False)]


@dataclass
class TreeNode:
    name: str
    members: tuple[int, ...]  # leaf indices covered by this node
    parent: str | None


class EncodingTree:
    """Three-tier partition tree: root over all points, one intermediate node
    per class, singleton leaves.  Intermediate nodes may be empty."""

    def __init__(self, n: int, class_members: list[tuple[int, ...]]):
        covered = [i for members in class_members for i in members]
        if sorted(covered) != list(range(n)):
            raise ValueError("classes must partition the leaf index set exactly")
        self.n = n
        self.class_members = [tuple(sorted(m)) for m in class_members]
        self.nodes: dict[str, TreeNode] = {}
        self.nodes["root"] = TreeNode("root", tuple(range(n)), None)
        for j, members in enumerate(self.class_members):
            cname = f"class:{j}"
            self.nodes[cname] = TreeNode(cname, members, "root")
            for i in members:
                self.nodes[f"leaf:{i}"] = TreeNode(f"leaf:{i}", (i,), cname)


def tree_from_assignment(assignment) -> EncodingTree:
    """Encoding tree whose intermediate node j holds {i : C_ij = 1}."""
    m = check_membership(assignment)
    if m.ndim != 2:
        raise DimensionError(f"a tree needs a 2-D (n, r) membership, got shape {m.shape}")
    if not ((m == 0.0) | (m == 1.0)).all():
        raise ValueError("a tree needs a one-hot membership; a soft one has no unique tree")
    classes = [tuple(int(i) for i in np.flatnonzero(m[:, j] == 1.0))
               for j in range(m.shape[1])]
    return EncodingTree(m.shape[0], classes)


def _cut_weight(a: np.ndarray, members: tuple[int, ...]) -> float:
    """Total weight of edges leaving the member set, by explicit enumeration."""
    inside = set(members)
    total = 0.0
    for i in members:
        row = a[i]
        for k in range(a.shape[0]):
            if k not in inside:
                total += row[k]
    return total


def structural_entropy_definition(adj, tree: EncodingTree) -> tuple[dict[str, float], float]:
    """Per-node structural entropies and their sum, straight from the definition.

    Each non-root node alpha contributes
    ``-(cut(alpha)/vol) * log2(volume(alpha)/volume(parent))``; nodes with an
    empty member set (or zero cut) contribute 0.  Set enumeration only - the
    independent oracle for the matrix-form loss.
    """
    a = check_graph(adj)
    if tree.n != a.shape[0]:
        raise DimensionError(f"tree covers {tree.n} leaves but graph has {a.shape[0]} vertices")
    degrees = a.sum(axis=1)
    vol = float(degrees.sum())

    def set_volume(members: tuple[int, ...]) -> float:
        return float(sum(degrees[i] for i in members))

    per_node: dict[str, float] = {}
    for name, node in tree.nodes.items():
        if node.parent is None:
            continue
        g = _cut_weight(a, node.members)
        if g == 0.0:
            per_node[name] = 0.0
            continue
        v_own = set_volume(node.members)
        v_parent = set_volume(tree.nodes[node.parent].members)
        per_node[name] = -(g / vol) * math.log2(v_own / v_parent)
    return per_node, sum(per_node.values())


def intermediate_layer_entropy(adj, tree: EncodingTree) -> float:
    """Structural entropy restricted to the class (intermediate) tier."""
    per_node, _ = structural_entropy_definition(adj, tree)
    return sum(per_node[f"class:{j}"] for j in range(len(tree.class_members)))


def se_loss_matrix(adj, assignment) -> float:
    """Matrix form of the intermediate-layer structural entropy.

    ``-sum_j cut_j/sum(A) * log2(vol_j/sum(A))`` with
    ``cut_j = ((1-C)^T A C)_jj`` and ``vol_j = (1^T A C)_jj``.  Log arguments
    are floored at 1e-12, so empty classes contribute exactly 0.
    """
    return _class_terms(*_check_pair(adj, assignment))[2]


def _class_terms(a: np.ndarray, c: np.ndarray):
    """Per-class cuts and volumes of ``se_loss_matrix``, and its value, from one ``A @ C``."""
    ac = a @ c                            # n x r
    total = a.sum()
    cuts = ((1.0 - c) * ac).sum(axis=0)   # diag((1-C)^T A C)
    vols = ac.sum(axis=0)                 # diag(1^T A C)
    loss = -((cuts / total) * np.log2(np.maximum(vols / total, LOG_EPS))).sum()
    return cuts, vols, float(loss)


def se_loss(embeddings: np.ndarray, assignment: np.ndarray, need_grad: bool = False):
    """``se_loss_matrix(build_adjacency(embeddings), assignment)`` in closed
    form: (loss, backward), with backward(g) = dL/dH * g shaped like the
    embeddings, or None unless ``need_grad``.

    The forward pass accumulates ``A [C | 1]`` (``AC`` and the degrees) over
    row tiles of ``rows = SE_BLOCK_ENTRIES // n`` rows and, with ``need_grad``,
    the panel ``Q = S [H, C_1*H, ..., C_r*H]`` with ``S = A*(1-A)``.  Tile
    ``I = [start, stop)`` forms only ``A[I, start:] = sigmoid(H_I H[start:]^T)``,
    about n^2/2 + n*rows/2 entries in all, and adds its block right of the
    diagonal, transposed, to the rows after ``stop``; a batch of at most
    ``rows`` rows (256 at the shipped size) is one tile.  The assignment is
    data.  Stacks (S, n, d) and (S, n, r) give the (S,) losses of the
    slices, each with the bits it has alone: only the graph tiles run slice
    by slice, and the panel, ``[C | 1]``, the per-class terms and the
    backward run once over the stack.  Any leading axes stack likewise, and
    a membership that lacks the embeddings' leading draw axes is shared by
    each draw.  The assignment's shape is checked, not its entries: it comes
    from ``hard_assignment`` or ``soften``, which make valid ones.
    """
    h = np.asarray(embeddings, dtype=np.float64)
    _check_embeddings(h)
    c = np.asarray(assignment, dtype=np.float64)
    if not 2 <= c.ndim <= h.ndim or c.shape[:-1] != h.shape[h.ndim - c.ndim:-1]:
        raise DimensionError(f"assignment {c.shape} does not match embeddings {h.shape}")
    if math.prod(h.shape[:h.ndim - c.ndim]) != 1:  # draws share it; for one, the reshape does
        c = np.broadcast_to(c, h.shape[:-1] + c.shape[-1:])
    loss, back = _se_stack(h.reshape((-1,) + h.shape[-2:]),
                           c.reshape((-1,) + c.shape[-2:]), need_grad)
    if back is None:
        return loss.reshape(h.shape[:-2]), None
    return loss.reshape(h.shape[:-2]), lambda g: back(np.reshape(g, -1)).reshape(h.shape)


def _tile_block(entries: int) -> np.ndarray:
    """Gram and graph buffers of ``entries`` float64 each, as a (2, entries)
    view of the held block, grown first if they do not fit in it."""
    global _held_block
    if _held_block is None or _held_block.size < 2 * entries:
        _held_block = np.empty(2 * max(entries, SE_BLOCK_ENTRIES))
    return _held_block[:2 * entries].reshape(2, entries)


def _se_stack(h: np.ndarray, c: np.ndarray, need_grad: bool):
    """``se_loss`` of a stack of (S, n, d) slices and their (S, n, r)
    memberships: the (S,) losses and the backward, g (S,) -> dL/dH * g, or
    None.  The graph tiles run slice by slice in one tile block; everything
    else runs once over the stack, each slice with its solo bits."""
    # Negation is exact, so the Gram tiles against -H^T are -HH^T bit for bit.
    neg_h_t = np.negative(h.transpose(0, 2, 1), order="C")
    (k, n, d), r = h.shape, c.shape[-1]
    rows = min(n, max(1, SE_BLOCK_ENTRIES // n))
    if need_grad:
        # Row i of a slice's panel is [H_i, C_i1*H_i, ..., C_ir*H_i]; it is
        # formed as (S, r+1, d, n), so that each product runs along n, in
        # memory laid out row-major as (S, n, (r+1)*d), the layout that sets
        # the order, so the bits, of the S*panel products.
        h_t = h.transpose(0, 2, 1)
        panel = np.concatenate([h_t[:, None], c.transpose(0, 2, 1)[:, :, None] * h_t[:, None]],
                               axis=1).transpose(0, 3, 1, 2).reshape(k, n, -1)
        q = np.empty(panel.shape)
    gram, a = _tile_block(rows * n)
    c1 = np.empty((k, n, r + 1))  # [C | 1]: AC and the degrees
    c1[..., :r], c1[..., r] = c, 1.0
    ac1 = np.empty(c1.shape)
    for i in range(k):
        # Tiles run last to first: the rows after a tile already hold their
        # own products when its block A[I, stop:], transposed, is added to
        # them, and a tile's own rows are written, not accumulated.
        for start in reversed(range(0, n, rows)):
            stop = min(start + rows, n)
            tile, right = slice(start, stop), slice(stop - start, None)
            shape = (stop - start, n - start)
            g_t = gram[:shape[0] * shape[1]].reshape(shape)
            if d == 1:  # one rounded product per entry, the bits of the matmul
                np.multiply(h[i, tile], neg_h_t[i, :, start:], out=g_t)
            else:
                np.matmul(h[i, tile], neg_h_t[i, :, start:], out=g_t)
            a_t = _sigmoid_of_negated(g_t, out=a[:g_t.size].reshape(shape))
            np.matmul(a_t, c1[i, start:], out=ac1[i, tile])
            if stop < n:
                ac1[i, stop:] += a_t[:, right].T @ c1[i, tile]
            if need_grad:
                s_t = np.subtract(1.0, a_t, out=g_t)
                s_t *= a_t
                np.matmul(s_t, panel[i, start:], out=q[i, tile])
                if stop < n:
                    q[i, stop:] += s_t[:, right].T @ panel[i, tile]
    ac, total = ac1[..., :r], ac1[..., r].sum(axis=-1, keepdims=True)
    cuts = ((1.0 - c) * ac).sum(axis=-2)
    vols = ac.sum(axis=-2)
    ratio = vols / total
    clamped = np.maximum(ratio, LOG_EPS)
    log_ratio = np.log2(clamped)
    loss = -((cuts / total) * log_ratio).sum(axis=-1)
    if not need_grad:
        return loss, None

    def backward(g: np.ndarray) -> np.ndarray:
        # a_k = dL/dcut_k, b_k = dL/dvol_k, s = dL/dsum(A), u = C(a+b):
        # dL/dH = (2s+u)*(SH) + sum_k ((a_k+b_k) - 2 a_k C_k) * (S(C_k*H)),
        # so row i of dL/dH is w_i (1 x (r+1)) times Q_i ((r+1) x d).
        mask = ratio >= LOG_EPS
        a_k = -log_ratio / total
        b_k = -cuts * mask / (total * total * _LN2 * clamped)
        ab = a_k + b_k
        s = -(np.vecdot(a_k, cuts) + np.vecdot(b_k, vols))[:, None] / total
        w = np.empty((k, n, 1, r + 1))  # the layout of np.column_stack's result
        np.add(2.0 * s, np.matmul(c, ab[..., None])[..., 0], out=w[..., 0, 0])
        np.subtract(ab[:, None], 2.0 * a_k[:, None] * c, out=w[..., 0, 1:])
        return np.matmul(w, q.reshape(k, n, r + 1, d))[..., 0, :] * g[:, None, None]

    return loss, backward

