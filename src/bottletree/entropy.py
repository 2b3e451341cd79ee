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
O(tile + n * r * d) instead of several n x n arrays.  Its graph, formed as
``1 / (1 + exp(-HH^T))``, and its ``sum(A)``, summed from the row degrees,
agree with the matrix form to about an ulp, not bit for bit.

A hard three-tier tree is the one-hot case of the row-stochastic membership
``C``.  Graphs and assignments are plain arrays; nothing here records an
autodiff tape.  Tests pin the routes against each other; never collapse them.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .autodiff import LOG_EPS, DimensionError, NonFiniteError, _stable_sigmoid

_LN2 = float(np.log(2.0))

# Graph entries per full-width row tile of ``se_loss``; a tile forms only the
# columns from its first row on, and a batch of <= 256 rows is one tile.  The
# tile's two buffers (Gram and graph, 512 KiB each, allocated once per call)
# fit a 2 MiB per-core L2.
# Timed on the three-pass tile against 2**14 to 2**18: fastest at n=1024 (fwd +
# bwd) and within 6% of 2**17 at n=6000 (fwd); 2**14 pays per-tile call
# overhead (3000 tiles at n=6000), and 2**18's buffers overflow the L2.
SE_BLOCK_ENTRIES = 1 << 16


class DegenerateBatchError(ValueError):
    """A similarity graph needs at least two points."""


@dataclass
class AdjacencyMatrix:
    """Batch-level similarity graph: weights, per-point degrees, total volume.

    Degrees are row sums including the diagonal; the volume is the sum of all
    entries, so volume == sum(degrees) by construction.
    """

    weights: np.ndarray

    def __post_init__(self):
        self.weights = v = np.asarray(self.weights, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DimensionError(f"adjacency must be square, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("adjacency entries must be finite")

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return self.weights.sum(axis=1)

    @property
    def volume(self) -> float:
        return float(self.weights.sum())


def _check_embeddings(h: np.ndarray) -> None:
    if h.ndim not in (2, 3):
        raise DimensionError(f"embeddings must be 2-D or a stack, got shape {h.shape}")
    if h.shape[-2] < 2:
        raise DegenerateBatchError("need at least 2 points to build a similarity graph")
    if not np.isfinite(h).all():
        raise NonFiniteError("embedding", "embeddings must be finite")


def build_adjacency(embeddings) -> AdjacencyMatrix:
    """Similarity graph over a batch of embeddings: sigmoid of the Gram matrix.

    Symmetric with entries in (0, 1); the diagonal (self-similarity) is kept.
    """
    h = np.asarray(embeddings, dtype=np.float64)
    _check_embeddings(h)
    # Against a contiguous transpose, as ``_se_slice`` forms its (negated) Gram tiles.
    return AdjacencyMatrix(_stable_sigmoid(h @ h.T.copy()))


@dataclass
class AssignmentMatrix:
    """Row-stochastic leaf-to-class membership, (n, r) or (S, n, r); one-hot for a hard tree."""

    membership: np.ndarray
    validate: InitVar[bool] = True  # False where the entries are valid by construction

    def __post_init__(self, validate: bool):
        self.membership = m = np.asarray(self.membership, dtype=np.float64)
        if m.ndim not in (2, 3):
            raise DimensionError(f"assignment must be 2-D or a stack, got shape {m.shape}")
        if validate:
            if (m < -1e-12).any() or (m > 1.0 + 1e-12).any():
                raise ValueError("assignment entries must lie in [0, 1]")
            if (np.abs(m.sum(axis=-1) - 1.0) > 1e-9).any():
                raise ValueError("assignment rows must sum to 1 within 1e-9")

    @property
    def n(self) -> int:
        return self.membership.shape[-2]

    @property
    def num_classes(self) -> int:
        return self.membership.shape[-1]


def hard_assignment(labels, num_classes: int) -> AssignmentMatrix:
    """One-hot assignment from integer class labels, (n,) or a stack (S, n)."""
    labels = np.asarray(labels)
    if labels.ndim not in (1, 2):
        raise DimensionError("labels must be a 1-D sequence or a stack of them")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    onehot = np.eye(num_classes)[labels.astype(np.int64, copy=False)]
    return AssignmentMatrix(onehot, validate=False)  # valid by construction


@dataclass
class TreeNode:
    name: str
    members: tuple[int, ...]  # leaf indices covered by this node
    parent: str | None
    children: list[str] = field(default_factory=list)

    @property
    def num_children(self) -> int:
        return len(self.children)


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
        root = TreeNode("root", tuple(range(n)), None)
        self.nodes["root"] = root
        for j, members in enumerate(self.class_members):
            cname = f"class:{j}"
            root.children.append(cname)
            cnode = TreeNode(cname, members, "root")
            self.nodes[cname] = cnode
            for i in members:
                lname = f"leaf:{i}"
                cnode.children.append(lname)
                self.nodes[lname] = TreeNode(lname, (i,), cname)

    @property
    def num_classes(self) -> int:
        return len(self.class_members)


def tree_from_assignment(assignment: AssignmentMatrix) -> EncodingTree:
    """Encoding tree whose intermediate node j holds {i : C_ij = 1}."""
    m = assignment.membership
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


def structural_entropy_definition(adj: AdjacencyMatrix,
                                  tree: EncodingTree) -> tuple[dict[str, float], float]:
    """Per-node structural entropies and their sum, straight from the definition.

    Each non-root node alpha contributes
    ``-(cut(alpha)/vol) * log2(volume(alpha)/volume(parent))``; nodes with an
    empty member set (or zero cut) contribute 0.  Set enumeration only - the
    independent oracle for the matrix-form loss.
    """
    if tree.n != adj.n:
        raise DimensionError(f"tree covers {tree.n} leaves but graph has {adj.n} vertices")
    a = adj.weights
    degrees = adj.degrees
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


def intermediate_layer_entropy(adj: AdjacencyMatrix, tree: EncodingTree) -> float:
    """Structural entropy restricted to the class (intermediate) tier."""
    per_node, _ = structural_entropy_definition(adj, tree)
    return sum(per_node[f"class:{j}"] for j in range(tree.num_classes))


def se_loss_matrix(adj: AdjacencyMatrix, assignment: AssignmentMatrix) -> float:
    """Matrix form of the intermediate-layer structural entropy.

    ``-sum_j cut_j/sum(A) * log2(vol_j/sum(A))`` with
    ``cut_j = ((1-C)^T A C)_jj`` and ``vol_j = (1^T A C)_jj``.  Log arguments
    are floored at 1e-12, so empty classes contribute exactly 0.
    """
    return _class_terms(adj, assignment)[2]


def _class_terms(adj: AdjacencyMatrix, assignment: AssignmentMatrix):
    """Per-class cuts and volumes of ``se_loss_matrix``, and its value, from one ``A @ C``."""
    if assignment.n != adj.n:
        raise DimensionError(
            f"assignment has {assignment.n} rows but graph has {adj.n} vertices")
    a, c = adj.weights, assignment.membership
    ac = a @ c                            # n x r
    total = a.sum()
    cuts = ((1.0 - c) * ac).sum(axis=0)   # diag((1-C)^T A C)
    vols = ac.sum(axis=0)                 # diag(1^T A C)
    loss = -((cuts / total) * np.log2(np.maximum(vols / total, LOG_EPS))).sum()
    return cuts, vols, float(loss)


def se_loss(embeddings: np.ndarray, assignment: AssignmentMatrix, need_grad: bool = False):
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
    slices, each computed alone, with its own bits.
    """
    h = np.asarray(embeddings, dtype=np.float64)
    _check_embeddings(h)
    c = assignment.membership
    if c.ndim != h.ndim or c.shape[:-1] != h.shape[:-1]:
        raise DimensionError(f"assignment {c.shape} does not match embeddings {h.shape}")
    slices = zip(h.reshape((-1,) + h.shape[-2:]), c.reshape((-1,) + c.shape[-2:]))
    parts = [_se_slice(h_s, c_s, need_grad) for h_s, c_s in slices]
    loss = np.array([value for value, _ in parts]).reshape(h.shape[:-2])

    def backward(g):
        grads = [back(float(g_s)) for (_, back), g_s in zip(parts, np.reshape(g, -1))]
        return (grads[0] if len(grads) == 1 else np.array(grads)).reshape(h.shape)

    return loss, backward if need_grad else None


def _graph_tile(neg_gram: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``sigmoid(x)`` from ``-x`` in three in-place passes; 0 where ``exp`` overflows."""
    np.exp(neg_gram, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _se_slice(h: np.ndarray, c: np.ndarray, need_grad: bool):
    """``se_loss`` of one (n, d) slice: the loss and its backward, g -> dL/dH * g."""
    # Negation is exact, so the Gram tiles against -H^T are -HH^T bit for bit.
    neg_h_t = np.negative(h.T, order="C")
    (n, d), r = h.shape, c.shape[1]
    rows = min(n, max(1, SE_BLOCK_ENTRIES // n))
    if need_grad:
        # built as (r+1) x d x n, so that each product runs along n
        panel = np.concatenate([h.T[None], c.T[:, None, :] * h.T]).reshape(-1, n).T
        q = np.empty((n, (r + 1) * d))
    gram, a = np.empty(rows * n), np.empty(rows * n)
    c1 = np.concatenate([c, np.ones((n, 1))], axis=1)  # [C | 1]: AC and the degrees
    ac1 = np.empty(c1.shape)
    # Tiles run last to first: the rows after a tile already hold their own
    # products when its block A[I, stop:], transposed, is added to them, and
    # a tile's own rows are written, not accumulated.
    with np.errstate(over="ignore"):
        for start in reversed(range(0, n, rows)):
            stop = min(start + rows, n)
            tile, right = slice(start, stop), slice(stop - start, None)
            shape = (stop - start, n - start)
            g_t = gram[:shape[0] * shape[1]].reshape(shape)
            if d == 1:  # one rounded product per entry, the bits of the matmul
                np.multiply(h[tile], neg_h_t[:, start:], out=g_t)
            else:
                np.matmul(h[tile], neg_h_t[:, start:], out=g_t)
            a_t = _graph_tile(g_t, a[:g_t.size].reshape(shape))
            np.matmul(a_t, c1[start:], out=ac1[tile])
            if stop < n:
                ac1[stop:] += a_t[:, right].T @ c1[tile]
            if need_grad:
                s_t = np.subtract(1.0, a_t, out=g_t)
                s_t *= a_t
                np.matmul(s_t, panel[start:], out=q[tile])
                if stop < n:
                    q[stop:] += s_t[:, right].T @ panel[tile]
    ac, total = ac1[:, :r], ac1[:, r].sum()
    cuts = ((1.0 - c) * ac).sum(axis=0)
    vols = ac.sum(axis=0)
    ratio = vols / total
    clamped = np.maximum(ratio, LOG_EPS)
    log_ratio = np.log2(clamped)
    loss = -((cuts / total) * log_ratio).sum()

    def backward(g: float) -> np.ndarray:
        # a_k = dL/dcut_k, b_k = dL/dvol_k, s = dL/dsum(A), u = C(a+b):
        # dL/dH = (2s+u)*(SH) + sum_k ((a_k+b_k) - 2 a_k C_k) * (S(C_k*H)),
        # so row i of dL/dH is w_i (1 x (r+1)) times Q_i ((r+1) x d).
        mask = ratio >= LOG_EPS
        a_k = -log_ratio / total
        b_k = -cuts * mask / (total * total * _LN2 * clamped)
        s = -float(a_k @ cuts + b_k @ vols) / total
        u = c @ (a_k + b_k)
        w = np.empty((n, r + 1))  # the layout of np.column_stack's result
        w[:, 0], w[:, 1:] = 2.0 * s + u, (a_k + b_k) - 2.0 * a_k * c
        return np.matmul(w[:, None, :], q.reshape(n, r + 1, d))[:, 0] * g

    return loss, backward


def entropy_report(adj: AdjacencyMatrix, assignment: AssignmentMatrix) -> dict:
    """JSON-ready debug record: graph, assignment, per-class cuts/volumes, loss."""
    cuts, vols, loss = _class_terms(adj, assignment)
    return {
        "adjacency": adj.weights.tolist(),
        "assignment": assignment.membership.tolist(),
        "cut_weights": cuts.tolist(),
        "class_volumes": vols.tolist(),
        "volume": adj.volume,
        "se_loss": loss,
    }
