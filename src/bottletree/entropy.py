"""Latent-similarity graphs, three-tier encoding trees, and partition entropy.

Two independent routes to the same quantity live here on purpose:

* ``structural_entropy_definition`` / ``intermediate_layer_entropy`` walk the
  tree and enumerate cut edges and volumes set by set.  Pure numpy + Python
  loops, not differentiable - this is the oracle.
* ``se_loss_matrix`` evaluates the closed matrix form
  ``-sum_j ((1-C)^T A C)_jj / sum(A) * log2((1^T A C)_jj / sum(A))``
  on the autodiff tape for an arbitrary graph ``A``.  It is the on-tape
  reference, and the only route for graphs that are not ``sigmoid(HH^T)``.

``se_loss`` is the training route: the same matrix form on
``A = sigmoid(HH^T)``, fused into one tape node.  Its forward pass visits
the upper half of the symmetric ``A`` once, in cache-sized row tiles - each
tile forms only the columns at or right of its first row, about
n^2/2 + n*rows/2 entries - and also accumulates the n x d(r+1) panel its
gradient needs; the backward pass reads only that panel.  Graph memory is
O(tile + n * r * d) instead of several n x n arrays.

Tests pin the routes against each other; never collapse them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (_LN2, LOG_EPS, DimensionError, Tensor, _stable_sigmoid,
                       constant)

# Graph entries per full-width row tile of ``se_loss``; a tile forms only the
# columns from its first row on, and a batch of <= 256 rows is one tile.  The
# tile's two buffers (Gram and graph, 512 KiB each, allocated once per call)
# fit a 2 MiB per-core L2.
# Timed against 2**14, 2**15 and 2**17: smaller tiles pay more per-tile call
# overhead (a 6000-row split is 3000 tiles at 2**14); at 2**17 the buffers
# alone fill the L2.
SE_BLOCK_ENTRIES = 1 << 16


class DegenerateBatchError(ValueError):
    """A similarity graph needs at least two points."""


class AssignmentModeError(ValueError):
    """Operation received an assignment matrix in the wrong mode."""


@dataclass
class AdjacencyMatrix:
    """Batch-level similarity graph: weights, per-point degrees, total volume.

    Degrees are row sums including the diagonal; the volume is the sum of all
    entries, so volume == sum(degrees) by construction.
    """

    weights: Tensor

    def __post_init__(self):
        v = self.weights.values
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DimensionError(f"adjacency must be square, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("adjacency entries must be finite")

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return self.weights.values.sum(axis=1)

    @property
    def volume(self) -> float:
        return float(self.weights.values.sum())


def _check_embeddings(embeddings: Tensor) -> None:
    if embeddings.values.ndim != 2:
        raise DimensionError(f"embeddings must be 2-D, got shape {embeddings.shape}")
    if embeddings.shape[0] < 2:
        raise DegenerateBatchError("need at least 2 points to build a similarity graph")
    if not np.all(np.isfinite(embeddings.values)):
        raise ValueError("embeddings must be finite")


def build_adjacency(embeddings: Tensor) -> AdjacencyMatrix:
    """Similarity graph over a batch of embeddings: sigmoid of the Gram matrix.

    Symmetric with entries in (0, 1); the diagonal (self-similarity) is kept.
    Differentiable with respect to the embeddings.
    """
    _check_embeddings(embeddings)
    return AdjacencyMatrix((embeddings @ embeddings.T).sigmoid())


@dataclass
class AssignmentMatrix:
    """Leaf-to-class membership: one-hot rows (hard) or row-stochastic (soft)."""

    membership: Tensor
    mode: str  # "hard" | "soft"

    def __post_init__(self):
        m = self.membership.values
        if m.ndim != 2:
            raise DimensionError(f"assignment must be 2-D, got shape {m.shape}")
        if self.mode == "hard":
            if not np.all((m == 0.0) | (m == 1.0)):
                raise ValueError("hard assignment entries must be exactly 0 or 1")
            if not np.all(m.sum(axis=1) == 1.0):
                raise ValueError("hard assignment rows must sum to exactly 1")
        elif self.mode == "soft":
            if np.any(m < -1e-12) or np.any(m > 1.0 + 1e-12):
                raise ValueError("soft assignment entries must lie in [0, 1]")
            if np.any(np.abs(m.sum(axis=1) - 1.0) > 1e-9):
                raise ValueError("soft assignment rows must sum to 1 within 1e-9")
        else:
            raise AssignmentModeError(f"unknown assignment mode {self.mode!r}")

    @property
    def n(self) -> int:
        return self.membership.shape[0]

    @property
    def num_classes(self) -> int:
        return self.membership.shape[1]


def hard_assignment(labels, num_classes: int) -> AssignmentMatrix:
    """One-hot assignment from integer class labels."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise DimensionError("labels must be a 1-D sequence")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    onehot = np.zeros((labels.size, num_classes))
    onehot[np.arange(labels.size), labels.astype(np.int64)] = 1.0
    return AssignmentMatrix(constant(onehot), mode="hard")


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

    def class_of_leaf(self) -> np.ndarray:
        out = np.empty(self.n, dtype=np.int64)
        for j, members in enumerate(self.class_members):
            for i in members:
                out[i] = j
        return out


def tree_from_assignment(assignment: AssignmentMatrix) -> EncodingTree:
    """Encoding tree whose intermediate node j holds {i : C_ij = 1}."""
    if assignment.mode != "hard":
        raise AssignmentModeError("tree_from_assignment needs a hard assignment; "
                                  "soft memberships have no unique tree")
    m = assignment.membership.values
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
    a = adj.weights.values
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


def se_loss_matrix(adj: AdjacencyMatrix, assignment: AssignmentMatrix) -> Tensor:
    """Differentiable matrix form of the intermediate-layer structural entropy.

    ``-sum_j cut_j/sum(A) * log2(vol_j/sum(A))`` with
    ``cut_j = ((1-C)^T A C)_jj`` and ``vol_j = (1^T A C)_jj``.  Log arguments
    are floored at 1e-12, so empty classes contribute exactly 0.  Gradients
    flow into A (hence the embeddings) and, when C carries gradients, into C.
    """
    if assignment.n != adj.n:
        raise DimensionError(
            f"assignment has {assignment.n} rows but graph has {adj.n} vertices")
    a = adj.weights
    c = assignment.membership
    ac = a @ c                            # n x r
    total = a.sum()
    cuts = ((1.0 - c) * ac).sum(axis=0)   # diag((1-C)^T A C)
    vols = ac.sum(axis=0)                 # diag(1^T A C)
    return -((cuts / total) * (vols / total).log2()).sum()


def se_loss(embeddings: Tensor, assignment: AssignmentMatrix) -> Tensor:
    """``se_loss_matrix(build_adjacency(embeddings), assignment)`` as one tape node.

    The forward pass accumulates ``AC`` and ``sum(A)`` over row tiles of
    ``rows = SE_BLOCK_ENTRIES // n`` rows and, when the embeddings require
    grad, the n x d(r+1) panel ``Q = S [H, C_1*H, ..., C_r*H]`` with
    ``S = A*(1-A)``.  ``A`` is symmetric, so tile ``I = [start, stop)`` forms
    only ``A[I, start:] = sigmoid(H_I H[start:]^T)``, about n^2/2 + n*rows/2
    entries in all, and adds its block right of the diagonal, transposed, to
    the rows after ``stop``.  A batch of at most ``rows`` rows (256 rows at
    the shipped tile size) is one tile, the full graph.  The backward pass
    reads only ``Q``, never the graph, so graph memory is O(tile + n * r * d).
    The assignment is data; gradients flow only into the embeddings.
    """
    _check_embeddings(embeddings)
    if assignment.n != embeddings.shape[0]:
        raise DimensionError(
            f"assignment has {assignment.n} rows but graph has "
            f"{embeddings.shape[0]} vertices")
    if assignment.membership.requires_grad:
        raise ValueError("se_loss treats the assignment as data; "
                         "its membership must not require grad")
    h = embeddings.values
    # Contiguous, as ``Tensor.T`` makes it, so the Gram tiles equal the
    # composite's bit for bit.
    h_t = h.T.copy()
    c = assignment.membership.values
    (n, d), r = h.shape, c.shape[1]
    rows = min(n, max(1, SE_BLOCK_ENTRIES // n))
    if embeddings.requires_grad:
        # built as (r+1) x d x n, so that each product runs along n
        panel = np.concatenate([h_t[None], c.T[:, None, :] * h_t]).reshape(-1, n).T
        q = np.empty((n, (r + 1) * d))
    gram, a = np.empty(rows * n), np.empty(rows * n)
    ac = np.empty(c.shape)
    total = 0.0
    # Tiles run last to first: the rows after a tile already hold their own
    # products when its block A[I, stop:], transposed, is added to them, and
    # a tile's own rows are written, not accumulated.
    for start in reversed(range(0, n, rows)):
        stop = min(start + rows, n)
        tile, right = slice(start, stop), slice(stop - start, None)
        shape = (stop - start, n - start)
        g_t = gram[:shape[0] * shape[1]].reshape(shape)
        if d == 1:  # one rounded product per entry, the bits of the matmul
            np.multiply(h[tile], h_t[:, start:], out=g_t)
        else:
            np.matmul(h[tile], h_t[:, start:], out=g_t)
        a_t = _stable_sigmoid(g_t, out=a[:g_t.size].reshape(shape), den=g_t)
        np.matmul(a_t, c[start:], out=ac[tile])
        total += a_t.sum()
        if stop < n:
            ac[stop:] += a_t[:, right].T @ c[tile]
            total += a_t[:, right].sum()
        if embeddings.requires_grad:
            s_t = np.subtract(1.0, a_t, out=g_t)
            s_t *= a_t
            np.matmul(s_t, panel[start:], out=q[tile])
            if stop < n:
                q[stop:] += s_t[:, right].T @ panel[tile]
    cuts = ((1.0 - c) * ac).sum(axis=0)
    vols = ac.sum(axis=0)
    ratio = vols / total
    clamped = np.maximum(ratio, LOG_EPS)
    loss = -((cuts / total) * np.log2(clamped)).sum()

    def grad_fn(g):
        # a_k = dL/dcut_k, b_k = dL/dvol_k, s = dL/dsum(A), u = C(a+b):
        # dL/dH = (2s+u)*(SH) + sum_k ((a_k+b_k) - 2 a_k C_k) * (S(C_k*H)),
        # so row i of dL/dH is w_i (1 x (r+1)) times Q_i ((r+1) x d).
        mask = ratio >= LOG_EPS
        a_k = -np.log2(clamped) / total
        b_k = -cuts * mask / (total * total * _LN2 * clamped)
        s = -float(a_k @ cuts + b_k @ vols) / total
        u = c @ (a_k + b_k)
        w = np.column_stack([2.0 * s + u, (a_k + b_k) - 2.0 * a_k * c])
        return np.matmul(w[:, None, :], q.reshape(n, r + 1, d))[:, 0] * float(g)

    return Tensor._from_op(np.asarray(loss), [(embeddings, grad_fn)])


def class_cut_weights(adj: AdjacencyMatrix, assignment: AssignmentMatrix) -> np.ndarray:
    """Non-differentiable view of the per-class cut terms used in the loss."""
    a = adj.weights.values
    c = assignment.membership.values
    return np.einsum("ij,ij->j", 1.0 - c, a @ c)


def class_volumes(adj: AdjacencyMatrix, assignment: AssignmentMatrix) -> np.ndarray:
    """Non-differentiable view of the per-class volume terms used in the loss."""
    return (adj.weights.values @ assignment.membership.values).sum(axis=0)


def entropy_report(adj: AdjacencyMatrix, assignment: AssignmentMatrix) -> dict:
    """JSON-ready debug record: graph, assignment, per-class cuts/volumes, loss."""
    return {
        "adjacency": adj.weights.values.tolist(),
        "assignment": assignment.membership.values.tolist(),
        "mode": assignment.mode,
        "cut_weights": class_cut_weights(adj, assignment).tolist(),
        "class_volumes": class_volumes(adj, assignment).tolist(),
        "volume": adj.volume,
        "se_loss": se_loss_matrix(adj, assignment).item(),
    }
