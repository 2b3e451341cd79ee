"""The training step as the autodiff tape (``tape.Tensor``) builds it: the
reference for the closed-form step in ``bottletree.coder``.

Every head here is the fused tape node that training used before the step
became closed form: the encoder's matmul, bias row, activation, ``cols`` and
``clamp`` nodes, then one node each for the KL term, the reparameterized
sample, the task loss, the structural entropy (over ``entropy._se_stack``)
and the weighted total.  ``tape_step`` runs that graph and one ``backward``
from the summed loss, so its gradient carries the tape's accumulation order;
the tests pin ``combined_loss`` to it bit for bit.  ``tape_check`` runs the
flat-array ``finite_difference_check`` on a function of tape parameters.
``constant`` and ``parameter`` make the tape's leaves: the package itself
records no tape.
"""

from __future__ import annotations

import numpy as np
from tape import Tensor

from bottletree.autodiff import LOG_EPS, finite_difference_check, softmax_values
from bottletree.coder import LOGVAR_MAX, LOGVAR_MIN
from bottletree.entropy import _check_embeddings, _se_stack


def constant(values):
    return Tensor(values, requires_grad=False)


def parameter(values):
    return Tensor(values, requires_grad=True)


def tape_params(params):
    """(weights, biases) of ``params`` as tape parameters viewing its ``flat``."""
    return ([parameter(w) for w in params.weights], [parameter(b) for b in params.biases])


def encode(weights, biases, activation, inputs):
    h = constant(inputs)
    last = len(weights) - 1
    for layer, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w + b
        if layer < last:
            h = h.relu() if activation == "relu" else h.sigmoid()
    latent = h.shape[-1] // 2
    return h.cols(0, latent), h.cols(latent, 2 * latent).clamp(LOGVAR_MIN, LOGVAR_MAX)


def reparameterize(mu, logvar, eps):
    std = np.exp(logvar.values * 0.5)
    return Tensor._from_op(mu.values + std * eps,
                           [(mu, lambda g: g), (logvar, lambda g: g * eps * std * 0.5)])


def kl_to_standard_normal(mu, logvar):
    m, lv = mu.values, logvar.values
    var = np.exp(lv)
    per_sample = ((m * m + var - 1.0 - lv) * 0.5).sum(axis=-1)
    n = m.shape[-2]
    return Tensor._from_op(np.asarray(per_sample.sum(axis=-1) / n),
                           [(mu, lambda g: m * (g[..., None, None] / n)),
                            (logvar, lambda g: (var - 1.0) * (g[..., None, None] / (2 * n)))])


def task_loss(z, targets, kind):
    t = np.asarray(targets)
    n = t.shape[-1]
    if kind == "regression":
        d = z.values[..., 0] - t
        return Tensor._from_op((d * d).mean(axis=-1),
                               [(z, lambda g: (2 * (np.expand_dims(g / n, -1) * d))[..., None])])
    probs = softmax_values(z.values, -1)
    onehot = np.eye(z.shape[-1])[t.astype(np.int64)]
    true_prob = (probs * onehot).sum(axis=-1)
    loss = -np.asarray(np.log(np.maximum(true_prob, LOG_EPS)).sum(axis=-1) / n)
    return Tensor._from_op(loss, [(z, lambda g: (probs - onehot) * (
        (true_prob >= LOG_EPS) * (g[..., None] / n))[..., None])])


def se_loss(embeddings, assignment):
    h = embeddings.values
    _check_embeddings(h)
    c = assignment
    loss, back = _se_stack(h.reshape((-1,) + h.shape[-2:]), c.reshape((-1,) + c.shape[-2:]),
                           embeddings.requires_grad)

    def grad_fn(g):
        return back(np.reshape(g, -1)).reshape(h.shape)

    return Tensor._from_op(loss.reshape(h.shape[:-2]), [(embeddings, grad_fn)])


def _average(terms):
    total = sum(terms[1:], terms[0])  # ((t0 + t1) + t2) + ...
    return total * (1.0 / len(terms)) if len(terms) > 1 else total


def tape_terms(params, inputs, assignment, targets, *, kind, beta, gamma, noise,
               use_mu_for_graph=False):
    """(weights, biases, {task, kl, se, total}) of the tape graph of one step."""
    weights, biases = tape_params(params)
    mu, logvar = encode(weights, biases, params.activation, inputs)
    kl = kl_to_standard_normal(mu, logvar)
    task_terms, se_terms = [], []
    for eps in np.asarray(noise, dtype=np.float64):
        z = reparameterize(mu, logvar, eps)
        task_terms.append(task_loss(z, targets, kind))
        se_terms.append(se_loss(mu if use_mu_for_graph else z, assignment))
    task, se = _average(task_terms), _average(se_terms)
    beta, gamma = float(beta), float(gamma)
    total = Tensor._from_op(task.values + beta * kl.values - gamma * se.values,
                            [(task, lambda g: g), (kl, lambda g: g * beta),
                             (se, lambda g: -g * gamma)])
    return weights, biases, {"task": task, "kl": kl, "se": se, "total": total}


def tape_step(params, *args, **kwargs):
    """({task, kl, se, total} arrays, flat gradient) of one step on the tape.

    A stack's (S,) total is summed into the root, as training summed it.
    """
    weights, biases, terms = tape_terms(params, *args, **kwargs)
    total = terms["total"]
    (total.sum() if total.shape else total).backward()
    stack = params.flat.shape[:-1]
    grad = np.concatenate([t.grad.reshape(*stack, -1)
                           for layer in zip(weights, biases) for t in layer], axis=-1)
    return {k: t.values for k, t in terms.items()}, grad


def tape_check(build, tensors, h=1e-5):
    """``finite_difference_check`` of ``build(list of tape parameters)``, a scalar Tensor."""
    shapes = [t.shape for t in tensors]
    ends = np.cumsum([t.size for t in tensors])[:-1]

    def f(flat):
        params = [parameter(part.reshape(shape))
                  for part, shape in zip(np.split(flat, ends), shapes)]
        loss = build(params)
        loss.backward()  # a constant loss leaves every grad None
        return loss.item(), np.concatenate([
            (np.zeros(p.shape) if p.grad is None else p.grad).reshape(-1) for p in params])

    return finite_difference_check(f, np.concatenate([t.values.reshape(-1) for t in tensors]), h)
