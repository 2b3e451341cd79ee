"""Probabilistic coding with a differentiable encoding-tree entropy regularizer.

Gaussian probabilistic embeddings are trained against a task loss plus a KL
bottleneck term, minus a structural-entropy term computed on the batch's
latent similarity graph.  Regression labels are softened into row-stochastic
class memberships so the same entropy loss applies through a probabilistic
encoding tree.

Importing the package loads none of its modules: each name lives in its own.
It pins BLAS to one thread unless the environment already sets a count: with
more, OpenBLAS may split a product differently, and a run's bytes would depend
on the machine.  A caller that imported numpy first keeps numpy's threads.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
