"""Probabilistic coding with a differentiable encoding-tree entropy regularizer.

Gaussian probabilistic embeddings are trained against a task loss plus a KL
bottleneck term, minus a structural-entropy term computed on the batch's
latent similarity graph.  Regression labels are softened into row-stochastic
class memberships so the same entropy loss applies through a probabilistic
encoding tree.

Importing the package pins BLAS to one thread unless the environment already
sets a count: with more, OpenBLAS may split a product differently, and a
run's bytes would depend on the machine.  It must happen before numpy loads,
so a caller that imported numpy first keeps numpy's threads.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .autodiff import DimensionError, NonFiniteError, finite_difference_check  # noqa: E402
from .coder import (EncoderParams, LossBreakdown,  # noqa: E402
                    combined_loss, encode, init_params, kl_to_standard_normal,
                    load_checkpoint, reparameterize,
                    save_checkpoint, task_loss, total_loss)
from .datasets import (Dataset, DatasetParseError, gen_blobs, gen_regression,  # noqa: E402
                       inject_label_noise, load_csv, save_csv,
                       subsample_train)
from .entropy import (DegenerateBatchError, EncodingTree,  # noqa: E402
                      build_adjacency, check_graph, check_membership,
                      hard_assignment, intermediate_layer_entropy, se_loss, se_loss_matrix,
                      structural_entropy_definition, tree_from_assignment)
from .metrics import average_ranks, macro_f1, pearson, spearman  # noqa: E402
from .softbins import (BinSpec, distance_matrix, make_bins, nearest_bin,  # noqa: E402
                       soft_cuts, soft_volumes, soften)
from .sweep import ExperimentSpec, Perturbation, run_sweep  # noqa: E402
from .training import (Adam, ClassificationTask, MetricsReport,  # noqa: E402
                       RegressionTask, TrainConfig, TrainResult,
                       TrainingDiverged, config_for, evaluate, predict, train)
from .verify import ALL_CHECKS, CheckResult, run_checks  # noqa: E402

__version__ = "0.1.0"
