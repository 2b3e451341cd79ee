"""Probabilistic coding with a differentiable encoding-tree entropy regularizer.

Gaussian probabilistic embeddings are trained against a task loss plus a KL
bottleneck term, minus a structural-entropy term computed on the batch's
latent similarity graph.  Regression labels are softened into row-stochastic
class memberships so the same entropy loss applies through a probabilistic
encoding tree.
"""

from .autodiff import DimensionError, NonFiniteError, finite_difference_check
from .coder import (EncoderParams, LossBreakdown,
                    combined_loss, encode, init_params, kl_to_standard_normal,
                    load_checkpoint, reparameterize,
                    save_checkpoint, task_loss, total_loss)
from .datasets import (Dataset, DatasetParseError, gen_blobs, gen_regression,
                       inject_label_noise, load_csv, save_csv,
                       subsample_train)
from .entropy import (AdjacencyMatrix, AssignmentMatrix, AssignmentModeError,
                      DegenerateBatchError, EncodingTree, build_adjacency,
                      entropy_report, hard_assignment,
                      intermediate_layer_entropy, se_loss, se_loss_matrix,
                      structural_entropy_definition, tree_from_assignment)
from .metrics import (accuracy, average_ranks, macro_f1, macro_recall,
                      pearson, per_class_f1, spearman)
from .softbins import (BinSpec, distance_matrix, make_bins, nearest_bin,
                       soft_cuts, soft_volumes, soften)
from .sweep import ExperimentSpec, Perturbation, run_sweep
from .training import (Adam, ClassificationTask, MetricsReport,
                       RegressionTask, TrainConfig, TrainResult,
                       TrainingDiverged, evaluate, predict, train)
from .verify import ALL_CHECKS, CheckResult, run_checks

__version__ = "0.1.0"
