"""Branched residual networks on a small numpy autodiff core.

A shared low-level trunk feeds several independently parameterized upper
branches whose softmax outputs are ensembled at inference. Training uses
label smoothing, SGD with momentum and a step schedule, and a seeded
image-augmentation pipeline (crop, flip, color jitter, PCA color noise,
normalization).
"""

from .augment import (AugmentConfig, PcaBasis, augment_batch, epoch_shuffle,
                      fit_augment_statistics, fit_pca_basis)
from .data import (Dataset, SyntheticSpec, generate_synthetic, load_checkpoint,
                   load_cifar10_binary, read_ppm, save_checkpoint, write_ppm)
from .evaluation import (EvalReport, ensemble_probs, evaluate,
                         relative_improvement, top_k_error)
from .gradcheck import FiniteDiffReport, finite_diff_check
from .model import (BranchedNetConfig, BranchedNetwork, NetworkReport,
                    build_branched_net, mini_config, network_report,
                    paper_scale_config)
from .tensor import (NonFiniteError, ShapeError, Tape, TapeError, Tensor,
                     batch_norm2d, conv2d, global_avg_pool, linear, pool2d, relu,
                     residual_add, reverse_pass, softmax, sum_all, weighted_sum)
from .training import (Checkpoint, OptimizerState, TrainConfig, TrainHistory,
                       TrainingDivergedError, combined_branch_loss,
                       history_csv, lr_at_epoch, restore_network,
                       sgd_momentum_step, smooth_label_matrix, smooth_labels,
                       train)

__version__ = "0.1.0"

__all__ = [
    "AugmentConfig", "PcaBasis", "augment_batch", "epoch_shuffle",
    "fit_augment_statistics", "fit_pca_basis",
    "Dataset", "SyntheticSpec", "generate_synthetic", "load_checkpoint",
    "load_cifar10_binary", "read_ppm", "save_checkpoint", "write_ppm",
    "EvalReport", "ensemble_probs", "evaluate", "relative_improvement",
    "top_k_error",
    "FiniteDiffReport", "finite_diff_check",
    "BranchedNetConfig", "BranchedNetwork", "NetworkReport",
    "build_branched_net", "mini_config", "network_report", "paper_scale_config",
    "NonFiniteError", "ShapeError", "Tape", "TapeError", "Tensor", "batch_norm2d",
    "conv2d", "global_avg_pool", "linear", "pool2d", "relu", "residual_add",
    "reverse_pass", "softmax", "sum_all", "weighted_sum",
    "Checkpoint", "OptimizerState", "TrainConfig", "TrainHistory",
    "TrainingDivergedError", "combined_branch_loss", "history_csv",
    "lr_at_epoch", "restore_network", "sgd_momentum_step",
    "smooth_label_matrix", "smooth_labels", "train",
]
