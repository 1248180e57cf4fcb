"""Micro CNN library for probing convolution:ReLU ratios.

Builds plain, residual (pre-activation building and bottleneck), and
merge-and-run networks whose blocks carry an explicit ReLU placement mask,
trains them with Nesterov SGD, and ships the structural and numerical
oracles (naive-conv reference, finite-difference gradient check, FLOPs and
ratio audit, linear-collapse composition) that certify each claim about
the variants.
"""

from .audit import CollapseReport, RatioReport, audit, collapse_check, compose_kernels
from .autograd import GradcheckResult, Node, ParamStore, Tape, gradcheck, seeded_rng
from .blocks import (BlockSpec, LinearModuleError, build_merge_run, build_plain_module,
                     build_postact_building, build_preact_bottleneck,
                     build_preact_building, make_block)
from .checkpoint import (CheckpointError, load_tensors, load_training_state,
                         save_tensors, save_training_state)
from .data import (DataError, DatasetHandle, augment_image, hflip, iter_batches,
                   load_cifar, make_batch, make_synthetic, pad_crop)
from .layers import (BatchNorm2d, BatchNormState, Conv2d, Linear,
                     softmax_cross_entropy)
from .networks import (DepthError, Model, NetworkConfig, build_network,
                       format_manifest, parse_manifest, summarize)
from .tensor import PrecisionError, ShapeError, Tensor
from .train import (NumericalFailure, RunRecord, SGD, TrainConfig, aggregate_runs,
                    evaluate, fit, nesterov_step)

__version__ = "0.1.0"
