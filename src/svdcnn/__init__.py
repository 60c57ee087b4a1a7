"""Character-level CNN text classifiers on a small numpy autodiff core.

Two families are provided: a very deep standard-convolution network with a
k-max-pooled three-layer classifier, and a compact variant that swaps the
blocks for depthwise-separable convolutions and the classifier for global
average pooling. The package also ships exact parameter/storage accounting,
a training loop, and a latency benchmark harness.
"""

from .architecture import (
    ArchitectureSpec,
    GoldenRow,
    Model,
    ParamReport,
    closed_form_params,
    count_params,
    depth_layout,
    head_weight_params,
    load_golden_table,
    millions,
    reconcile,
    round2,
    standard_block_weights,
    standard_layer_weights,
    storage_size,
    tdsc_block_weights,
    tdsc_layer_weights,
)
from .autograd import (
    DEFAULT_DTYPE,
    NonFiniteError,
    ShapeError,
    StateError,
    Tape,
    TapeConsumedError,
    Tensor,
    backward,
    grad_check,
)
from .bench import LatencyStats, measure_latency
from .data import (
    ALPHABET,
    Dataset,
    IngestionError,
    IngestionWarning,
    Vocabulary,
    load_csv,
    make_batches,
    quantize,
    split_dataset,
    synth_dataset,
)
from .functional import (
    DegenerateStatisticsError,
    adaptive_avg_pool,
    add,
    affine,
    conv1d,
    cross_entropy,
    depthwise_conv1d,
    embedding,
    kmax_pool,
    maxpool_halve,
    relu,
)
from .training import (
    SGD,
    CheckpointError,
    EpochStats,
    TrainConfig,
    TrainingDivergedError,
    evaluate,
    load_checkpoint,
    predict_logits,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
