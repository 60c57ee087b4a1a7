"""The package's public names: adding or removing one is a deliberate edit here."""

import types

import svdcnn

PUBLIC_NAMES = {
    # architecture
    "ArchitectureSpec", "GoldenRow", "Model", "ParamReport", "closed_form_params", "count_params", "depth_layout",
    "head_weight_params", "load_golden_table", "millions", "reconcile", "round2", "standard_block_weights",
    "standard_layer_weights", "storage_size", "tdsc_block_weights", "tdsc_layer_weights",
    # autograd
    "DEFAULT_DTYPE", "NonFiniteError", "ShapeError", "StateError", "Tape", "TapeConsumedError", "Tensor", "backward",
    "grad_check",
    # bench
    "LatencyStats", "measure_latency",
    # data
    "ALPHABET", "Dataset", "IngestionError", "IngestionWarning", "Vocabulary", "load_csv", "make_batches", "quantize",
    "split_dataset", "synth_dataset",
    # functional
    "DegenerateStatisticsError", "adaptive_avg_pool", "add", "affine", "conv1d", "cross_entropy", "depthwise_conv1d",
    "embedding", "kmax_pool", "maxpool_halve", "relu",
    # training
    "SGD", "CheckpointError", "EpochStats", "TrainConfig", "TrainingDivergedError", "evaluate", "load_checkpoint",
    "predict_logits", "save_checkpoint", "train",
}


def test_public_names_are_exactly_the_pinned_set():
    names = {name for name, value in vars(svdcnn).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC_NAMES
