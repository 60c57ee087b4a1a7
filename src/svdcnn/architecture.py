"""Model builders, parameter accounting and reconciliation against a
reference table.

Both network families share the same trunk: an embedding, one standard
kernel-3 convolution to 64 maps, then four levels of convolutional blocks at
64/128/256/512 maps with a halving max-pool before each width doubling, so
channels x length stays constant across levels. They differ in each layer's
convolution (standard vs depthwise-separable) and in the classifier head
(k-max pooling + three dense layers vs average pooling + one dense layer).

Parameter counts come by two independent routes over the same layout constants:
reading a built model's arrays, and one formula per level over ``LEVEL_CHANNELS``
and ``depth_layout``. Reported storage assumes 4 bytes per parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .autograd import ShapeError, Tensor, _check_int
from .data import Vocabulary
from .functional import DegenerateStatisticsError, maxpool_halve
from .layers import (
    KERNEL_SIZE,
    AvgPoolLinearHead,
    ConvBlock,
    ConvLayer,
    EmbeddingTable,
    KmaxLinearHead,
    Module,
    TdscLayer,
    TemporalConvLayer,
)

FAMILIES = ("vdcnn", "svdcnn")
LEVEL_CHANNELS = (64, 128, 256, 512)
FIRST_CONV_CHANNELS = 64
BYTES_PER_PARAM = 4

# Initial scale of the stem's normalization. Blocks start as identity maps,
# so this sets the magnitude of the features reaching the classifier; it must
# be small enough that momentum SGD at the default learning rate stays inside
# the stability region of the classifier's quadratic curvature.
STEM_BN_SCALE = 0.1

# Convolutional layers per level, ordered (64, 128, 256, 512). Each block
# holds two layers, so every entry is even; the first standard convolution
# adds one more layer of depth.
_LAYER_LAYOUT = {
    9: (2, 2, 2, 2),
    17: (4, 4, 4, 4),
    29: (10, 10, 4, 4),
    49: (16, 16, 10, 6),
}


def _check_int_fields(instance) -> None:
    """Raise ``ValueError`` naming the first field annotated ``int`` whose value is not an integer (a bool is not)."""
    for f in fields(instance):
        if f.type in ("int", int):
            _check_int(f.name, getattr(instance, f.name))


def depth_layout(depth: int) -> tuple[int, int, int, int]:
    """Convolutional layers per level for a supported depth."""
    try:
        return _LAYER_LAYOUT[depth]
    except KeyError:
        raise ValueError(f"unsupported depth {depth}; valid depths are {sorted(_LAYER_LAYOUT)}") from None


@dataclass(frozen=True)
class ArchitectureSpec:
    """Declarative description of one network.

    A checkpoint header stores the fields in declaration order; a CLI flag not given keeps its field's default.
    """

    family: str = "svdcnn"
    depth: int = 9
    seq_len: int = 1024
    embed_dim: int = 16
    vocab_size: int = Vocabulary.size
    n_classes: int = 4
    fc_hidden: int = 2048
    pooled_len: int = 8

    def __post_init__(self):
        _check_int_fields(self)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose one of {FAMILIES}")
        depth_layout(self.depth)
        if self.embed_dim < 1:
            raise ValueError(f"embedding dimension must be positive, got {self.embed_dim}")
        if self.vocab_size < 1:
            raise ValueError(f"vocabulary size must be positive, got {self.vocab_size}")
        if self.n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.n_classes}")
        if self.fc_hidden < 1:
            raise ValueError(f"hidden width must be positive, got {self.fc_hidden}")
        if self.pooled_len < 1:
            raise ValueError(f"pooled length must be positive, got {self.pooled_len}")
        if self.seq_len < 8 or self.seq_len % 8 != 0:
            raise ValueError(f"sequence length must be a positive multiple of 8, got {self.seq_len}")
        if self.final_len % self.pooled_len != 0:
            raise ValueError(
                f"final temporal length {self.final_len} is not divisible by pooled length {self.pooled_len}"
            )

    @property
    def final_len(self) -> int:
        """Temporal length after the three halving pools."""
        return self.seq_len // 8

    @property
    def flat_features(self) -> int:
        return LEVEL_CHANNELS[-1] * self.pooled_len


class Model(Module):
    """A built network: embedding, trunk of blocks with pools, classifier.

    Parameters and buffers are named by the module walk. Each block is
    stored under its walk name ``level{i}.block{b}`` and, in order, in
    ``levels``, which ``forward`` reads. With ``seed=None`` the
    weights start at zero with no random draw, for a caller that loads
    every value next (see ``load_checkpoint``).
    """

    checkpoint_epoch = 0  # the epoch its weights come from: set by train and load_checkpoint, saved by save_checkpoint

    def __init__(self, spec: ArchitectureSpec, seed: int | None = 0):
        rng = None
        if seed is not None:
            _check_int("seed", seed)
            if seed < 0:
                raise ValueError(f"seed must be non-negative, got {seed}")
            rng = np.random.default_rng(seed)
        self.spec = spec
        self.embedding = EmbeddingTable(spec.vocab_size, spec.embed_dim, rng)
        self.first_conv = TemporalConvLayer(spec.embed_dim, FIRST_CONV_CHANNELS, rng, bn_scale_init=STEM_BN_SCALE)
        layer_cls = TemporalConvLayer if spec.family == "vdcnn" else TdscLayer
        self.levels: list[list[ConvBlock]] = []
        in_ch = FIRST_CONV_CHANNELS
        for i, (channels, n_layers) in enumerate(zip(LEVEL_CHANNELS, depth_layout(spec.depth))):
            blocks = []
            for b in range(n_layers // 2):
                blocks.append(ConvBlock(layer_cls, in_ch if b == 0 else channels, channels, rng))
                setattr(self, f"level{i}.block{b}", blocks[-1])
            self.levels.append(blocks)
            in_ch = channels
        if spec.family == "vdcnn":
            self.head = KmaxLinearHead(LEVEL_CHANNELS[-1], spec.pooled_len, spec.fc_hidden, spec.n_classes, rng)
        else:
            self.head = AvgPoolLinearHead(LEVEL_CHANNELS[-1], spec.pooled_len, spec.n_classes)

    def forward(self, indices) -> Tensor:
        """Logits for a batch of index sequences ``[B, seq_len]``."""
        idx = np.asarray(indices)
        if idx.ndim != 2:
            raise ShapeError(f"expected a [batch, seq_len] index array, got shape {idx.shape}")
        if idx.shape[1] != self.spec.seq_len:
            raise ShapeError(f"expected sequences of length {self.spec.seq_len}, got {idx.shape[1]}")
        if self.mode == "train" and idx.shape[0] < 2:
            raise DegenerateStatisticsError(
                f"training-mode forward needs a batch of at least 2, got {idx.shape[0]}"
            )
        x = self.embedding.forward(idx)
        x = self.first_conv.forward(x)
        for i, blocks in enumerate(self.levels):
            for block in blocks:
                x = block.forward(x)
            if i < len(self.levels) - 1:
                x = maxpool_halve(x)
        return self.head.forward(x)

    def conv_depth(self) -> int:
        """Network depth: the first convolution plus one per block layer."""
        return sum(isinstance(m, ConvLayer) for m in self.modules())

    def parameters(self) -> list[Tensor]:
        return [t for _n, t, _c in self.named_params()]


def storage_size(count: int) -> float:
    """Storage in binary megabytes of ``count`` parameters at 4 bytes each."""
    if count < 0:
        raise ValueError(f"parameter count must be non-negative, got {count}")
    return count * BYTES_PER_PARAM / (1024 ** 2)


def round2(x: float) -> float:
    """Round half-up to 2 decimals, as used in reported tables."""
    return float(Decimal(repr(float(x))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def millions(count: int) -> float:
    return round2(count / 1e6)


@dataclass(frozen=True)
class ParamReport:
    """Learned-parameter counts by category; running stats are excluded."""

    embedding: int
    conv: int
    batchnorm: int
    fc: int

    @property
    def total(self) -> int:
        return self.embedding + self.conv + self.batchnorm + self.fc

    @property
    def storage_mb(self) -> float:
        return storage_size(self.total)


def count_params(model: Model) -> ParamReport:
    """Parameter counts by direct enumeration of every weight array."""
    totals = {"embedding": 0, "conv": 0, "batchnorm": 0, "fc": 0}
    for _name, tensor, category in model.named_params():
        totals[category] += tensor.data.size
    return ParamReport(**totals)


def standard_layer_weights(in_ch: int, out_ch: int) -> int:
    """Weight count of one standard temporal convolution."""
    return in_ch * out_ch * KERNEL_SIZE


def tdsc_layer_weights(in_ch: int, out_ch: int) -> int:
    """Weight count of one depthwise-separable temporal convolution."""
    return in_ch * KERNEL_SIZE + in_ch * out_ch


def standard_block_weights(in_ch: int, out_ch: int) -> int:
    """Weight count of a standard two-layer block (shortcut excluded)."""
    return standard_layer_weights(in_ch, out_ch) + standard_layer_weights(out_ch, out_ch)


def tdsc_block_weights(in_ch: int, out_ch: int) -> int:
    """Weight count of a depthwise-separable two-layer block (shortcut excluded)."""
    return tdsc_layer_weights(in_ch, out_ch) + tdsc_layer_weights(out_ch, out_ch)


def _dense_widths(spec: ArchitectureSpec) -> tuple[int, ...]:
    """Widths of the classifier's dense layers, from the flattened features to the class scores."""
    if spec.family == "vdcnn":
        return spec.flat_features, spec.fc_hidden, spec.fc_hidden, spec.n_classes
    return spec.flat_features, spec.n_classes


def head_weight_params(spec: ArchitectureSpec) -> int:
    """Classifier weight count, biases excluded."""
    widths = _dense_widths(spec)
    return sum(a * b for a, b in zip(widths, widths[1:]))


def closed_form_params(spec: ArchitectureSpec) -> ParamReport:
    """Parameter counts from one formula per level, without building."""
    block_weights = standard_block_weights if spec.family == "vdcnn" else tdsc_block_weights
    conv = standard_layer_weights(spec.embed_dim, FIRST_CONV_CHANNELS)
    batchnorm = 2 * FIRST_CONV_CHANNELS
    for src, dst, n in zip((FIRST_CONV_CHANNELS,) + LEVEL_CHANNELS, LEVEL_CHANNELS, depth_layout(spec.depth)):
        conv += block_weights(src, dst) + (n // 2 - 1) * block_weights(dst, dst)
        if src != dst:
            conv += src * dst  # 1x1 projection shortcut
        batchnorm += 2 * n * dst  # gamma+beta for each of the level's layers
    return ParamReport(embedding=spec.vocab_size * spec.embed_dim, conv=conv, batchnorm=batchnorm,
                       fc=head_weight_params(spec) + sum(_dense_widths(spec)[1:]))  # weights + one bias per unit


@dataclass(frozen=True)
class GoldenRow:
    """One reference row: parameter counts in millions and storage in MB."""

    family: str
    depth: int
    conv_m: float
    fc_m: float
    total_m: float
    storage_mb: float

    def __post_init__(self):
        values = (self.conv_m, self.fc_m, self.total_m, self.storage_mb)
        if not all(math.isfinite(v) and v >= 0 for v in values):
            raise ValueError(f"counts must be finite and non-negative, got {' '.join(map(str, values))}")

    @property
    def self_consistent(self) -> bool:
        """Whether 4 bytes/param on the row's own total reproduces its storage column within 0.02 MB."""
        return abs(storage_size(int(round(self.total_m * 1e6))) - self.storage_mb) <= 0.02


# The paper's reference rows: parameter counts in millions and storage in MB by family and depth.
GOLDEN_ROWS = (
    GoldenRow("svdcnn", 9, 0.71, 0.02, 0.73, 2.80),
    GoldenRow("svdcnn", 17, 1.43, 0.02, 1.45, 5.52),
    GoldenRow("svdcnn", 29, 1.56, 0.02, 1.58, 6.03),
    GoldenRow("vdcnn", 9, 2.20, 12.59, 14.79, 54.75),
    GoldenRow("vdcnn", 17, 4.40, 12.59, 16.99, 62.74),
    GoldenRow("vdcnn", 29, 4.60, 12.59, 17.19, 64.16),
)

# Categories whose reference values are known not to match direct
# enumeration; differences there are reported as flags, not failures.
FLAGGED_CATEGORIES = {"vdcnn": frozenset({"conv"}), "svdcnn": frozenset()}


def load_golden_table() -> dict[tuple[str, int], GoldenRow]:
    """The reference rows of :data:`GOLDEN_ROWS`, keyed by ``(family, depth)``."""
    return {(row.family, row.depth): row for row in GOLDEN_ROWS}


# A category passes when it is within this relative difference of the reference (±5%).
TOLERANCE = 0.05


@dataclass(frozen=True)
class CategoryDiff:
    category: str
    ours: float
    reference: float
    rel_diff: float
    verdict: str  # "pass" | "flag" | "fail"


@dataclass(frozen=True)
class RowDiff:
    categories: tuple[CategoryDiff, ...]

    @property
    def failed(self) -> bool:
        return any(c.verdict == "fail" for c in self.categories)

    @property
    def flagged(self) -> tuple[CategoryDiff, ...]:
        return tuple(c for c in self.categories if c.verdict == "flag")


def reconcile(report: ParamReport, reference: GoldenRow) -> RowDiff:
    """Relative differences per category with a pass/flag/fail verdict each.

    Our counts are first rounded to the reference table's 2-decimal format so
    the comparison is not dominated by the table's own quantization.
    Categories listed in :data:`FLAGGED_CATEGORIES` for the row's family are
    flagged instead of failed when outside :data:`TOLERANCE`, and never silently pass.
    """
    flags = FLAGGED_CATEGORIES.get(reference.family, frozenset())
    pairs = [
        ("conv", millions(report.conv), reference.conv_m),
        ("fc", millions(report.fc), reference.fc_m),
        ("total", millions(report.total), reference.total_m),
        ("storage", round2(report.storage_mb), reference.storage_mb),
    ]
    diffs = []
    for name, ours, ref in pairs:
        if ref > 0:
            rel = abs(ours - ref) / ref
        else:
            rel = 0.0 if ours == 0 else float("inf")
        if rel <= TOLERANCE:
            verdict = "pass"
        elif name in flags:
            verdict = "flag"
        else:
            verdict = "fail"
        diffs.append(CategoryDiff(name, ours, ref, rel, verdict))
    return RowDiff(tuple(diffs))
