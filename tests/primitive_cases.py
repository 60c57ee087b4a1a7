"""One case per variant of each primitive in ``svdcnn.functional``, the table every per-primitive test reads.

A case is keyed by the function's name, with ``-variant`` for a second case of the same function. It holds the
tape-entry name the function records, a call of the function on the input tensors, a seeded draw for each
input, and the positions of the inputs whose arrays the recorded backward reads (and so keeps alive) when every
input needs a gradient. A case of an op whose backward keeps masks also holds the bytes the recorded call makes
and keeps, from its input's shape. A case whose first input is 3-D is a ``[B, C, L]`` op. A new public function
needs one case here: ``test_numeric.py::test_cases_cover_every_primitive`` fails without it. ``ERROR_CASES``
holds, keyed the same way, calls on operands of a wrong shape, count or index type and the error each raises.
"""

import math
import zlib
from typing import Callable, NamedTuple, Optional

import numpy as np

from svdcnn import functional as F
from svdcnn.autograd import ShapeError, Tensor, grad_check

from taped_ops import mul, tensor_sum


def normal(*shape):
    return lambda rng: rng.normal(size=shape)


def distinct(*shape):
    """Well-separated values, so finite differences stay off pooling ties."""
    return lambda rng: rng.permutation(np.linspace(0.2, 3.0, math.prod(shape))).reshape(shape)


def off_kink(*shape):
    """Values at least 0.1 away from ReLU's kink."""
    return lambda rng: rng.uniform(0.1, 1.0, shape) * rng.choice([-1.0, 1.0], shape)


def scale(*shape):
    """Batch-norm scales in [0.5, 1.5]."""
    return lambda rng: rng.uniform(0.5, 1.5, shape)


def packed(n):
    """Bytes of a mask of n elements at one bit per element."""
    return -(-n // 8)


def batch_norm_kept(batch, channels, length):
    """A batch norm's ``out > 0`` mask at one bit per element, plus its two per-channel float64 vectors: the
    shift and ``1 / sqrt(var + eps)``, from which the backward recomputes the normalized input."""
    return packed(batch * channels * length) + 2 * channels * 8


def maxpool_kept(batch, channels, length):
    """``maxpool_halve``'s winner masks at one bit per window: first and middle entry over every window, last
    entry over the windows that have one."""
    return 2 * packed(batch * channels * ((length + 1) // 2)) + packed(batch * channels * (length // 2))


class Case(NamedTuple):
    op: str  # the tape-entry name
    call: Callable  # the primitive's output from the input tensors
    inputs: tuple  # per input tensor, its seeded draw: rng -> a float64 array
    reads: tuple  # positions of the inputs whose arrays the backward reads
    kept: Optional[Callable] = None  # mask ops: (B, C, L) of the input -> bytes the recorded call makes and keeps


CASES = {
    # the weight itself: the backward copies a k=3 weight into tap order; a k=1 weight is a view of itself
    "conv1d": Case("conv1d", lambda x, w, b: F.conv1d(x, w, b, padding=1),
                   (normal(2, 3, 6), normal(4, 3, 3), normal(4)), (0, 1)),
    "conv1d-no-bias": Case("conv1d", lambda x, w: F.conv1d(x, w, padding=1), (normal(2, 3, 5), normal(4, 3, 3)),
                           (0, 1)),
    "conv1d-k1": Case("conv1d", F.conv1d, (normal(2, 3, 5), normal(4, 3, 1), normal(4)), (0, 1)),
    "depthwise_conv1d": Case("depthwise_conv1d", lambda x, w: F.depthwise_conv1d(x, w, padding=1),
                             (normal(2, 3, 5), normal(3, 3)), (0, 1)),
    "depthwise_conv1d-k5": Case("depthwise_conv1d", lambda x, w: F.depthwise_conv1d(x, w, padding=2),
                                (normal(2, 3, 6), normal(3, 5)), (0, 1)),
    # more input rows than weight rows: x @ w.T as written; fewer: the weight on the left
    "affine": Case("affine", F.affine, (normal(4, 5), normal(3, 5), normal(3)), (0, 1)),
    "affine-wide": Case("affine", F.affine, (normal(2, 5), normal(3, 5), normal(3)), (0, 1)),
    "relu": Case("relu", F.relu, (off_kink(3, 4),), (0,)),
    "add": Case("add", F.add, (normal(3, 4), normal(3, 4)), ()),
    # the pools keep window winners, kept time steps or nothing: never the input
    "maxpool_halve": Case("maxpool_halve", F.maxpool_halve, (distinct(1, 3, 8),), (), maxpool_kept),
    "maxpool_halve-odd": Case("maxpool_halve", F.maxpool_halve, (distinct(2, 3, 7),), (), maxpool_kept),
    # masks of 60, 60 and 45 windows, none a whole number of bytes
    "maxpool_halve-3x5x7": Case("maxpool_halve", F.maxpool_halve, (distinct(3, 5, 7),), (), maxpool_kept),
    "kmax_pool": Case("kmax_pool", lambda x: F.kmax_pool(x, 3), (distinct(2, 3, 8),), ()),
    "adaptive_avg_pool": Case("adaptive_avg_pool", lambda x: F.adaptive_avg_pool(x, 2), (normal(2, 3, 8),), ()),
    "flatten_features": Case("flatten", F.flatten_features, (normal(2, 3, 4),), ()),
    "embedding": Case("embedding", lambda table: F.embedding(np.array([[0, 2, 1, 2]]), table), (normal(4, 3),), ()),
    # the input, to recompute the normalized input, and gamma; the output only as a bit-packed `out > 0` mask
    "batch_norm_train": Case("batch_norm_train", lambda x, g, b: F.batch_norm_train(x, g, b, 1e-5)[0],
                             (normal(2, 3, 4), scale(3), normal(3)), (0, 1), batch_norm_kept),
    "batch_norm_train-3x5x7": Case("batch_norm_train", lambda x, g, b: F.batch_norm_train(x, g, b, 1e-5)[0],
                                   (normal(3, 5, 7), scale(5), normal(5)), (0, 1), batch_norm_kept),
    # running statistics in the input's dtype, so a float32 input keeps a float32 output
    "batch_norm_eval": Case("batch_norm_eval", lambda x, g, b: F.batch_norm_eval(
        x, g, b, np.zeros(3, x.data.dtype), np.ones(3, x.data.dtype), 1e-5), (normal(2, 3, 4), scale(3), normal(3)),
        (0, 1), batch_norm_kept),
    "batch_norm_eval-3x5x7": Case("batch_norm_eval", lambda x, g, b: F.batch_norm_eval(
        x, g, b, np.zeros(5, x.data.dtype), np.ones(5, x.data.dtype), 1e-5), (normal(3, 5, 7), scale(5), normal(5)),
        (0, 1), batch_norm_kept),
    "cross_entropy": Case("cross_entropy", lambda z: F.cross_entropy(z, np.array([1, 0, 2])), (normal(3, 4),), ()),
}


class ErrorCase(NamedTuple):
    call: Callable  # the primitive on the input tensors, which raises
    shapes: tuple  # per input tensor, its shape (zeros)
    error: type
    message: str  # the whole message


# A primitive's checks of its operands' shapes, counts and index types, keyed like CASES. The rank errors of the
# temporal inputs and the per-channel shape errors of the batch norms have suites of their own.
ERROR_CASES = {
    "conv1d-weight-rank": ErrorCase(lambda x, w: F.conv1d(x, w, padding=1), ((2, 3, 6), (4, 3)), ShapeError,
                                    "conv1d weight must be [C_out, C_in, K], got shape (4, 3)"),
    "conv1d-bias-shape": ErrorCase(lambda x, w, b: F.conv1d(x, w, b, padding=1), ((2, 3, 6), (4, 3, 3), (3,)),
                                   ShapeError, "bias shape (3,) does not match 4 output channels"),
    "depthwise_conv1d-weight-rank": ErrorCase(lambda x, w: F.depthwise_conv1d(x, w, padding=1),
                                              ((2, 3, 5), (3, 3, 1)), ShapeError,
                                              "depthwise weight must be [C, K], got shape (3, 3, 1)"),
    "affine-weight-rank": ErrorCase(F.affine, ((4, 5), (3, 5, 1), (3,)), ShapeError,
                                    "affine weight must be [M, N], got shape (3, 5, 1)"),
    "affine-bias-shape": ErrorCase(F.affine, ((4, 5), (3, 5), (4,)), ShapeError,
                                   "bias shape (4,) does not match 3 outputs"),
    "add-shapes": ErrorCase(F.add, ((3, 4), (4, 3)), ShapeError, "cannot add shapes (3, 4) and (4, 3)"),
    "kmax_pool-k": ErrorCase(lambda x: F.kmax_pool(x, 0), ((2, 3, 8),), ValueError, "k must be positive, got 0"),
    "adaptive_avg_pool-length": ErrorCase(lambda x: F.adaptive_avg_pool(x, 0), ((2, 3, 8),), ValueError,
                                          "output length must be positive, got 0"),
    "adaptive_avg_pool-empty": ErrorCase(lambda x: F.adaptive_avg_pool(x, 2), ((2, 3, 0),), ValueError,
                                         "temporal length must be positive to pool, got 0"),
    "cross_entropy-rank": ErrorCase(lambda z: F.cross_entropy(z, np.array([1, 0, 2])), ((3, 4, 1),), ShapeError,
                                    "logits must be [batch, classes], got shape (3, 4, 1)"),
    "cross_entropy-labels": ErrorCase(lambda z: F.cross_entropy(z, np.array([1, 0])), ((3, 4),), ShapeError,
                                      "labels shape (2,) does not match batch size 3"),
    "cross_entropy-empty": ErrorCase(lambda z: F.cross_entropy(z, np.array([], dtype=np.int64)), ((0, 4),),
                                     ShapeError, "logits must hold at least one row, got shape (0, 4)"),
    "embedding-dtype": ErrorCase(lambda table: F.embedding(np.zeros((2, 4)), table), ((4, 3),), TypeError,
                                 "embedding indices must be integers, got dtype float64"),
    "embedding-bool": ErrorCase(lambda table: F.embedding(np.ones((2, 4), bool), table), ((4, 3),), TypeError,
                                "embedding indices must be integers, got dtype bool"),
}


def primitive(name: str) -> str:
    """The ``svdcnn.functional`` function case ``name`` calls."""
    return name.split("-")[0]


def is_temporal(name: str) -> bool:
    """Whether case ``name`` is a ``[B, C, L]`` op."""
    return draw_inputs(name)[0].ndim == 3


def draw_inputs(name: str) -> list:
    """Case ``name``'s input arrays (float64), from a seed of its own."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    return [draw(rng) for draw in CASES[name].inputs]


def gradient_error(name: str) -> float:
    """``grad_check``'s worst relative error for the squared sum of case ``name``'s output, in float64."""
    def loss(*inputs):
        out = CASES[name].call(*inputs)
        return tensor_sum(mul(out, out))

    return grad_check(loss, [Tensor(a, requires_grad=True, dtype=np.float64) for a in draw_inputs(name)])
