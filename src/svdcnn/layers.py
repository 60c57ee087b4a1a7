"""Layers for the character-level convolutional classifiers.

Every temporal layer preserves the sequence length (kernel 3, padding 1);
only pooling changes it. Convolutions have no bias parameter because each
one is followed by a batch normalization whose shift subsumes it; the batch
norm primitives end in the ReLU that follows every one of them. An eval
forward with no tape open folds that normalization into the convolution's
weight and passes its shift as the ``conv1d`` bias, built once per ``eval()``
(see ``ConvLayer``).
"""

from __future__ import annotations

import math

import numpy as np

from .autograd import DEFAULT_DTYPE, Tensor, active_tape
from .functional import (
    add,
    adaptive_avg_pool,
    affine,
    batch_norm_eval,
    batch_norm_train,
    conv1d,
    depthwise_conv1d,
    embedding,
    flatten_features,
    kmax_pool,
    relu,
)

KERNEL_SIZE = 3


def _normal(rng, std: float, shape) -> np.ndarray:
    """Seeded normal draws; zeros with no draw when ``rng`` is None (the values are about to be loaded)."""
    if rng is None:
        return np.zeros(shape, dtype=DEFAULT_DTYPE)
    return rng.normal(0.0, std, shape).astype(DEFAULT_DTYPE)


def _fan_in_normal(rng, shape, gain: float = 2.0):
    """He initialization: std ``sqrt(gain / fan_in)``, the fan-in being the product of the trailing dimensions."""
    return Tensor(_normal(rng, math.sqrt(gain / math.prod(shape[1:])), shape), requires_grad=True)


class Module:
    """Names parameters and buffers by walking attributes in assignment order.

    A :class:`Tensor` attribute is a learned parameter in the owning class's
    ``category``; an ``ndarray`` attribute is a buffer (running statistics);
    a :class:`Module` attribute is a child whose names are prefixed with the
    attribute name. Every other attribute (sizes, modes, overridden bound
    methods) is ignored.
    """

    category: str  # parameter category of the tensors this module owns
    mode = "train"  # "train" or "eval"; set for a whole subtree by train()/eval()
    # what a module derives from its weights for the current mode (a ConvLayer's folded batch norm), or None;
    # train() and eval() drop it. A tuple, so the walk does not see it.
    _prepared = None

    def train(self):
        """Put this module and every module below it in train mode; returns ``self``."""
        return self._set_mode("train")

    def eval(self):
        """Put this module and every module below it in eval mode; returns ``self``."""
        return self._set_mode("eval")

    def _set_mode(self, mode: str):
        for module in self.modules():
            module.mode = mode
            module._prepared = None
        return self

    def _walk(self, prefix: str = ""):
        """``(dotted name, value, owner, attribute)`` for every module, parameter and buffer below this one.

        Depth first in attribute order, each module before what it holds;
        ``getattr(owner, attribute) is value``.
        """
        for name, value in vars(self).items():
            if isinstance(value, (Module, Tensor, np.ndarray)):
                yield f"{prefix}{name}", value, self, name
            if isinstance(value, Module):
                yield from value._walk(f"{prefix}{name}.")

    def modules(self):
        """This module and every module below it, depth first."""
        yield self
        yield from (v for _n, v, _owner, _attr in self._walk() if isinstance(v, Module))

    def named_params(self) -> list[tuple[str, Tensor, str]]:
        return [(n, v, owner.category) for n, v, owner, _attr in self._walk() if isinstance(v, Tensor)]

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        return [(n, v) for n, v, _owner, _attr in self._walk() if isinstance(v, np.ndarray)]


def _tapeless_eval(module: Module) -> bool:
    """Whether ``module`` runs an eval forward with no tape open.

    No backward reads the arrays such a forward makes, so the layers fold
    each batch norm into its convolution and write into arrays made inside
    the call that nothing else holds.
    """
    return module.mode != "train" and active_tape() is None


class BatchNorm(Module):
    """Per-channel normalization over batch and time, with running statistics, then ReLU.

    ``mode`` is "train" (batch statistics, running stats updated by an
    exponential moving average) or "eval" (running statistics only).
    ``scale_init`` sets the initial per-channel scale; layers wrapped by a
    shortcut start it at zero so a fresh block is the identity map.
    """

    category = "batchnorm"
    momentum = 0.1  # weight of each batch's statistics in the running averages
    eps = 1e-5

    def __init__(self, channels: int, scale_init: float = 1.0):
        self.gamma = Tensor(np.full(channels, scale_init, dtype=DEFAULT_DTYPE), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=DEFAULT_DTYPE), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=DEFAULT_DTYPE)
        self.running_var = np.ones(channels, dtype=DEFAULT_DTYPE)

    def forward(self, x: Tensor) -> Tensor:
        if self.mode == "train":
            out, mean, var, count = batch_norm_train(x, self.gamma, self.beta, self.eps)
            m = self.momentum
            self.running_mean += m * (mean - self.running_mean)
            unbiased = var * (count / (count - 1))
            self.running_var += m * (unbiased - self.running_var)
            return out
        return batch_norm_eval(x, self.gamma, self.beta, self.running_mean, self.running_var, self.eps)


class EmbeddingTable(Module):
    """Character index to dense vector lookup.

    Row 0 stands for padding and for characters outside the dictionary. It
    starts at zero and is learned like every other row.
    """

    category = "embedding"

    def __init__(self, vocab_size: int, dim: int, rng):
        table = _normal(rng, 0.25, (vocab_size, dim))
        table[0] = 0.0
        self.table = Tensor(table, requires_grad=True)

    def forward(self, indices) -> Tensor:
        return embedding(indices, self.table)


class ConvLayer(Module):
    """One layer of network depth: the subclass's convolution, then ``bn``, then ReLU.

    A subclass's convolution ends in a ``conv1d`` with the weight
    ``last_weight``; ``conv(x, weight, bias)`` runs it with ``weight`` and
    ``bias`` in that ``conv1d``'s place.
    """

    category = "conv"

    def forward(self, x: Tensor) -> Tensor:
        """``relu(bn(conv(x)))``; in eval mode with no tape open, the batch norm is folded into the convolution.

        The fold scales the output channels of ``last_weight`` by
        ``gamma / sqrt(running_var + eps)`` and passes ``beta - scale *
        running_mean`` as the bias, so one ``conv1d`` does the work of
        ``conv1d`` then ``batch_norm_eval``. The scaled weight is written in
        the tap-major order ``conv1d`` reads, so it costs one pass over the
        weight. The pair is built at the first such forward after ``eval()``
        and kept in ``_prepared`` until the next ``train()`` or ``eval()``:
        parameters, buffers and checkpoints stay unfolded, and in-place
        writes to them show after the next ``eval()``. The ReLU clips the
        ``conv1d`` output in place: no other code holds that array. With a
        tape open, the batch norm runs unfolded, ending in the ReLU, and its
        gradients are recorded.
        """
        if not _tapeless_eval(self):
            return self.bn.forward(self.conv(x, self.last_weight))
        folded = self._prepared  # read once: concurrent first forwards may each build a pair, none mixes two
        if folded is None:
            bn = self.bn
            scale = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)
            # written C-ordered as [K, C_out, C_in], the order conv1d reads its taps in, so conv1d copies nothing
            weight = np.multiply(self.last_weight.data.transpose(2, 0, 1), scale[:, None], order="C").transpose(1, 2, 0)
            folded = self._prepared = (Tensor(weight), Tensor(bn.beta.data - scale * bn.running_mean))
        out = self.conv(x, *folded)
        np.maximum(out.data, 0, out=out.data)
        return out


class TemporalConvLayer(ConvLayer):
    """Kernel-3 temporal convolution + batch norm + ReLU."""

    def __init__(self, in_channels: int, out_channels: int, rng, bn_scale_init: float = 1.0):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.weight = _fan_in_normal(rng, (out_channels, in_channels, KERNEL_SIZE))
        self.bn = BatchNorm(out_channels, scale_init=bn_scale_init)

    @property
    def last_weight(self) -> Tensor:
        return self.weight

    def conv(self, x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
        return conv1d(x, weight, bias, padding=KERNEL_SIZE // 2)


class TdscLayer(ConvLayer):
    """Depthwise kernel-3 filter followed by a 1x1 cross-channel mix + BN + ReLU.

    The depthwise/pointwise pair is inseparable and counts as one layer of
    network depth. A batch-norm fold scales the pointwise mix only.
    """

    def __init__(self, in_channels: int, out_channels: int, rng, bn_scale_init: float = 1.0):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.depthwise = _fan_in_normal(rng, (in_channels, KERNEL_SIZE))
        self.pointwise = _fan_in_normal(rng, (out_channels, in_channels, 1))
        self.bn = BatchNorm(out_channels, scale_init=bn_scale_init)

    @property
    def last_weight(self) -> Tensor:
        return self.pointwise

    def conv(self, x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
        return conv1d(depthwise_conv1d(x, self.depthwise, padding=KERNEL_SIZE // 2), weight, bias, padding=0)


class ConvBlock(Module):
    """Two ``layer_cls`` layers at a fixed width wrapped by an additive shortcut.

    The first layer maps ``in_channels -> out_channels``, the second keeps
    the width. The shortcut is the identity when the width is unchanged and
    a 1x1 projection otherwise; nothing follows the addition.
    """

    category = "conv"

    def __init__(self, layer_cls: type[ConvLayer], in_channels: int, out_channels: int, rng):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.layer1 = layer_cls(in_channels, out_channels, rng)
        # Zero scale on the closing normalization makes a fresh block the
        # identity, so activation variance cannot grow with depth at init.
        self.layer2 = layer_cls(out_channels, out_channels, rng, bn_scale_init=0.0)
        if in_channels != out_channels:
            # The projection is linear (no activation follows), so gain 1
            # keeps the shortcut variance-preserving.
            self.projection = _fan_in_normal(rng, (out_channels, in_channels, 1), gain=1.0)
        else:
            self.projection = None

    def forward(self, x: Tensor) -> Tensor:
        """``main + shortcut``; in eval mode with no tape open, the shortcut is added into ``main`` in place."""
        main = self.layer2.forward(self.layer1.forward(x))
        shortcut = x if self.projection is None else conv1d(x, self.projection, padding=0)
        if _tapeless_eval(self):
            main.data += shortcut.data
            return main
        return add(main, shortcut)


class Linear(Module):
    """Dense layer ``x @ weight.T + bias`` over rows; the bias starts at zero."""

    category = "fc"

    def __init__(self, weight: Tensor):
        self.weight = weight
        self.bias = Tensor(np.zeros(weight.shape[0], dtype=weight.dtype), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return affine(x, self.weight, self.bias)


class KmaxLinearHead(Module):
    """k-max pooling into a three-layer fully connected classifier.

    The logit layer starts at zero so untrained logits are exactly zero.
    """

    def __init__(self, channels: int, k: int, hidden: int, n_classes: int, rng):
        self.k = k
        flat = channels * k
        self.fc1 = Linear(_fan_in_normal(rng, (hidden, flat)))
        self.fc2 = Linear(_fan_in_normal(rng, (hidden, hidden)))
        self.fc3 = Linear(Tensor(np.zeros((n_classes, hidden), dtype=DEFAULT_DTYPE), requires_grad=True))

    def forward(self, x: Tensor) -> Tensor:
        h = flatten_features(kmax_pool(x, self.k))
        h = relu(self.fc1.forward(h))
        h = relu(self.fc2.forward(h))
        return self.fc3.forward(h)


class AvgPoolLinearHead(Module):
    """Global average pooling into a single linear classifier.

    The logit layer starts at zero so untrained logits are exactly zero.
    """

    def __init__(self, channels: int, pooled_len: int, n_classes: int):
        self.pooled_len = pooled_len
        flat = channels * pooled_len
        self.fc = Linear(Tensor(np.zeros((n_classes, flat), dtype=DEFAULT_DTYPE), requires_grad=True))

    def forward(self, x: Tensor) -> Tensor:
        return self.fc.forward(flatten_features(adaptive_avg_pool(x, self.pooled_len)))
