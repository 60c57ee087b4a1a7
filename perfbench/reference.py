"""Independent float64 reference for the classifiers the benchmark drives.

This module re-derives quantization and the forward pass from the
architecture description alone, with numpy and none of the package's own
primitives, so the benchmark can check the package's float32 outputs
against it. Parameters come in as a ``{name: array}`` mapping taken from the
model's public ``named_params``/``named_buffers``; every name must be used.

The arithmetic differs from the package on purpose: convolutions are a sum
of per-tap matrix products rather than one im2col product, the depthwise
filter is a sum of shifted scaled copies, and max pooling is a three-way
elementwise maximum of strided slices.
"""

from __future__ import annotations

import string

import numpy as np

ALPHABET = string.ascii_lowercase + string.digits + string.punctuation + " "
_INDEX = {ch: i + 1 for i, ch in enumerate(ALPHABET)}

CHANNELS = (64, 128, 256, 512)
STEM_CHANNELS = 64
# Convolutional layers per level; a block holds two of them.
LAYOUT = {9: (2, 2, 2, 2), 17: (4, 4, 4, 4), 29: (10, 10, 4, 4), 49: (16, 16, 10, 6)}
BN_EPS = 1e-5


def quantize(text: str, seq_len: int) -> np.ndarray:
    """Lowercase, map dictionary characters to 1..69 and everything else to 0."""
    out = np.zeros(seq_len, dtype=np.int64)
    chars = text.lower()[:seq_len]
    out[:len(chars)] = [_INDEX.get(ch, 0) for ch in chars]
    return out


def _conv(x, w, pad):
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    t = xp.shape[2] - k + 1
    out = np.zeros((x.shape[0], w.shape[0], t))
    for tap in range(k):
        out += w[:, :, tap] @ xp[:, :, tap:tap + t]
    return out


def _depthwise(x, w, pad):
    k = w.shape[1]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    t = xp.shape[2] - k + 1
    out = np.zeros_like(x[:, :, :t])
    for tap in range(k):
        out += w[None, :, tap, None] * xp[:, :, tap:tap + t]
    return out


def _batch_norm(x, gamma, beta, mean, var):
    return (x - mean[None, :, None]) / np.sqrt(var[None, :, None] + BN_EPS) * gamma[None, :, None] + beta[None, :, None]


def _maxpool_halve(x):
    half = (x.shape[2] + 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1)))
    left, mid, right = (xp[:, :, s:s + 2 * half:2] for s in range(3))
    return np.maximum(np.maximum(left, mid), right)


def _kmax(x, k):
    """Highest k values per channel, earlier position first among equals, in
    temporal order; also the smallest gap, per row and relative to
    max(1, |value|), between the k-th and (k+1)-th largest value of a channel."""
    order = np.argsort(-x, axis=2, kind="stable")
    out = np.take_along_axis(x, np.sort(order[:, :, :k], axis=2), axis=2)
    if k == x.shape[2]:
        return out, np.full(x.shape[0], np.inf)
    kth, next_ = (np.take_along_axis(x, order[:, :, j:j + 1], axis=2)[..., 0] for j in (k - 1, k))
    gap = (kth - next_) / np.maximum(1.0, np.abs(kth))
    return out, gap.min(axis=1)


class _Params:
    """Name lookup that remembers which parameters were consumed."""

    def __init__(self, arrays):
        self.arrays = {name: np.asarray(a, dtype=np.float64) for name, a in arrays.items()}
        self.used = set()

    def __call__(self, name):
        self.used.add(name)
        return self.arrays[name]

    def check_all_used(self):
        unused = sorted(set(self.arrays) - self.used)
        if unused:
            raise ValueError(f"reference did not consume parameters {unused[:5]}")


def forward(arrays, family: str, depth: int, pooled_len: int, indices, train: bool = False):
    """Float64 logits ``[B, classes]`` for index rows ``[B, s]``, and per row
    the k-max boundary gap (infinite for the average-pool head).

    A float32 forward cannot order values closer than its own rounding
    error, so where the gap is that small k-max may keep the other of two
    near-equal values, which reorders features and moves the logits.

    ``train`` normalizes with batch statistics (biased variance) instead of
    the running statistics, as a training-mode forward does.
    """
    p = _Params(arrays)

    def norm(x, prefix):
        if train:
            mean, var = x.mean(axis=(0, 2)), x.var(axis=(0, 2))
            p(f"{prefix}.running_mean"), p(f"{prefix}.running_var")
        else:
            mean, var = p(f"{prefix}.running_mean"), p(f"{prefix}.running_var")
        return _batch_norm(x, p(f"{prefix}.gamma"), p(f"{prefix}.beta"), mean, var)

    def layer(x, prefix):
        if family == "vdcnn":
            h = _conv(x, p(f"{prefix}.weight"), 1)
        else:
            h = _conv(_depthwise(x, p(f"{prefix}.depthwise"), 1), p(f"{prefix}.pointwise"), 0)
        return np.maximum(norm(h, f"{prefix}.bn"), 0.0)

    table = p("embedding.table")
    x = table[np.asarray(indices)].transpose(0, 2, 1)
    x = np.maximum(norm(_conv(x, p("first_conv.weight"), 1), "first_conv.bn"), 0.0)
    in_ch = STEM_CHANNELS
    for level, (channels, n_layers) in enumerate(zip(CHANNELS, LAYOUT[depth])):
        for b in range(n_layers // 2):
            prefix = f"level{level}.block{b}"
            main = layer(layer(x, f"{prefix}.layer1"), f"{prefix}.layer2")
            src = in_ch if b == 0 else channels
            x = main + (x if src == channels else _conv(x, p(f"{prefix}.projection"), 0))
        in_ch = channels
        if level < len(CHANNELS) - 1:
            x = _maxpool_halve(x)

    batch = x.shape[0]
    if family == "vdcnn":
        h, gap = _kmax(x, pooled_len)
        h = h.reshape(batch, -1)
        h = np.maximum(h @ p("head.fc1.weight").T + p("head.fc1.bias"), 0.0)
        h = np.maximum(h @ p("head.fc2.weight").T + p("head.fc2.bias"), 0.0)
        logits = h @ p("head.fc3.weight").T + p("head.fc3.bias")
    else:
        length = x.shape[2]
        h = x.reshape(batch, x.shape[1], pooled_len, length // pooled_len).mean(axis=3).reshape(batch, -1)
        logits = h @ p("head.fc.weight").T + p("head.fc.bias")
        gap = np.full(batch, np.inf)
    p.check_all_used()
    return logits, gap


def cross_entropy(logits, labels) -> float:
    """Mean negative log-likelihood of ``labels`` under softmax(logits)."""
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean())
