"""Primitive numeric operations with taped gradients.

Every operation is batched. Temporal operations take channel-major feature
maps ``[B, C, L]``; stride is always 1 and padding is zero-fill. Dense
operations take rows ``[B, N]``, and the embedding takes index rows
``[B, s]``. A single instance is a batch of one (``x[None]``).

An output needs a gradient exactly when one of its inputs does, and only
such an output's backward is recorded, onto the innermost open tape.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .autograd import ShapeError, Tensor, active_tape


class DegenerateStatisticsError(ValueError):
    """Batch statistics requested over too few values."""


def _checked(t: Tensor, layout: str, op: str, **per_channel) -> np.ndarray:
    """``t.data`` after checking that its rank matches ``layout``, e.g. "[B, C, L]", and that
    each ``per_channel`` array (Tensor or ndarray) has shape ``(C,)``."""
    if t.data.ndim != layout.count(",") + 1:
        raise ShapeError(f"{op} input must be {layout}, got shape {t.shape}")
    for name, a in per_channel.items():
        if a.shape != t.shape[1:2]:
            raise ShapeError(f"{op} {name} has shape {a.shape}, but the input has {t.shape[1]} channels")
    return t.data


def _output(name: str, od: np.ndarray, inputs, pull) -> Tensor:
    """Wrap ``od``: it needs a gradient iff an input does (None skipped), and only then is ``pull`` taped, if a tape is open."""
    out = Tensor(od, requires_grad=any(t is not None and t.requires_grad for t in inputs))
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.append(name, out, pull)
    return out


def _tap_slices(n: int, k: int) -> list[tuple[slice, slice]]:
    """Per tap ``kk``, the output and input slices of a length-n axis it connects: ``out[t]`` reads ``x[t + kk - k//2]``."""
    slices = []
    for shift in range(-(k // 2), k // 2 + 1):
        lo = max(0, -shift)
        hi = max(lo, min(n, n - shift))
        slices.append((slice(lo, hi), slice(lo + shift, hi + shift)))
    return slices


def _shifted_sum(shape: tuple, dtype, k: int, product) -> np.ndarray:
    """``out[..., t] = sum_kk P_kk[..., t + kk - k//2]`` over rows of length ``shape[-1]``, zero outside a row.

    ``product(kk, dst)`` writes tap kk's product ``P_kk`` over the whole input
    into ``dst``. The centre tap's product is the result. Every other tap's
    goes into one reused temporary, whose positions the shift would carry into
    a neighbouring row are zeroed, and is then added at its shift over the
    flattened array: one long inner loop per tap, and no value (NaN included)
    crosses a row. The result owns its data.
    """
    out = np.empty(shape, dtype)
    product(k // 2, out)
    if k == 1:
        return out
    tmp = np.empty_like(out)
    flat_out, flat_tmp = out.reshape(-1), tmp.reshape(-1)
    for kk, ((_, valid), (write, read)) in enumerate(zip(_tap_slices(shape[-1], k), _tap_slices(out.size, k))):
        if kk != k // 2:
            product(kk, tmp)
            tmp[..., :valid.start] = 0
            tmp[..., valid.stop:] = 0
            flat_out[write] += flat_tmp[read]
    return out


def _channel_sum(a: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-channel sum of ``a [B, C, L]`` (or of ``a * b``) over batch and time, as one contraction.

    A matrix-vector product with ones, or one ``einsum``, runs a long inner
    loop over time; ``sum(axis=(0, 2))`` is several times slower at layer shapes.
    """
    if b is None:
        return (a @ np.ones(a.shape[2], dtype=a.dtype)).sum(axis=0)
    return np.einsum("bcl,bcl->c", a, b)


def _reframe(a: np.ndarray, n: int) -> np.ndarray:
    """``a [B, C, L]`` with its time axis centred in length ``n``: zero-extended, cropped (a view), or ``a`` itself."""
    d = (n - a.shape[2]) // 2
    if d > 0:
        return np.pad(a, ((0, 0), (0, 0), (d, d)))
    return a[:, :, -d:a.shape[2] + d] if d < 0 else a


def _conv_frame(length: int, k: int, padding: int) -> tuple[int, int]:
    """``(L_out, frame)`` of a convolution after checking its kernel size, padding and input length.

    In a frame of ``max(L, L_out)`` steps the convolution keeps the length; see ``_reframe``.
    """
    if k % 2 == 0:
        raise ShapeError(f"kernel size must be odd, got {k}")
    if padding < 0:
        raise ValueError(f"padding must be non-negative, got {padding}")
    if length + 2 * padding < k:
        raise ShapeError(f"length {length} with padding {padding} is shorter than kernel {k}")
    t_out = length + 2 * padding - k + 1
    return t_out, max(length, t_out)


def conv1d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, padding: int = 0) -> Tensor:
    """Temporal convolution: ``x [B, C_in, L]``, ``weight [C_out, C_in, K]``.

    Output is ``[B, C_out, L + 2*padding - K + 1]``; the kernel size must be
    odd. Each tap's product is one batched ``[C_out, C_in]`` matmul over the
    whole input, and ``_shifted_sum`` adds the taps at their shifts. The
    weight gradient is one contraction per tap.
    """
    xa = _checked(x, "[B, C, L]", "conv1d")
    w = weight.data
    if w.ndim != 3:
        raise ShapeError(f"conv1d weight must be [C_out, C_in, K], got shape {weight.shape}")
    out_ch, w_in_ch, k = w.shape
    t_out, frame = _conv_frame(xa.shape[2], k, padding)
    if xa.shape[1] != w_in_ch:
        raise ShapeError(f"input has {xa.shape[1]} channels but weight expects {w_in_ch}")
    if bias is not None and bias.data.shape != (out_ch,):
        raise ShapeError(f"bias shape {bias.shape} does not match {out_ch} output channels")

    # contiguous [K, C_out, C_in]: a strided w[:, :, kk] view would keep matmul off BLAS
    taps = np.ascontiguousarray(w.transpose(2, 0, 1))
    xf = _reframe(xa, frame)
    of = _shifted_sum((len(xa), out_ch, frame), np.result_type(xa, w), k, lambda kk, o: np.matmul(taps[kk], xf, out=o))
    od = _reframe(of, t_out)
    if bias is not None:
        od += bias.data[:, None]

    def pull(g):
        gf = _reframe(g, frame)
        if weight.requires_grad:
            weight.accumulate_grad(np.stack([np.tensordot(gf[:, :, dst], xf[:, :, src], axes=([0, 2], [0, 2]))
                                             for dst, src in _tap_slices(frame, k)], 2))
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(_channel_sum(g))
        if x.requires_grad:
            # the taps reversed; each .T is a view that BLAS reads through its transpose flag
            gx = _shifted_sum(xf.shape, np.result_type(gf, w), k, lambda kk, o: np.matmul(taps[k - 1 - kk].T, gf, out=o))
            x.accumulate_grad(_reframe(gx, xa.shape[2]))

    return _output("conv1d", od, (x, weight, bias), pull)


def depthwise_conv1d(x: Tensor, weight: Tensor, padding: int = 0) -> Tensor:
    """Per-channel temporal convolution of ``x [B, C, L]``: ``weight [C, K]`` filters channel c alone.

    The same tap engine as ``conv1d``: each tap's product is one multiply of
    the flattened ``[B, C*L]`` rows by a per-position weight row built once
    per call, and ``_shifted_sum`` adds the taps at their shifts. The weight
    gradient is one per-channel contraction per tap.
    """
    xa = _checked(x, "[B, C, L]", "depthwise_conv1d")
    w = weight.data
    if w.ndim != 2:
        raise ShapeError(f"depthwise weight must be [C, K], got shape {weight.shape}")
    channels, k = w.shape
    t_out, frame = _conv_frame(xa.shape[2], k, padding)
    if xa.shape[1] != channels:
        raise ShapeError(f"input has {xa.shape[1]} channels but weight has {channels}")

    rows = np.repeat(w.T, frame, axis=1)  # rows[kk, c*frame + t] = w[c, kk]
    xf = _reframe(xa, frame)

    def shifted(a, rows):
        flat = a.reshape(len(a), -1)
        return _shifted_sum(a.shape, np.result_type(a, rows), k,
                            lambda kk, o: np.multiply(flat, rows[kk], out=o.reshape(flat.shape)))

    def pull(g):
        gf = _reframe(g, frame)
        if weight.requires_grad:
            weight.accumulate_grad(np.stack([_channel_sum(gf[:, :, dst], xf[:, :, src]) for dst, src in _tap_slices(frame, k)], 1))
        if x.requires_grad:
            x.accumulate_grad(_reframe(shifted(gf, rows[::-1]), xa.shape[2]))

    return _output("depthwise_conv1d", _reframe(shifted(xf, rows), t_out), (x, weight), pull)


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Dense map of rows ``x [B, N]`` to ``x @ weight.T + bias`` with ``weight [M, N]``."""
    xa = _checked(x, "[B, N]", "affine")
    w = weight.data
    if w.ndim != 2:
        raise ShapeError(f"affine weight must be [M, N], got shape {weight.shape}")
    if xa.shape[1] != w.shape[1]:
        raise ShapeError(f"input of length {xa.shape[1]} incompatible with weight expecting {w.shape[1]}")
    if bias.data.shape != (w.shape[0],):
        raise ShapeError(f"bias shape {bias.shape} does not match {w.shape[0]} outputs")

    def pull(g):
        if weight.requires_grad:
            weight.accumulate_grad(g.T @ xa)
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=0))
        if x.requires_grad:
            x.accumulate_grad(g @ w)

    return _output("affine", xa @ w.T + bias.data, (x, weight, bias), pull)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); the derivative at exactly 0 is 0."""
    def pull(g):
        g *= x.data > 0
        x.accumulate_grad(g)

    return _output("relu", np.maximum(x.data, 0), (x,), pull)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"cannot add shapes {a.shape} and {b.shape}")

    def pull(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g.copy())

    return _output("add", a.data + b.data, (a, b), pull)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"cannot multiply shapes {a.shape} and {b.shape}")

    def pull(g):
        if a.requires_grad:
            a.accumulate_grad(g * b.data)
        if b.requires_grad:
            b.accumulate_grad(g * a.data)

    return _output("mul", a.data * b.data, (a, b), pull)


def tensor_sum(x: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    def pull(g):
        x.accumulate_grad(g * np.ones_like(x.data))

    return _output("sum", x.data.sum(), (x,), pull)


def maxpool_halve(x: Tensor) -> Tensor:
    """Max pooling of ``x [B, C, L]`` with kernel 3, stride 2, zero padding 1: L -> ceil(L/2).

    Window t holds ``x[2t - 1], x[2t], x[2t + 1]``: its entries are read from
    contiguous copies of the even and odd time steps of ``x``, with no padded
    copy. The first window's first entry and, for odd L, the last window's
    last entry are the zero pad. Ties within a window (the zero pad included)
    send the whole gradient to the earliest position.
    """
    xa = _checked(x, "[B, C, L]", "maxpool_halve")
    length = xa.shape[2]
    if length < 2:
        raise ShapeError(f"temporal length must be at least 2 to halve, got {length}")
    t_out, n_odd = (length + 1) // 2, length // 2
    od = xa[:, :, 0::2].copy()  # x[2t], the middle entry of every window
    odd = np.ascontiguousarray(xa[:, :, 1::2])  # x[2t + 1]: last entry of window t, first of window t + 1
    np.maximum(od[:, :, :n_odd], odd, out=od[:, :, :n_odd])
    np.maximum(od[:, :, 1:], odd[:, :, :t_out - 1], out=od[:, :, 1:])
    np.maximum(od[:, :, :1], 0, out=od[:, :, :1])
    np.maximum(od[:, :, n_odd:], 0, out=od[:, :, n_odd:])

    def pull(g):
        # an entry takes its window's gradient when it equals the maximum and no earlier entry does
        even, odd = np.ascontiguousarray(xa[:, :, 0::2]), np.ascontiguousarray(xa[:, :, 1::2])
        first = np.empty(od.shape, dtype=bool)
        first[:, :, 0] = od[:, :, 0] == 0
        np.equal(odd[:, :, :t_out - 1], od[:, :, 1:], out=first[:, :, 1:])
        middle = even == od
        middle &= ~first
        last = odd == od[:, :, :n_odd]
        last &= ~(first[:, :, :n_odd] | middle[:, :, :n_odd])
        gx = np.empty_like(xa)
        np.multiply(g, middle, out=gx[:, :, 0::2])
        g_odd = g[:, :, :n_odd] * last
        g_odd[:, :, :t_out - 1] += g[:, :, 1:] * first[:, :, 1:]
        gx[:, :, 1::2] = g_odd
        x.accumulate_grad(gx)

    return _output("maxpool_halve", od, (x,), pull)


def kmax_pool(x: Tensor, k: int) -> Tensor:
    """Keep the k largest values per channel of ``x [B, C, L]``, in original temporal order.

    ``np.partition`` finds the k-th largest value of each row. Every value
    above it is kept; values equal to it are kept earliest position first
    until the row holds k, so ties go to the earlier position.
    """
    xa = _checked(x, "[B, C, L]", "kmax_pool")
    batch, channels, length = xa.shape
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > length:
        raise ValueError(f"k={k} exceeds temporal length {length}")
    neg = np.negative(xa)
    np.fmin(neg, np.inf, out=neg)  # NaN -> +inf: NaN ranks below every number and each row still keeps k
    kth = np.partition(neg, k - 1, axis=2)[:, :, k - 1:k]
    above = neg < kth
    tied = neg == kth
    keep = above | (tied & (np.cumsum(tied, axis=2, dtype=np.int32) <= k - above.sum(axis=2, keepdims=True)))
    flat = np.flatnonzero(keep)  # row-major: each row's k kept positions, in temporal order

    def pull(g):
        gx = np.zeros_like(xa)
        gx.reshape(-1)[flat] = g.reshape(-1)
        x.accumulate_grad(gx)

    return _output("kmax_pool", xa.reshape(-1)[flat].reshape(batch, channels, k), (x,), pull)


def adaptive_avg_pool(x: Tensor, out_len: int) -> Tensor:
    """Mean over contiguous equal bins per channel of ``x [B, C, L]``; L must divide evenly.

    Forward and backward are one matmul each with the ``[L, out_len]`` bin
    matrix, which holds ``1 / (L // out_len)`` where time step t falls in bin j.
    """
    xa = _checked(x, "[B, C, L]", "adaptive_avg_pool")
    length = xa.shape[2]
    if out_len < 1:
        raise ValueError(f"output length must be positive, got {out_len}")
    if length % out_len != 0:
        raise ValueError(f"temporal length {length} is not divisible by output length {out_len}")
    binsize = length // out_len
    bins = np.repeat(np.eye(out_len, dtype=xa.dtype), binsize, axis=0) / binsize

    def pull(g):
        x.accumulate_grad(g @ bins.T)

    return _output("adaptive_avg_pool", xa @ bins, (x,), pull)


def flatten_features(x: Tensor) -> Tensor:
    """Collapse ``[B, C, L]`` feature maps to ``[B, C*L]`` rows."""
    xa = _checked(x, "[B, C, L]", "flatten_features")
    batch, channels, length = xa.shape

    def pull(g):
        x.accumulate_grad(g.reshape(batch, channels, length))

    return _output("flatten", xa.reshape(batch, channels * length), (x,), pull)


def embedding(indices, table: Tensor) -> Tensor:
    """Look up rows of ``table [V, E]`` for index rows ``[B, s]``; returns channel-major maps ``[B, E, s]``."""
    idx = np.asarray(indices)
    if idx.ndim != 2:
        raise ShapeError(f"embedding indices must be [B, s], got shape {idx.shape}")
    vocab, dim = table.data.shape
    bad = (idx < 0) | (idx >= vocab)
    if bad.any():
        b0, p0 = np.argwhere(bad)[0]
        raise IndexError(f"character index {idx[b0, p0]} at position {p0} is outside [0, {vocab})")

    def pull(g):
        acc = np.zeros_like(table.data)
        np.add.at(acc, idx.reshape(-1), g.transpose(0, 2, 1).reshape(-1, dim))
        table.accumulate_grad(acc)

    return _output("embedding", np.ascontiguousarray(table.data[idx].transpose(0, 2, 1)), (table,), pull)


def _batch_norm(op: str, x: Tensor, xc: np.ndarray, gamma: Tensor, beta: Tensor, var, eps: float, batch_stats: bool) -> Tensor:
    """Per-channel ``gamma * xc / sqrt(var + eps) + beta`` for the centered input ``xc = x - mean``.

    ``xc`` is scaled in place into the normalized values. The backward
    reduces ``g`` and ``g * xhat`` once per channel, which are also the beta
    and gamma gradients, then writes the input gradient into ``g`` (and, with
    batch statistics, ``xhat``): the tape runs each pull once. With
    ``batch_stats`` the statistics were computed from ``x`` itself, so the
    gradient also flows through them.
    """
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc
    xhat *= inv[None, :, None]
    od = gamma.data[None, :, None] * xhat
    od += beta.data[None, :, None]

    def pull(g):
        g_sum = _channel_sum(g)
        gx_sum = _channel_sum(g, xhat)
        if gamma.requires_grad:
            gamma.accumulate_grad(gx_sum)
        if beta.requires_grad:
            beta.accumulate_grad(g_sum)
        if x.requires_grad:
            if batch_stats:
                count = g.size // g.shape[1]
                g += np.multiply(xhat, (-gx_sum / count)[None, :, None], out=xhat)
                g -= (g_sum / count)[None, :, None]
            g *= (gamma.data * inv)[None, :, None]
            x.accumulate_grad(g)

    return _output(op, od, (x, gamma, beta), pull)


def batch_norm_train(x: Tensor, gamma: Tensor, beta: Tensor, eps: float):
    """Normalize ``x [B, C, L]`` per channel with statistics over the batch and time axes.

    The mean is one reduction; the variance is the mean square of the
    centered input ``x - mean``, which stays accurate when the mean is far
    from zero. Returns ``(out, batch_mean, batch_var, count)`` where the
    variance is the biased estimate used for normalization and ``count`` is
    the number of values per channel.
    """
    xa = _checked(x, "[B, C, L]", "batch_norm_train", gamma=gamma, beta=beta)
    batch, _channels, length = xa.shape
    count = batch * length
    if count < 2:
        raise DegenerateStatisticsError(
            f"need at least 2 values per channel for batch statistics, got {count}"
        )
    mean = _channel_sum(xa) / count
    xc = xa - mean[None, :, None]
    var = _channel_sum(xc, xc) / count
    out = _batch_norm("batch_norm_train", x, xc, gamma, beta, var, eps, batch_stats=True)
    return out, mean, var, count


def batch_norm_eval(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float,
) -> Tensor:
    """Normalize ``x [B, C, L]`` per channel with fixed running statistics."""
    xa = _checked(x, "[B, C, L]", "batch_norm_eval",
                  gamma=gamma, beta=beta, running_mean=running_mean, running_var=running_var)
    xc = xa - running_mean[None, :, None]
    return _batch_norm("batch_norm_eval", x, xc, gamma, beta, running_var, eps, batch_stats=False)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax over the last axis."""
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax(logits ``[B, classes]``)."""
    la = logits.data
    if la.ndim != 2:
        raise ShapeError(f"logits must be [batch, classes], got shape {logits.shape}")
    batch, classes = la.shape
    lab = np.asarray(labels)
    if lab.shape != (batch,):
        raise ShapeError(f"labels shape {lab.shape} does not match batch size {batch}")
    if ((lab < 0) | (lab >= classes)).any():
        bad = lab[(lab < 0) | (lab >= classes)][0]
        raise ValueError(f"label {bad} outside [0, {classes})")
    logp = _log_softmax(la)

    def pull(g):
        p = np.exp(logp)
        p[np.arange(batch), lab] -= 1.0
        logits.accumulate_grad(p * (g / batch))

    return _output("cross_entropy", np.asarray(-logp[np.arange(batch), lab].mean(), dtype=la.dtype), (logits,), pull)
