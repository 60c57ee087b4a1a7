"""Primitive numeric operations with taped gradients.

Every operation is batched. Temporal operations take feature maps of
logical shape ``[B, C, L]``, stored channels-last: strides ``(L*C, 1, C)``
in items, so the ``[B, L, C]`` view is C-contiguous and each time step's
channels are one contiguous chunk. Every temporal output and input gradient
is stored that way; an input in another memory order is copied into it on
entry. The convolutions keep the length: stride 1, an odd kernel K and zero
padding ``K // 2``, the only padding they accept; only pooling changes L.
Dense operations take rows ``[B, N]``, and the embedding takes index rows
``[B, s]``. A single instance is a batch of one (``x[None]``).

An output needs a gradient exactly when one of its inputs does, and only
such an output's backward is recorded, onto the innermost open tape. A pull
holds the gradient slot of each input that needs a gradient and only the
arrays its backward reads, so a map no pull reads (an input the backward
needs only the shape of, or an output) is freed when the forward drops it.
"""

from __future__ import annotations

import ctypes
import math
from pathlib import Path
from typing import Optional

import numpy as np

from .autograd import ShapeError, Tensor, _check_int, active_tape


class DegenerateStatisticsError(ValueError):
    """Batch statistics requested over too few values."""


def _empty(shape: tuple, dtype) -> np.ndarray:
    """An uninitialised ``[B, C, L]`` array stored channels-last that owns its data."""
    _batch, channels, length = shape
    item = np.dtype(dtype).itemsize
    return np.ndarray(shape, dtype, strides=(length * channels * item, item, channels * item))


def _channels_last(a: np.ndarray) -> np.ndarray:
    """``a [B, C, L]`` itself when it is stored channels-last, else a channels-last copy."""
    if a.transpose(0, 2, 1).flags.c_contiguous:
        return a
    out = _empty(a.shape, a.dtype)
    out[...] = a
    return out


def _rows(a: np.ndarray) -> np.ndarray:
    """The ``[B*L, C]`` view of a channels-last ``a [B, C, L]``, one row per time step (never a copy)."""
    batch, channels, length = a.shape
    return a.transpose(0, 2, 1).reshape(batch * length, channels)


def _by_channel(ufunc, a: np.ndarray, v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``ufunc(a, v[:, None])`` for a channels-last ``a [B, C, L]`` and per-channel values ``v [C]``; ``out`` may be ``a``.

    It runs over each sample's ``[L*C]`` row against ``v`` tiled to one value
    per row position: one long inner loop per sample, where a ``v[:, None]``
    broadcast gets one loop of C per time step. The result is channels-last.
    """
    batch, channels, length = a.shape
    if out is None:
        out = _empty(a.shape, np.result_type(a, v))
    ufunc(a.transpose(0, 2, 1).reshape(batch, length * channels), np.tile(v, length),
          out=out.transpose(0, 2, 1).reshape(batch, length * channels))
    return out


def _checked(t: Tensor, layout: str, op: str, **per_channel) -> np.ndarray:
    """``t.data`` after checking that its rank matches ``layout``, e.g. "[B, C, L]", and that
    each ``per_channel`` array (Tensor or ndarray) has shape ``(C,)``; a ``[B, C, L]`` input is
    returned channels-last."""
    if t.data.ndim != layout.count(",") + 1:
        raise ShapeError(f"{op} input must be {layout}, got shape {t.shape}")
    for name, a in per_channel.items():
        if a.shape != t.shape[1:2]:
            raise ShapeError(f"{op} {name} has shape {a.shape}, but the input has {t.shape[1]} channels")
    return _channels_last(t.data) if layout == "[B, C, L]" else t.data


def _pack(mask: np.ndarray) -> tuple:
    """A C-contiguous bool ``mask`` at one bit per element, packed in memory order (no copy first): ``(bits, shape)``."""
    return np.packbits(mask, axis=None), mask.shape


def _unpack(packed: tuple) -> np.ndarray:
    """The C-contiguous bool mask that ``_pack`` packed, as a view of one byte per element."""
    bits, shape = packed
    return np.unpackbits(bits, count=math.prod(shape)).view(bool).reshape(shape)


def _slot(t: Optional[Tensor]):
    """``t``'s gradient slot when ``t`` needs a gradient, else None: what a pull holds of an input."""
    return t.slot if t is not None and t.requires_grad else None


def _recorded(*inputs) -> bool:
    """Whether an op on ``inputs`` (None skipped) is taped: one needs a gradient and a tape is open."""
    return any(t is not None and t.requires_grad for t in inputs) and active_tape() is not None


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


def _bind_gemms() -> dict:
    """``{float32: gemm}`` from numpy's bundled OpenBLAS, or ``{}`` without that library.

    ``gemm(a, b, c)`` adds ``a @ b`` into ``c`` with one level-3 BLAS call,
    ``C <- A B + 1 C``, which ``np.matmul(out=)`` cannot do: it always
    overwrites. ``a`` and ``c`` are C-contiguous; ``b`` is C- or
    F-contiguous. The library is bound only where numpy's wheel bundles it
    (``numpy.libs`` on Linux and Windows, ``numpy/.dylibs`` on macOS) under
    the name ``libscipy_openblas64_`` and exports the ILP64 CBLAS symbol
    ``scipy_cblas_sgemm64_``, and only once the GEMM reproduces a tiny
    product of ``np.matmul``. The network is float32; float64, which only
    gradient checks run, takes ``_matmul_add``.
    """
    home = Path(np.__file__).parent
    found = [*home.parent.glob("numpy.libs/libscipy_openblas64_*"), *home.glob(".dylibs/libscipy_openblas64_*")]
    try:
        lib = ctypes.CDLL(str(found[0])) if len(found) == 1 else None
    except OSError:
        lib = None
    fn = getattr(lib, "scipy_cblas_sgemm64_", None)
    if fn is None:
        return {}
    # (order, trans_a, trans_b) as C enums, then M, N, K and leading dimensions as 64-bit integers
    fn.argtypes = [ctypes.c_int] * 3 + [ctypes.c_int64] * 3 + [ctypes.c_float, ctypes.c_void_p, ctypes.c_int64,
                   ctypes.c_void_p, ctypes.c_int64, ctypes.c_float, ctypes.c_void_p, ctypes.c_int64]
    fn.restype = None

    def gemm(a, b, c):
        (m, inner), n = a.shape, c.shape[1]
        if not (a.dtype == b.dtype == c.dtype == np.float32 and b.shape == (inner, n) and len(c) == m and
                a.flags.c_contiguous and c.flags.c_contiguous and (b.flags.c_contiguous or b.flags.f_contiguous)):
            raise ValueError("gemm operands must match the bound dtype and shapes, a and c C-contiguous")
        trans_b = not b.flags.c_contiguous  # row-major enums: 101 row-major, 111 no transpose, 112 transpose
        fn(101, 111, 112 if trans_b else 111, m, n, inner, 1.0, a.ctypes.data, max(1, inner),
           b.ctypes.data, max(1, inner if trans_b else n), 1.0, c.ctypes.data, max(1, n))

    a = np.arange(1, 7, dtype=np.float32).reshape(2, 3)
    b = np.arange(1, 13, dtype=np.float32).reshape(4, 3)
    c = np.ones((2, 4), np.float32)
    gemm(a, b.T, c)
    gemm(a, b.T.copy(), c)
    return {np.dtype(np.float32): gemm} if np.array_equal(c, 1 + 2 * np.matmul(a, b.T)) else {}


_GEMMS = _bind_gemms()


def _matmul_add(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    """``c += a @ b`` in numpy: a product into a temporary, then an add pass. The GEMM of a dtype ``_GEMMS`` lacks."""
    c += a @ b


def _tap_products(rows: np.ndarray, mats: np.ndarray, shape: tuple) -> np.ndarray:
    """The sum of the products ``rows @ mats[kk]`` of a ``conv1d``'s K taps, each at its shift, as a new ``[B, C, L]`` map.

    ``rows`` is the C-contiguous ``[B*L, C_in]`` rows of the input, and each
    ``mats[kk]`` a C- or F-contiguous ``[C_in, C]`` matrix. The centre tap's
    product is the output. Each other tap adds into it with one GEMM over all
    rows at the tap's shift: tap kk adds ``rows[r + s]`` into output row r,
    for ``s = kk - K//2``. Each sequence's last s (or first -s) output rows
    would read the neighbouring sequence, so they are copied out before the
    GEMM and written back after it: no value (NaN included) crosses a
    sequence. The GEMM is the beta = 1 one ``_GEMMS`` binds for float32,
    which needs no temporary or add pass, else ``_matmul_add``.
    """
    k = len(mats)
    dtype = np.result_type(rows, mats)
    gemm = _GEMMS.get(dtype, _matmul_add)
    out = _empty(shape, dtype)
    out_rows, steps, length = _rows(out), out.transpose(0, 2, 1), shape[2]
    np.matmul(rows, mats[k // 2], out=out_rows)
    for kk, (dst, src) in enumerate(_tap_slices(len(rows), k)):
        shift = kk - k // 2
        if shift == 0 or abs(shift) >= length:
            continue
        edge = steps[:-1, length - shift:] if shift > 0 else steps[1:, :-shift]
        kept = edge.copy()
        gemm(rows[src], mats[kk], out_rows[dst])
        edge[...] = kept
    return out


def _channel_sum(a: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-channel sum of ``a [B, C, L]`` (or of ``a * b``) over batch and time: an ``einsum`` over time, then a sum over batch.

    The ``einsum`` follows the operands' memory order, so on channels-last
    maps (or slices of them along time) its inner loop runs along the
    contiguous channels. It adds time step after time step, so summing each
    sequence apart first keeps float32 sums of long rows accurate. A
    matrix-vector product with ones over the ``[B*L, C]`` rows is no faster,
    and OpenBLAS's threaded one sometimes stalls for milliseconds at these shapes.
    """
    if b is None:
        return np.einsum("bcl->bc", a).sum(axis=0)
    return np.einsum("bcl,bcl->bc", a, b).sum(axis=0)


def _check_kernel(op: str, k: int, padding: int) -> None:
    """Check that a convolution keeps the length: an odd kernel ``k`` and ``padding == k // 2``."""
    if k % 2 == 0:
        raise ShapeError(f"kernel size must be odd, got {k}")
    if padding != k // 2:
        raise ValueError(f"{op} padding must be k // 2 = {k // 2}, got {padding}")


def conv1d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, padding: int = 0) -> Tensor:
    """Temporal convolution: ``x [B, C_in, L]``, ``weight [C_out, C_in, K]``.

    Output is ``[B, C_out, L]``: K must be odd and ``padding`` must be K // 2.
    Each tap's product is one GEMM over the ``[B*L, C_in]`` rows,
    ``rows @ W_kk.T``, added at its shift by ``_tap_products``. The weight
    gradient is one GEMM per tap, ``g_rows.T @ rows``, over the time steps
    the tap connects, and the input gradient one GEMM per tap,
    ``g_rows @ W_kk``, the taps reversed, again by ``_tap_products``; at
    K = 1 all three are single GEMMs over views, with no copy. A recorded
    call keeps ``x`` and the weight itself, not its tap-order copy: the
    backward copies the weight into tap order again.
    """
    xa = _checked(x, "[B, C, L]", "conv1d")
    w = weight.data
    if w.ndim != 3:
        raise ShapeError(f"conv1d weight must be [C_out, C_in, K], got shape {weight.shape}")
    out_ch, w_in_ch, k = w.shape
    _check_kernel("conv1d", k, padding)
    if xa.shape[1] != w_in_ch:
        raise ShapeError(f"input has {xa.shape[1]} channels but weight expects {w_in_ch}")
    if bias is not None and bias.data.shape != (out_ch,):
        raise ShapeError(f"bias shape {bias.shape} does not match {out_ch} output channels")

    # contiguous [K, C_out, C_in]: a strided w[:, :, kk] view would keep matmul off BLAS
    taps = np.ascontiguousarray(w.transpose(2, 0, 1))
    od = _tap_products(_rows(xa), taps.transpose(0, 2, 1), (len(xa), out_ch, xa.shape[2]))
    if bias is not None:
        _by_channel(np.add, od, bias.data, out=od)
    sx, sw, sb = _slot(x), _slot(weight), _slot(bias)

    def pull(g):
        g = _channels_last(g)
        if sw is not None:
            # per tap, g_rows.T @ x_rows over the time steps it connects; a full-length tap (K = 1) copies nothing
            gt, xt = g.transpose(0, 2, 1), xa.transpose(0, 2, 1)
            sw.accumulate_grad(np.stack([np.ascontiguousarray(gt[:, dst]).reshape(-1, out_ch).T
                                         @ np.ascontiguousarray(xt[:, src]).reshape(-1, w_in_ch)
                                         for dst, src in _tap_slices(xa.shape[2], k)], 2))
        if sb is not None:
            sb.accumulate_grad(_channel_sum(g))
        if sx is not None:
            # the taps reversed, from a tap-order copy made afresh: the weight is unchanged since the forward
            taps = np.ascontiguousarray(w.transpose(2, 0, 1))
            sx.accumulate_grad(_tap_products(_rows(g), taps[::-1], xa.shape))

    return _output("conv1d", od, (x, weight, bias), pull)


def depthwise_conv1d(x: Tensor, weight: Tensor, padding: int = 0) -> Tensor:
    """Per-channel temporal convolution of ``x [B, C, L]``: ``weight [C, K]`` filters channel c alone.

    The same kernel and padding rule as ``conv1d``: the centre tap's product,
    one multiply of ``x`` by that tap's per-channel weights (``_by_channel``),
    is the output, and each other tap adds its product over the time steps
    it connects straight into the output's. In channels-last order those are
    one contiguous run of whole C-chunks per sequence, so no tap reads a
    neighbouring sequence and no value (NaN included) crosses one. The
    weight gradient is one per-channel contraction per tap.
    """
    xa = _checked(x, "[B, C, L]", "depthwise_conv1d")
    w = weight.data
    if w.ndim != 2:
        raise ShapeError(f"depthwise weight must be [C, K], got shape {weight.shape}")
    channels, k = w.shape
    _check_kernel("depthwise_conv1d", k, padding)
    if xa.shape[1] != channels:
        raise ShapeError(f"input has {xa.shape[1]} channels but weight has {channels}")

    length = xa.shape[2]
    taps = w.T  # taps[kk, c] = w[c, kk]

    def shifted(a, taps):
        out = _by_channel(np.multiply, a, taps[k // 2])
        for kk, (dst, src) in enumerate(_tap_slices(length, k)):
            if kk != k // 2:
                out[:, :, dst] += _by_channel(np.multiply, a[:, :, src], taps[kk])
        return out

    sx, sw = _slot(x), _slot(weight)

    def pull(g):
        g = _channels_last(g)
        if sw is not None:
            sw.accumulate_grad(np.stack([_channel_sum(g[:, :, dst], xa[:, :, src]) for dst, src in _tap_slices(length, k)], 1))
        if sx is not None:
            sx.accumulate_grad(shifted(g, taps[::-1]))

    return _output("depthwise_conv1d", shifted(xa, taps), (x, weight), pull)


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Dense map of rows ``x [B, N]`` to ``x @ weight.T + bias`` with ``weight [M, N]``.

    When the weight has more rows than ``x`` (vdcnn's hidden layers), the
    product runs as ``(weight @ x.T).T``: BLAS runs that shape faster, and
    the output, stored column-major, agrees to float32 rounding. With fewer
    (a logit layer over a batch), it runs as written.
    """
    xa = _checked(x, "[B, N]", "affine")
    w = weight.data
    if w.ndim != 2:
        raise ShapeError(f"affine weight must be [M, N], got shape {weight.shape}")
    if xa.shape[1] != w.shape[1]:
        raise ShapeError(f"input of length {xa.shape[1]} incompatible with weight expecting {w.shape[1]}")
    if bias.data.shape != (w.shape[0],):
        raise ShapeError(f"bias shape {bias.shape} does not match {w.shape[0]} outputs")

    sx, sw, sb = _slot(x), _slot(weight), _slot(bias)

    def pull(g):
        if sw is not None:
            sw.accumulate_grad(g.T @ xa)
        if sb is not None:
            sb.accumulate_grad(g.sum(axis=0))
        if sx is not None:
            sx.accumulate_grad(g @ w)

    product = (w @ xa.T).T if len(w) > len(xa) else xa @ w.T
    return _output("affine", product + bias.data, (x, weight, bias), pull)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); the derivative at exactly 0 is 0."""
    xd, sx = x.data, x.slot

    def pull(g):
        g *= xd > 0
        sx.accumulate_grad(g)

    return _output("relu", np.maximum(xd, 0), (x,), pull)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors; its backward reads neither."""
    if a.shape != b.shape:
        raise ShapeError(f"cannot add shapes {a.shape} and {b.shape}")
    sa, sb = _slot(a), _slot(b)

    def pull(g):
        if sa is not None:
            sa.accumulate_grad(g)
        if sb is not None:
            sb.accumulate_grad(g.copy(order="K"))  # in g's memory order

    return _output("add", a.data + b.data, (a, b), pull)


def maxpool_halve(x: Tensor) -> Tensor:
    """Max pooling of ``x [B, C, L]`` with kernel 3, stride 2, zero padding 1: L -> ceil(L/2).

    Window t holds ``x[2t - 1], x[2t], x[2t + 1]``: its entries are read as
    whole C-chunks of the even and odd time steps of ``x``, with no padded
    copy. The first window's first entry and, for odd L, the last window's
    last entry are the zero pad. Ties within a window (the zero pad included)
    send the whole gradient to the earliest position. A recorded call finds
    each window's winner in the forward and its backward keeps only those
    three masks, each packed to one bit per window (``_pack``), not the
    input or the output; the backward unpacks each just before it reads it.
    """
    xa = _checked(x, "[B, C, L]", "maxpool_halve")
    batch, channels, length = xa.shape
    if length < 2:
        raise ShapeError(f"temporal length must be at least 2 to halve, got {length}")
    t_out, n_odd = (length + 1) // 2, length // 2
    xt = xa.transpose(0, 2, 1)  # [B, L, C]: one contiguous chunk of channels per time step
    even, odd = xt[:, 0::2], xt[:, 1::2]  # x[2t], the middle entry of window t; x[2t + 1], its last and window t + 1's first
    od = _empty((batch, channels, t_out), xa.dtype)
    ot = od.transpose(0, 2, 1)
    np.maximum(even[:, :n_odd], odd, out=ot[:, :n_odd])
    np.maximum(even[:, n_odd:], 0, out=ot[:, n_odd:])
    np.maximum(ot[:, 1:], odd[:, :t_out - 1], out=ot[:, 1:])
    np.maximum(ot[:, :1], 0, out=ot[:, :1])
    if not _recorded(x):
        return _output("maxpool_halve", od, (x,), None)

    # an entry takes its window's gradient when it equals the maximum and no earlier entry does
    first = np.empty(ot.shape, dtype=bool)
    np.equal(ot[:, :1], 0, out=first[:, :1])
    np.equal(odd[:, :t_out - 1], ot[:, 1:], out=first[:, 1:])
    middle = even == ot
    middle &= ~first
    last = odd == ot[:, :n_odd]
    last &= ~(first[:, :n_odd] | middle[:, :n_odd])
    first, middle, last = _pack(first), _pack(middle), _pack(last)
    shape, dtype, sx = xa.shape, xa.dtype, x.slot

    def pull(g):
        gt = _channels_last(g).transpose(0, 2, 1)
        gx = _empty(shape, dtype)
        gxt = gx.transpose(0, 2, 1)
        np.multiply(gt, _unpack(middle), out=gxt[:, 0::2])
        g_odd = gxt[:, 1::2]
        np.multiply(gt[:, :n_odd], _unpack(last), out=g_odd)
        g_odd[:, :t_out - 1] += gt[:, 1:] * _unpack(first)[:, 1:]
        sx.accumulate_grad(gx)

    return _output("maxpool_halve", od, (x,), pull)


def kmax_pool(x: Tensor, k: int) -> Tensor:
    """Keep the k largest values per channel of ``x [B, C, L]``, in original temporal order.

    The ranking runs on one row-major copy with NaN mapped to -inf, so NaN
    ranks with -inf below every number and each row still keeps k; each
    row's L values are contiguous there. ``np.sort`` finds each row's k-th
    largest value, the same exact order statistic as ``np.partition`` at
    less cost here, and every value at or above it is kept. Only the
    rows that then hold more than k, because values equal to it tie, run the
    tie rule: values above it are kept, and values equal to it earliest
    position first until the row holds k, so ties go to the earlier
    position. The kept values are gathered from ``x`` into a channels-last
    output.
    """
    xa = _checked(x, "[B, C, L]", "kmax_pool")
    batch, channels, length = xa.shape
    _check_int("k", k)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > length:
        raise ValueError(f"k={k} exceeds temporal length {length}")
    ranked = np.fmax(xa, -np.inf, order="C").reshape(batch * channels, length)
    kth = np.sort(ranked, axis=1)[:, length - k:length - k + 1]
    keep = ranked >= kth
    if np.count_nonzero(keep) > batch * channels * k:
        over = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
        values, kth = ranked[over], kth[over]
        above = values > kth
        tied = values == kth
        keep[over] = above | (tied & (np.cumsum(tied, axis=1, dtype=np.int32) <= k - above.sum(axis=1, keepdims=True)))
    # row-major: each row's k kept time steps, in temporal order; stored [B, k, C] so that the
    # values gathered with them come out channels-last
    steps = np.ascontiguousarray((np.flatnonzero(keep) % length).reshape(batch, channels, k).transpose(0, 2, 1))
    shape, dtype, sx = xa.shape, xa.dtype, x.slot

    def pull(g):
        gx = _empty(shape, dtype)
        gx.fill(0)
        np.put_along_axis(gx.transpose(0, 2, 1), steps, _channels_last(g).transpose(0, 2, 1), axis=1)
        sx.accumulate_grad(gx)

    return _output("kmax_pool", np.take_along_axis(xa.transpose(0, 2, 1), steps, axis=1).transpose(0, 2, 1), (x,), pull)


def adaptive_avg_pool(x: Tensor, out_len: int) -> Tensor:
    """Mean over contiguous equal bins per channel of ``x [B, C, L]``; L must be positive and divide evenly.

    Forward and backward are one matmul each of the ``[B, L, C]`` view with
    the ``[L, out_len]`` bin matrix, which holds ``1 / (L // out_len)`` where
    time step t falls in bin j.
    """
    xa = _checked(x, "[B, C, L]", "adaptive_avg_pool")
    length = xa.shape[2]
    _check_int("out_len", out_len)
    if out_len < 1:
        raise ValueError(f"output length must be positive, got {out_len}")
    if length == 0:
        raise ValueError(f"temporal length must be positive to pool, got {length}")
    if length % out_len != 0:
        raise ValueError(f"temporal length {length} is not divisible by output length {out_len}")
    binsize = length // out_len
    bins = np.repeat(np.eye(out_len, dtype=xa.dtype), binsize, axis=0) / binsize
    shape, sx = xa.shape, x.slot

    def pull(g):
        gx = _empty(shape, np.result_type(g, bins))
        np.matmul(bins, _channels_last(g).transpose(0, 2, 1), out=gx.transpose(0, 2, 1))
        sx.accumulate_grad(gx)

    return _output("adaptive_avg_pool", np.matmul(bins.T, xa.transpose(0, 2, 1)).transpose(0, 2, 1), (x,), pull)


def flatten_features(x: Tensor) -> Tensor:
    """Collapse ``[B, C, L]`` feature maps to channel-major ``[B, C*L]`` rows, the one copy out of channels-last."""
    xa = _checked(x, "[B, C, L]", "flatten_features")
    batch, channels, length = xa.shape
    sx = x.slot

    def pull(g):
        sx.accumulate_grad(_channels_last(g.reshape(batch, channels, length)))

    return _output("flatten", xa.reshape(batch, channels * length), (x,), pull)


def embedding(indices, table: Tensor) -> Tensor:
    """Look up rows of ``table [V, E]`` for index rows ``[B, s]``; returns maps ``[B, E, s]``, channels-last with no copy."""
    idx = np.asarray(indices)
    if idx.ndim != 2:
        raise ShapeError(f"embedding indices must be [B, s], got shape {idx.shape}")
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError(f"embedding indices must be integers, got dtype {idx.dtype}")
    vocab, dim = table.data.shape
    bad = (idx < 0) | (idx >= vocab)
    if bad.any():
        b0, p0 = np.argwhere(bad)[0]
        raise IndexError(f"character index {idx[b0, p0]} at position {p0} is outside [0, {vocab})")

    shape, dtype, st = table.shape, table.dtype, table.slot

    def pull(g):
        acc = np.zeros(shape, dtype)
        np.add.at(acc, idx.reshape(-1), _rows(_channels_last(g)))
        st.accumulate_grad(acc)

    return _output("embedding", table.data[idx].transpose(0, 2, 1), (table,), pull)


def _batch_norm(op: str, x: Tensor, xa: np.ndarray, xc: np.ndarray, shift, gamma: Tensor, beta: Tensor, var,
                eps: float, batch_stats: bool) -> Tensor:
    """Per-channel ``relu(gamma * xhat + beta)`` with ``xhat = (xa - shift) / sqrt(var + eps)``, for ``xc = xa - shift``.

    ``xa`` is ``x``'s data, channels-last. ``xc`` is the one output buffer:
    it is normalized, scaled, shifted and clipped in place, with every
    per-channel value applied by ``_by_channel``. A recorded call keeps only
    ``xa`` and the mask ``out > 0`` packed to one bit per element
    (``_pack``, through the C-contiguous ``[B, L, C]`` view), a
    thirty-second of a float32 map, so the output is freed once its
    consumers have run. The backward unpacks the mask and masks ``g``,
    recomputes ``xhat`` from ``xa`` with the same operations as the
    forward (bit for bit), then reduces ``g`` and ``g * xhat`` once per
    channel, which are also the beta and gamma gradients, and writes the
    input gradient into ``g`` (and, with batch statistics, ``xhat``): the
    tape runs each pull once. With ``batch_stats`` the statistics were
    computed from ``x`` itself, so the gradient also flows through them.
    """
    inv = 1.0 / np.sqrt(var + eps)
    od = _by_channel(np.multiply, xc, inv, out=xc)
    _by_channel(np.multiply, od, gamma.data, out=od)
    _by_channel(np.add, od, beta.data, out=od)
    np.maximum(od, 0, out=od)
    if not _recorded(x, gamma, beta):
        return _output(op, od, (x, gamma, beta), None)
    positive, gamma_data = _pack(od.transpose(0, 2, 1) > 0), gamma.data
    sx, sg, sb = _slot(x), _slot(gamma), _slot(beta)

    def pull(g):
        g = _channels_last(g)
        g *= _unpack(positive).transpose(0, 2, 1)
        xhat = _by_channel(np.subtract, xa, shift)
        _by_channel(np.multiply, xhat, inv, out=xhat)
        g_sum = _channel_sum(g)
        gx_sum = _channel_sum(g, xhat)
        if sg is not None:
            sg.accumulate_grad(gx_sum)
        if sb is not None:
            sb.accumulate_grad(g_sum)
        if sx is not None:
            if batch_stats:
                count = g.size // g.shape[1]
                g += _by_channel(np.multiply, xhat, -gx_sum / count, out=xhat)
                _by_channel(np.subtract, g, g_sum / count, out=g)
            sx.accumulate_grad(_by_channel(np.multiply, g, gamma_data * inv, out=g))

    return _output(op, od, (x, gamma, beta), pull)


def batch_norm_train(x: Tensor, gamma: Tensor, beta: Tensor, eps: float):
    """Normalize ``x [B, C, L]`` per channel with statistics over the batch and time axes, then ReLU.

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
    xc = _by_channel(np.subtract, xa, mean)
    var = _channel_sum(xc, xc) / count
    out = _batch_norm("batch_norm_train", x, xa, xc, mean, gamma, beta, var, eps, batch_stats=True)
    return out, mean, var, count


def batch_norm_eval(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float,
) -> Tensor:
    """Normalize ``x [B, C, L]`` per channel with fixed running statistics, then ReLU."""
    xa = _checked(x, "[B, C, L]", "batch_norm_eval",
                  gamma=gamma, beta=beta, running_mean=running_mean, running_var=running_var)
    shift = running_mean.copy()  # the backward recomputes xhat from it; the buffer may move before then
    xc = _by_channel(np.subtract, xa, shift)
    return _batch_norm("batch_norm_eval", x, xa, xc, shift, gamma, beta, running_var, eps, batch_stats=False)


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
    if batch == 0:
        raise ShapeError(f"logits must hold at least one row, got shape {logits.shape}")
    lab = np.asarray(labels)
    if lab.shape != (batch,):
        raise ShapeError(f"labels shape {lab.shape} does not match batch size {batch}")
    if not np.issubdtype(lab.dtype, np.integer):
        raise TypeError(f"cross_entropy labels must be integers, got dtype {lab.dtype}")
    if ((lab < 0) | (lab >= classes)).any():
        bad = lab[(lab < 0) | (lab >= classes)][0]
        raise ValueError(f"label {bad} outside [0, {classes})")
    logp = _log_softmax(la)
    sl = logits.slot

    def pull(g):
        p = np.exp(logp)
        p[np.arange(batch), lab] -= 1.0
        sl.accumulate_grad(p * (g / batch))

    return _output("cross_entropy", np.asarray(-logp[np.arange(batch), lab].mean(), dtype=la.dtype), (logits,), pull)
