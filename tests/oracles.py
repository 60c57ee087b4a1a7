"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately naive (plain loops over definitions) and
shares no code with the package.
"""

import numpy as np


def conv1d_direct(x, w, b, padding):
    """Triple-loop temporal convolution over one instance."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    in_ch, length = x.shape
    out_ch, _, k = w.shape
    padded = np.zeros((in_ch, length + 2 * padding))
    padded[:, padding:padding + length] = x
    t_out = length + 2 * padding - k + 1
    out = np.zeros((out_ch, t_out))
    for o in range(out_ch):
        for t in range(t_out):
            acc = 0.0 if b is None else float(b[o])
            for i in range(in_ch):
                for kk in range(k):
                    acc += w[o, i, kk] * padded[i, t + kk]
            out[o, t] = acc
    return out


def depthwise_conv1d_direct(x, w, padding):
    """Per-channel loop convolution over one instance."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    channels, length = x.shape
    _, k = w.shape
    padded = np.zeros((channels, length + 2 * padding))
    padded[:, padding:padding + length] = x
    t_out = length + 2 * padding - k + 1
    out = np.zeros((channels, t_out))
    for c in range(channels):
        for t in range(t_out):
            out[c, t] = sum(w[c, kk] * padded[c, t + kk] for kk in range(k))
    return out


def matvec_direct(w, x, b):
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(w.shape[0])
    for m in range(w.shape[0]):
        out[m] = float(b[m]) + sum(w[m, n] * x[n] for n in range(w.shape[1]))
    return out


def kmax_direct(row, k):
    """Sort-and-reselect: k largest values, earliest position wins ties,

    returned in original temporal order."""
    ranked = sorted(range(len(row)), key=lambda i: (-row[i], i))[:k]
    return [row[i] for i in sorted(ranked)]


def maxpool_direct(row):
    """Windows of 3 at stride 2 over the row with one zero of padding per side.

    Returns each window's maximum and its position in the row (-1 or
    len(row) when a padding zero wins); the earliest position wins ties.
    """
    padded = [0.0] + [float(v) for v in row] + [0.0]
    values, positions = [], []
    for t in range((len(row) + 1) // 2):
        best = 2 * t
        for j in (2 * t + 1, 2 * t + 2):
            if padded[j] > padded[best]:
                best = j
        values.append(padded[best])
        positions.append(best - 1)
    return values, positions


def central_difference(f, x, j, eps):
    """Two-sided derivative estimate of scalar f at entry j of flat array x."""
    saved = x[j]
    x[j] = saved + eps
    hi = f()
    x[j] = saved - eps
    lo = f()
    x[j] = saved
    return (hi - lo) / (2 * eps)


def histogram_classifier(rows, n_classes, signature_indices):
    """Predict the class whose signature character index is most frequent."""
    predictions = []
    for row in rows:
        counts = [int((row == sig).sum()) for sig in signature_indices[:n_classes]]
        predictions.append(int(np.argmax(counts)))
    return predictions


def quantize_direct(text, characters, seq_len):
    """Per-character dictionary lookup of the lowercased, truncated text."""
    out = np.zeros(seq_len, dtype=np.int64)
    lookup = {ch: i + 1 for i, ch in enumerate(characters)}
    for i, ch in enumerate(text.lower()[:seq_len]):
        out[i] = lookup.get(ch, 0)
    return out


def level_shapes(model, indices):
    """(channels, length) after each level's blocks in one forward of ``model``.

    Each level's last block gets a per-instance ``forward`` override that
    records its output shape; the model's parameter walk skips such
    overrides, and they are removed afterwards.
    """
    shapes = []
    for blocks in model.levels:
        def record(x, forward=blocks[-1].forward):
            out = forward(x)
            shapes.append((out.shape[1], out.shape[2]))
            return out
        blocks[-1].forward = record
    try:
        model.forward(indices)
    finally:
        for blocks in model.levels:
            del blocks[-1].forward
    return shapes


MEMORY_ORDERS = ("c_contiguous", "channels_last")


def in_memory_order(a, order):
    """A copy of ``a [B, C, L]`` stored C-contiguous, or channels-last (strides ``(L*C, 1, C)`` in items)."""
    if order == "c_contiguous":
        return np.ascontiguousarray(a)
    return np.ascontiguousarray(np.swapaxes(a, 1, 2)).swapaxes(1, 2)


def as_float64(module):
    """Cast every parameter and buffer of ``module`` and the modules below it to float64; returns ``module``.

    The package builds float32 modules; float64 keeps finite differences and
    tight comparisons clean. A parameter keeps its identity (its ``data`` is
    replaced); a buffer attribute is replaced by a float64 copy.
    """
    for m in module.modules():
        for name, value in list(vars(m).items()):
            if isinstance(value, np.ndarray):
                setattr(m, name, value.astype(np.float64))
            elif isinstance(getattr(value, "data", None), np.ndarray):
                value.data = value.data.astype(np.float64)
    return module
