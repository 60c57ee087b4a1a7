"""Seeded inputs for the benchmark: raw texts, a training CSV and checkpoints.

Text lengths straddle the sequence length, so some inputs are padded and
some truncated; padded tails are runs of identical values, which gives the
pools ties to break. Texts mix upper case and characters outside the
dictionary so quantization maps, lowercases and drops real characters.
"""

from __future__ import annotations

import csv
import string

import numpy as np

_IN_DICT = string.ascii_lowercase + string.digits + string.punctuation + " "
_UPPER = string.ascii_uppercase
_OUT_OF_DICT = "éüßñ€中\t"
_POOL = np.array(list(_IN_DICT + _UPPER + _OUT_OF_DICT))
_WEIGHTS = np.array([0.80 / len(_IN_DICT)] * len(_IN_DICT) + [0.14 / len(_UPPER)] * len(_UPPER)
                    + [0.06 / len(_OUT_OF_DICT)] * len(_OUT_OF_DICT))


_SIGNAL = 0.4  # share of a labelled text's characters that carry its class letter


def texts(rng: np.random.Generator, n: int, seq_len: int, label_of=None) -> list[str]:
    """``n`` texts of 1/4 to 3/2 times ``seq_len`` characters.

    With ``label_of(i)`` given, text i over-represents the letter of its
    class (in either case) so a classifier can learn it.
    """
    out = []
    for i in range(n):
        length = int(rng.integers(seq_len // 4, 3 * seq_len // 2 + 1))
        chars = rng.choice(_POOL, size=length, p=_WEIGHTS)
        if label_of is not None:
            letter = chr(ord("a") + label_of(i))
            tagged = rng.random(length) < _SIGNAL
            chars[tagged] = np.where(rng.random(int(tagged.sum())) < 0.5, letter, letter.upper())
        out.append("".join(chars))
    return out


def write_csv(path, rng: np.random.Generator, n: int, n_classes: int, seq_len: int) -> list[tuple[str, int]]:
    """Write a class-first CSV (1-indexed class, one text field) and return its rows."""
    rows = list(zip(texts(rng, n, seq_len, label_of=lambda i: i % n_classes), (i % n_classes for i in range(n))))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for text, label in rows:
            writer.writerow([label + 1, text])
    return rows


def randomize(model, rng: np.random.Generator) -> None:
    """Give a fresh model a non-degenerate state.

    A fresh model has a zero logit layer (so every logit is exactly 0 and
    any argmax check passes) and zero scale on each block's closing
    normalization (so every block is the identity). Randomizing the head,
    every normalization scale and shift and the running statistics makes
    every layer reach the logits.
    """
    for name, tensor, category in model.named_params():
        a = tensor.data
        if category == "fc":
            fan_in = a.shape[1] if a.ndim == 2 else 1
            a[...] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), a.shape)
        elif name.endswith(".gamma"):
            a[...] = rng.uniform(0.2, 0.6, a.shape)
        elif name.endswith(".beta"):
            a[...] = rng.normal(0.0, 0.1, a.shape)
    for name, buf in model.named_buffers():
        if name.endswith("running_mean"):
            buf[...] = rng.normal(0.0, 0.1, buf.shape)
        else:
            buf[...] = rng.uniform(0.5, 2.0, buf.shape)


def standardize_logits(model, calibration_logits) -> None:
    """Rescale the logit layer so the calibration texts' logits have zero mean
    and unit spread per class. Which class wins then depends on the text
    rather than on the random bias, and logits are of order 1."""
    named = [(name, t) for name, t, category in model.named_params() if category == "fc"]
    (_, weight), (_, bias) = named[-2:]
    logits = np.asarray(calibration_logits, dtype=np.float64)
    scale = 1.0 / logits.std(axis=0)
    weight.data *= scale[:, None].astype(weight.data.dtype)
    bias.data[...] = (bias.data - logits.mean(axis=0)) * scale
