"""Character dictionary, text quantization, CSV ingestion and batching."""

from __future__ import annotations

import codecs
import csv
import io
import string
import warnings
from dataclasses import dataclass

import numpy as np

from .autograd import _check_int

# 69 printable symbols: lowercase letters, digits, ASCII punctuation and the
# space character. Index 0 is reserved for padding/unknown, so the table has
# one more row than there are symbols.
ALPHABET = string.ascii_lowercase + string.digits + string.punctuation + " "

SYNTH_SIGNAL = 0.4  # per-position probability of a synthetic text's class letter


class IngestionError(ValueError):
    """A dataset file could not be parsed."""


class IngestionWarning(UserWarning):
    """Text was read, but some of its bytes were not valid UTF-8."""


class Vocabulary:
    """The fixed dictionary ``ALPHABET`` with a padding token at index 0.

    Characters not in the dictionary map to the padding index. Lookup goes
    through a uint8 table indexed by code point; its trailing entry is 0 and
    every code point past the table clamps to it.
    """

    size = len(ALPHABET) + 1

    def __init__(self):
        codes = [ord(ch) for ch in ALPHABET]
        self._table = np.zeros(max(codes) + 2, dtype=np.uint8)
        self._table[codes] = np.arange(1, len(codes) + 1)

    def _lookup(self, codes) -> np.ndarray:
        """uint8 indices of an array of code points."""
        return self._table[np.minimum(codes, len(self._table) - 1)]


def quantize(text: str, vocab: Vocabulary, seq_len: int) -> np.ndarray:
    """Map lowercased text to exactly ``seq_len`` int64 indices.

    Longer texts are truncated, shorter ones right-padded with 0. Lone
    surrogates are looked up like any other code point outside the
    dictionary.
    """
    _check_int("seq_len", seq_len)
    if seq_len < 1:
        raise ValueError(f"sequence length must be positive, got {seq_len}")
    codes = np.frombuffer(text.lower()[:seq_len].encode("utf-32-le", "surrogatepass"), dtype="<u4")
    out = np.zeros(seq_len, dtype=np.int64)
    out[:len(codes)] = vocab._lookup(codes)
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """Quantized texts: ``indices`` uint8 ``[N, s]`` and ``labels`` int64 ``[N]``."""

    indices: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        _check_int("n_classes", self.n_classes)
        labels = np.asarray(self.labels)
        if self.indices.dtype != np.uint8 or self.indices.ndim != 2 or labels.shape != self.indices.shape[:1]:
            raise ValueError(f"expected uint8 indices [N, s] and labels [N], got {self.indices.dtype} "
                             f"indices {self.indices.shape} and labels {labels.shape}")
        if not len(labels):
            raise ValueError("dataset must be non-empty")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
        object.__setattr__(self, "labels", labels.astype(np.int64, copy=False))
        bad = self.labels[(self.labels < 0) | (self.labels >= self.n_classes)]
        if bad.size:
            raise ValueError(f"label {bad[0]} outside [0, {self.n_classes})")

    def __len__(self) -> int:
        return len(self.labels)


def _decode(raw: bytes, label) -> str:
    """Text of ``raw`` for training and prediction alike: a leading UTF-8 BOM is dropped and each undecodable
    sequence becomes U+FFFD, counted in one ``IngestionWarning`` naming ``label``."""
    raw = raw.removeprefix(codecs.BOM_UTF8)
    text = raw.decode("utf-8", errors="replace")
    replaced = text.count("\ufffd") - raw.count("\ufffd".encode())
    if replaced:
        warnings.warn(f"{label}: {replaced} undecodable byte sequence(s) replaced with U+FFFD", IngestionWarning,
                      stacklevel=3)
    return text


def _quantize_rows(texts: list[str], seq_len: int) -> np.ndarray:
    """uint8 ``[len(texts), seq_len]`` rows of ``quantize`` over the fixed dictionary."""
    vocab = Vocabulary()
    return np.array([quantize(text, vocab, seq_len) for text in texts], dtype=np.uint8).reshape(len(texts), seq_len)


def load_csv(path, n_classes: int, seq_len: int) -> Dataset:
    """Read a class-first CSV: 1-indexed integer class, then text fields.

    Text fields are joined with a single space before quantization. Quoted
    fields with embedded commas and doubled quotes are handled by the CSV
    layer. The bytes are read as ``svdcnn predict`` reads them: a leading
    UTF-8 BOM is dropped, and each undecodable sequence becomes U+FFFD,
    counted in an ``IngestionWarning``.
    """
    _check_int("n_classes", n_classes)
    with open(path, "rb") as fh:
        content = _decode(fh.read(), path)
    texts, labels = [], []
    for lineno, row in enumerate(csv.reader(io.StringIO(content, newline="")), start=1):
        if not row:
            continue
        if len(row) < 2:
            raise IngestionError(f"{path}, line {lineno}: expected at least 2 fields, got {len(row)}")
        try:
            cls = int(row[0])
        except ValueError:
            raise IngestionError(f"{path}, line {lineno}: class field {row[0]!r} is not an integer") from None
        if cls < 1 or cls > n_classes:
            raise IngestionError(f"{path}, line {lineno}: class {cls} outside [1, {n_classes}]")
        texts.append(" ".join(row[1:]))
        labels.append(cls - 1)
    if not texts:
        raise IngestionError(f"{path}: no samples found")
    return Dataset(_quantize_rows(texts, seq_len), np.array(labels), n_classes)


def make_batches(dataset: Dataset, batch_size: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded shuffle into ``(indices [b, s] int64, labels [b])`` batches.

    Every sample appears exactly once; the final partial batch is kept.
    """
    _check_int("batch_size", batch_size)
    _check_int("seed", seed)
    if batch_size < 1:
        raise ValueError(f"batch size must be positive, got {batch_size}")
    order = np.random.default_rng(seed).permutation(len(dataset))
    chunks = [order[start:start + batch_size] for start in range(0, len(dataset), batch_size)]
    return [(dataset.indices[chunk].astype(np.int64), dataset.labels[chunk]) for chunk in chunks]


def split_dataset(dataset: Dataset, val_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded train/validation split keeping at least one sample per side."""
    _check_int("seed", seed)
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0, 1), got {val_fraction}")
    if len(dataset) < 2:
        raise ValueError(f"cannot split {len(dataset)} sample(s) into a train and a validation set; need at least 2")
    order = np.random.default_rng(seed).permutation(len(dataset))
    n_val = min(max(1, int(round(len(dataset) * val_fraction))), len(dataset) - 1)
    val, train = order[:n_val], order[n_val:]
    return tuple(Dataset(dataset.indices[part], dataset.labels[part], dataset.n_classes) for part in (train, val))


def synth_dataset(n: int, n_classes: int, seq_len: int, seed: int) -> Dataset:
    """Synthetic class-tagged text, linearly learnable from character counts.

    Class ``c`` texts over-represent the letter ``chr(ord('a') + c)`` with
    probability ``SYNTH_SIGNAL`` per position; the rest is uniform over the
    alphabet. Labels are assigned round-robin, so class counts are exact.
    """
    _check_int("n", n)
    _check_int("seq_len", seq_len)
    _check_int("seed", seed)
    if n_classes < 1 or n_classes > 26:
        raise ValueError(f"n_classes must be in [1, 26], got {n_classes}")
    if n < n_classes:
        raise ValueError(f"need at least one sample per class, got n={n}")
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % n_classes
    indices = np.empty((n, seq_len), dtype=np.uint8)
    for i, label in enumerate(labels):
        base = rng.integers(0, len(ALPHABET), size=seq_len)
        mask = rng.random(seq_len) < SYNTH_SIGNAL
        # ALPHABET[j] has index j + 1; it starts with a-z, so letter c has index c + 1
        indices[i] = np.where(mask, label + 1, base + 1)
    return Dataset(indices, labels, n_classes)
