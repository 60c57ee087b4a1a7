"""Cross-entropy training with momentum SGD, evaluation and checkpoints."""

from __future__ import annotations

import math
import os
import struct
import uuid
from dataclasses import dataclass

import numpy as np

from .architecture import FAMILIES, ArchitectureSpec, Model
from .autograd import StateError, Tape, Tensor, backward
from .data import Dataset, make_batches
from .functional import cross_entropy

__all__ = [
    "TrainConfig",
    "SGD",
    "EpochStats",
    "TrainingDivergedError",
    "MissingGradientError",
    "train",
    "evaluate",
    "save_checkpoint",
    "load_checkpoint",
    "cross_entropy",
]


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.001
    batch_size: int = 64
    max_epochs: int = 100
    seed: int = 0
    eval_every: int = 1

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(f"weight decay must be non-negative, got {self.weight_decay}")
        if self.batch_size < 2:
            raise ValueError(f"batch size must be at least 2 for batch statistics, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ValueError(f"epoch budget must be positive, got {self.max_epochs}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be positive, got {self.eval_every}")


class MissingGradientError(StateError):
    """An optimizer step was requested before gradients were populated."""


class SGD:
    """Momentum SGD with decoupled-free weight decay.

    Per step: g = grad + weight_decay * param; v = momentum * v + g;
    param -= lr * v. All learned parameters, including normalization scales
    and shifts, receive weight decay; running statistics are never touched.
    """

    def __init__(self, params: list[Tensor], lr: float, momentum: float, weight_decay: float):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        for p, v in zip(self.params, self.velocity):
            if p.grad is None:
                raise MissingGradientError("parameter has no gradient; run backward before step")
            g = p.grad + self.weight_decay * p.data
            v *= self.momentum
            v += g
            p.data -= self.lr * v


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_accuracy: float | None  # None on epochs that were not evaluated


class TrainingDivergedError(RuntimeError):
    """The loss became non-finite."""

    def __init__(self, epoch: int, batch_index: int, loss_value: float):
        super().__init__(f"non-finite loss {loss_value} at epoch {epoch}, batch {batch_index}")
        self.epoch = epoch
        self.batch_index = batch_index
        self.loss_value = loss_value


def predict_logits(model: Model, indices, batch_size: int = 256) -> np.ndarray:
    """Eval-mode logits ``[N, classes]`` of index rows ``[N, s]``, ``batch_size`` rows per forward."""
    model.eval()
    batches = [model.forward(indices[start:start + batch_size]).data for start in range(0, len(indices), batch_size)]
    if not batches:
        return np.zeros((0, model.spec.n_classes), dtype=model.embedding.table.dtype)
    return np.concatenate(batches)


def evaluate(model: Model, dataset: Dataset, batch_size: int = 256) -> float:
    """Eval-mode accuracy; argmax ties resolve to the lowest class index."""
    logits = predict_logits(model, dataset.indices, batch_size)
    return int((logits.argmax(axis=1) == dataset.labels).sum()) / len(dataset)


def train(model: Model, train_set: Dataset, val_set: Dataset, cfg: TrainConfig) -> list[EpochStats]:
    """Fixed-budget epoch loop; the best-validation weights are kept.

    The model ends holding the weights of the first evaluated epoch that
    reached the best validation accuracy (the last epoch if none was
    evaluated), and ``model.checkpoint_epoch`` names that epoch. A
    one-sample final batch joins the batch before it.
    Deterministic for a given seed. Raises TrainingDivergedError on a
    non-finite loss.
    """
    if train_set.n_classes != val_set.n_classes or train_set.n_classes != model.spec.n_classes:
        raise ValueError("model and datasets disagree on the number of classes")
    if len(train_set) < 2:
        raise ValueError(
            f"training set has {len(train_set)} sample(s); a train-mode batch needs at least 2 "
            f"(batch size {cfg.batch_size})"
        )
    opt = SGD(model.parameters(), cfg.lr, cfg.momentum, cfg.weight_decay)
    history: list[EpochStats] = []
    best_acc = -1.0
    best_state = None
    best_epoch = cfg.max_epochs
    for epoch in range(1, cfg.max_epochs + 1):
        model.train()
        losses = []
        batches = make_batches(train_set, cfg.batch_size, cfg.seed + epoch)
        if len(batches[-1][1]) == 1:
            # a train-mode forward needs two samples for batch statistics
            (idx, labels), (last_idx, last_labels) = batches[-2], batches.pop()
            batches[-1] = (np.concatenate([idx, last_idx]), np.concatenate([labels, last_labels]))
        for batch_index, (idx, labels) in enumerate(batches):
            opt.zero_grad()
            with Tape() as tape:
                loss = cross_entropy(model.forward(idx), labels)
            loss_value = loss.data.item()
            if not math.isfinite(loss_value):
                raise TrainingDivergedError(epoch, batch_index, loss_value)
            backward(loss, tape)
            opt.step()
            losses.append(loss_value)
        val_acc = None
        if epoch % cfg.eval_every == 0:
            val_acc = evaluate(model, val_set)
            if val_acc > best_acc:
                best_acc = val_acc
                best_epoch = epoch
                best_state = [a.copy() for _n, a in _model_arrays(model)]
        history.append(EpochStats(epoch, float(np.mean(losses)), val_acc))
    if best_state is not None:
        for (_n, a), saved in zip(_model_arrays(model), best_state):
            a[...] = saved
    model.checkpoint_epoch = best_epoch
    model.eval()
    return history


# Checkpoint layout: magic "SVDC", version u16, then nine little-endian u32
# fields (family code, depth, seq_len, embed_dim, vocab_size, n_classes,
# fc_hidden, pooled_len, epoch), then every parameter array followed by every
# buffer array in model order, each as a u64 length plus raw little-endian
# float32 values.
CHECKPOINT_MAGIC = b"SVDC"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file could not be read."""


class CheckpointMagicError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


class CheckpointLengthError(CheckpointError):
    pass


def _model_arrays(model: Model) -> list[tuple[str, np.ndarray]]:
    out = [(name, t.data) for name, t, _c in model.named_params()]
    out += model.named_buffers()
    return out


def save_checkpoint(model: Model, path, epoch: int = 0) -> None:
    """Write ``model`` to a synced temporary file renamed onto ``path``: a failed write leaves the old file intact."""
    spec = model.spec
    fields = (
        FAMILIES.index(spec.family),
        spec.depth,
        spec.seq_len,
        spec.embed_dim,
        spec.vocab_size,
        spec.n_classes,
        spec.fc_hidden,
        spec.pooled_len,
        int(epoch),
    )
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<H", CHECKPOINT_VERSION))
            fh.write(struct.pack("<9I", *fields))
            for _name, arr in _model_arrays(model):
                fh.write(struct.pack("<Q", arr.size))
                fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> Model:
    """Rebuild a model from a checkpoint, validating the format strictly."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointMagicError(f"{path}: bad magic bytes")
    if len(blob) < 6:
        raise CheckpointTruncatedError(f"{path}: truncated before version field")
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(f"{path}: unsupported version {version}")
    header_end = 6 + 9 * 4
    if len(blob) < header_end:
        raise CheckpointTruncatedError(f"{path}: truncated header")
    fields = struct.unpack_from("<9I", blob, 6)
    family_code, depth, seq_len, embed_dim, vocab_size, n_classes, fc_hidden, pooled_len, epoch = fields
    if family_code >= len(FAMILIES):
        raise CheckpointError(f"{path}: unknown family code {family_code}")
    try:
        spec = ArchitectureSpec(
            family=FAMILIES[family_code],
            depth=depth,
            seq_len=seq_len,
            embed_dim=embed_dim,
            vocab_size=vocab_size,
            n_classes=n_classes,
            fc_hidden=fc_hidden,
            pooled_len=pooled_len,
        )
    except ValueError as exc:
        raise CheckpointError(f"{path}: invalid architecture fields: {exc}") from None
    model = Model(spec, seed=None)
    offset = header_end
    for name, arr in _model_arrays(model):
        if offset + 8 > len(blob):
            raise CheckpointTruncatedError(f"{path}: truncated before length of {name}")
        (n,) = struct.unpack_from("<Q", blob, offset)
        offset += 8
        if n != arr.size:
            raise CheckpointLengthError(f"{path}: {name} has {n} values, expected {arr.size}")
        end = offset + n * 4
        if end > len(blob):
            raise CheckpointTruncatedError(f"{path}: truncated inside {name}")
        arr[...] = np.frombuffer(blob, dtype="<f4", count=n, offset=offset).reshape(arr.shape)
        offset = end
    if offset != len(blob):
        raise CheckpointLengthError(f"{path}: {len(blob) - offset} trailing bytes")
    model.checkpoint_epoch = epoch
    model.eval()
    return model
