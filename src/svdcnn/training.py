"""Cross-entropy training with momentum SGD, evaluation and checkpoints."""

from __future__ import annotations

import math
import mmap
import os
import struct
import sys
import uuid
from dataclasses import astuple, dataclass, fields

import numpy as np

from .architecture import FAMILIES, ArchitectureSpec, Model, closed_form_params
from .autograd import StateError, Tape, Tensor, backward
from .data import Dataset, make_batches
from .functional import cross_entropy

PREDICT_BATCH = 256  # rows per eval forward in predict_logits and evaluate


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
        if not 0 < self.lr < math.inf:  # NaN fails every comparison
            raise ValueError(f"learning rate must be positive and finite, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight decay must be non-negative and finite, got {self.weight_decay}")
        if self.batch_size < 2:
            raise ValueError(f"batch size must be at least 2 for batch statistics, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ValueError(f"epoch budget must be positive, got {self.max_epochs}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be positive, got {self.eval_every}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


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
        """One update of every parameter; if any lacks a gradient, raises before the first update."""
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise MissingGradientError(
                    f"parameter {i} (shape {p.shape}) has no gradient; run backward before step")
        for p, v in zip(self.params, self.velocity):
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


def predict_logits(model: Model, indices) -> np.ndarray:
    """Eval-mode logits ``[N, classes]`` of index rows ``[N, s]``, ``PREDICT_BATCH`` rows per forward.

    A model with any module not in eval mode is put in eval mode first; one
    already in eval mode keeps the batch-norm folds its last ``eval()``
    built, so an in-place write to its weights shows after the caller's next
    ``eval()``.
    """
    if any(m.mode != "eval" for m in model.modules()):
        model.eval()
    batches = [model.forward(indices[start:start + PREDICT_BATCH]).data
               for start in range(0, len(indices), PREDICT_BATCH)]
    if not batches:
        return np.zeros((0, model.spec.n_classes), dtype=model.embedding.table.dtype)
    return np.concatenate(batches)


def evaluate(model: Model, dataset: Dataset) -> float:
    """Eval-mode accuracy; argmax ties resolve to the lowest class index."""
    if dataset.n_classes != model.spec.n_classes:
        raise ValueError(f"dataset has {dataset.n_classes} classes but the model has {model.spec.n_classes}")
    logits = predict_logits(model, dataset.indices)
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


# Checkpoint layout: magic "SVDC", version u16, then one little-endian u32
# per ArchitectureSpec field in declaration order (the family as its index in
# FAMILIES), then the epoch as one more u32. Every parameter array follows,
# then every buffer array, in model order, each as a u64 length, zero padding
# that starts the values at a file offset that is a multiple of the version's
# alignment, then the raw little-endian float32 values. Version 2 aligns to 64
# bytes, so a load can use the values where they lie in a map of the file;
# version 1 has no padding.
CHECKPOINT_MAGIC = b"SVDC"
CHECKPOINT_VERSION = 2
_ALIGNMENT = {1: 1, CHECKPOINT_VERSION: 64}  # version -> file-offset alignment of each array's values
# Unix Python >= 3.13 maps without keeping a duplicate of the file descriptor; 3.10-3.12 keep one per map
_MAP_KEYWORDS = {"trackfd": False} if sys.version_info >= (3, 13) and os.name == "posix" else {}
_HEADER = struct.Struct(f"<{len(fields(ArchitectureSpec)) + 1}I")


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


def _array_homes(model: Model) -> list[tuple[str, object, str]]:
    """``(name, owner, attribute)`` of each array in checkpoint order: each parameter's ``Tensor.data``, then each
    buffer as an attribute of its module."""
    walk = list(model._walk())
    return ([(name, value, "data") for name, value, _owner, _attr in walk if isinstance(value, Tensor)]
            + [(name, owner, attr) for name, value, owner, attr in walk if isinstance(value, np.ndarray)])


def _model_arrays(model: Model) -> list[tuple[str, np.ndarray]]:
    return [(name, getattr(owner, attr)) for name, owner, attr in _array_homes(model)]


def save_checkpoint(model: Model, path, epoch: int = 0) -> None:
    """Write ``model`` to a synced temporary file renamed onto ``path``: a failed write leaves the old file intact."""
    spec = model.spec
    header = (FAMILIES.index(spec.family), *astuple(spec)[1:], int(epoch))
    for name, value in zip([f.name for f in fields(ArchitectureSpec)] + ["epoch"], header):
        if not 0 <= value < 2**32:
            raise ValueError(f"checkpoint {name} must fit an unsigned 32-bit header field, got {value}")
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<H", CHECKPOINT_VERSION))
            fh.write(_HEADER.pack(*header))
            for _name, arr in _model_arrays(model):
                fh.write(struct.pack("<Q", arr.size))
                fh.write(bytes(-fh.tell() % _ALIGNMENT[CHECKPOINT_VERSION]))
                fh.write(np.ascontiguousarray(arr, dtype="<f4"))  # the array's own memory on a little-endian host
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> Model:
    """Rebuild a model from a checkpoint, validating the format strictly.

    The file is mapped once, copy-on-write (``mmap.ACCESS_COPY``), and every
    parameter's ``Tensor.data`` and every buffer becomes a view of its values
    in the map, so a load copies nothing, processes that load one file share
    its pages, and writes into the model (an SGD step) stay private to the
    process. A view that is not aligned or not native-endian (every array of
    a version-1 file, every array on a big-endian host) is copied instead.
    The caller must not truncate or rewrite the file in place while the model
    lives; ``save_checkpoint`` replaces a file by rename, which is safe.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header_end = 6 + _HEADER.size
        head = fh.read(header_end)
        if len(head) < 4 or head[:4] != CHECKPOINT_MAGIC:
            raise CheckpointMagicError(f"{path}: bad magic bytes")
        if len(head) < 6:
            raise CheckpointTruncatedError(f"{path}: truncated before version field")
        (version,) = struct.unpack_from("<H", head, 4)
        if version not in _ALIGNMENT:
            raise CheckpointVersionError(f"{path}: unsupported version {version}")
        if len(head) < header_end:
            raise CheckpointTruncatedError(f"{path}: truncated header")
        family_code, *values, epoch = _HEADER.unpack_from(head, 6)
        if family_code >= len(FAMILIES):
            raise CheckpointError(f"{path}: unknown family code {family_code}")
        try:
            spec = ArchitectureSpec(FAMILIES[family_code], *values)
        except ValueError as exc:
            raise CheckpointError(f"{path}: invalid architecture fields: {exc}") from None
        needed = header_end + 4 * closed_form_params(spec).total  # checked before the model is allocated
        if needed > size:
            raise CheckpointTruncatedError(f"{path}: its header needs at least {needed:,} bytes, the file has {size:,}")
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY, **_MAP_KEYWORDS)
    model = Model(spec, seed=None)
    homes = _array_homes(model)
    # every length prefix and extent is checked before the first view, so a failed load closes the map (and,
    # before Python 3.13, its descriptor) at once, not when its traceback goes
    starts, offset = [], header_end
    try:
        for name, owner, attr in homes:
            n = getattr(owner, attr).size
            if offset + 8 > size:
                raise CheckpointTruncatedError(f"{path}: truncated before length of {name}")
            (stored,) = struct.unpack_from("<Q", mapped, offset)
            if stored != n:
                raise CheckpointLengthError(f"{path}: {name} has {stored} values, expected {n}")
            offset += 8
            offset += -offset % _ALIGNMENT[version]
            if offset + 4 * n > size:
                raise CheckpointTruncatedError(f"{path}: truncated inside {name}")
            starts.append(offset)
            offset += 4 * n
        if offset != size:
            raise CheckpointLengthError(f"{path}: {size - offset} trailing bytes")
    except CheckpointError:
        mapped.close()
        raise
    for (_name, owner, attr), start in zip(homes, starts):
        built = getattr(owner, attr)
        arr = np.frombuffer(mapped, "<f4", built.size, start)
        if not (arr.dtype.isnative and arr.flags.aligned):
            arr = arr.astype(np.float32)
        setattr(owner, attr, arr.reshape(built.shape))
    model.checkpoint_epoch = epoch
    model.eval()
    return model
