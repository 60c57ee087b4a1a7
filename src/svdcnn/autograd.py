"""Dense tensors plus a taped reverse-mode differentiation engine.

Values are float32 by default; float64 is supported so gradient checks can
run at full precision.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class StateError(RuntimeError):
    """Operation applied to an object in the wrong state."""


class TapeConsumedError(StateError):
    """A tape drives exactly one reverse pass."""


class NonFiniteError(RuntimeError):
    """A recorded operation produced NaN or Inf."""

    def __init__(self, op_index: int, op_name: str):
        super().__init__(f"operation {op_index} ({op_name}) produced non-finite values")
        self.op_index = op_index
        self.op_name = op_name


class GradSlot:
    """Where a tensor's gradient accumulates, held apart from its data.

    A tape entry and a pull hold the slot of each tensor they route a
    gradient to, not the tensor, so an array is kept for a backward only
    when a pull reads it; the slot records the data's dtype and shape for
    the hand-over rule of :meth:`accumulate_grad`.
    """

    __slots__ = ("grad", "dtype", "shape")

    def __init__(self, dtype, shape: tuple):
        self.grad: Optional[np.ndarray] = None
        self.dtype = dtype
        self.shape = shape

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add ``g`` to ``grad``.

        The first gradient is kept without a copy when it is writeable, owns
        its data and matches the data in dtype and shape, in any memory
        order; otherwise it is copied, keeping its memory order. A caller
        hands such an array over: it must hold no other reference to it that
        it reads or writes later, and must not pass it to a second slot.
        """
        if self.grad is not None:
            self.grad += g
        elif g.flags.writeable and g.flags.owndata and g.dtype == self.dtype and g.shape == self.shape:
            self.grad = g
        else:
            self.grad = np.array(g, dtype=self.dtype, copy=True)


class Tensor:
    """N-dimensional array with an optional gradient buffer.

    The data buffer keeps the memory order it is given (temporal feature
    maps of logical shape ``[B, C, L]`` are stored channels-last, see
    ``functional``) and is treated as immutable once an operation has
    consumed it, its dtype and shape fixed; only ``grad`` accumulates in
    place. ``grad`` lives in the tensor's :class:`GradSlot`, which the
    tape holds in the tensor's place. After :func:`backward`, leaves
    (tensors no recorded operation produced) keep their ``grad``; recorded
    operation outputs have ``grad`` None, because each output's gradient is
    handed to its operation's pull, which may write into it and pass it on.
    """

    __slots__ = ("data", "requires_grad", "slot", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.slot = GradSlot(arr.dtype, arr.shape)

    @property
    def grad(self) -> Optional[np.ndarray]:
        return self.slot.grad

    @grad.setter
    def grad(self, g: Optional[np.ndarray]) -> None:
        self.slot.grad = g

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add ``g`` to ``grad`` by the rules of :meth:`GradSlot.accumulate_grad`."""
        self.slot.accumulate_grad(g)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


class _TapeStack(threading.local):
    """Open tapes of the current thread, innermost last.

    Per thread, so a forward on one thread never records onto a tape that
    another thread holds open.
    """

    def __init__(self):
        self.tapes: list["Tape"] = []


_TAPE_STACK = _TapeStack()


class Tape:
    """Ordered record of executed primitives.

    Operations append themselves in execution order, which is a valid
    topological order of the value graph; one reverse sweep over the record
    populates every reachable gradient. An entry ``(name, slot, pull)`` holds
    the output's :class:`GradSlot` (not the output) and, in ``pull``'s
    closure, the slots of the inputs and the arrays its backward reads; the
    sweep releases both (see :func:`backward`), keeping the names and the
    length.
    """

    def __init__(self):
        self._entries: list[tuple[str, GradSlot, Callable[[np.ndarray], None]]] = []
        self.consumed = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPE_STACK.tapes.pop()
        return False

    def append(self, name: str, out: Tensor, pull: Callable[[np.ndarray], None]) -> None:
        self._entries.append((name, out.slot, pull))

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self):
        return tuple(self._entries)


def active_tape() -> Optional[Tape]:
    tapes = _TAPE_STACK.tapes
    return tapes[-1] if tapes else None


def backward(loss: Tensor, tape: Tape) -> None:
    """Run the reverse pass of ``tape`` seeded at a scalar ``loss``.

    Every leaf with ``requires_grad`` reachable from the loss gets its
    gradient populated; tensors not on a path to the loss are untouched.
    Each recorded output's ``grad`` is dropped before its pull runs, so the
    pull holds the only reference to the array it receives: it may write
    into it and hand it to :meth:`GradSlot.accumulate_grad` of one input.
    Once its pull has run, each entry becomes ``(name, None, None)``, so an
    array a pull reads is freed as soon as the sweep has passed the last
    pull that reads it, if no caller holds it, while the tape is still alive.
    """
    if tape.consumed:
        raise TapeConsumedError("tape was already consumed by a previous backward pass")
    if loss.data.size != 1:
        raise ValueError(f"loss must be a scalar, got shape {loss.shape}")
    if len(tape) == 0:
        raise ValueError("tape is empty: the loss was not produced by recorded operations")
    tape.consumed = True
    loss.accumulate_grad(np.ones_like(loss.data))
    entries = tape._entries
    for i in reversed(range(len(entries))):
        name, slot, pull = entries[i]
        g, slot.grad = slot.grad, None
        if g is not None:
            pull(g)
        entries[i] = (name, None, None)


class _FiniteCheckTape(Tape):
    """A tape that notes its first entry whose output holds NaN or Inf, while the output is still alive."""

    def __init__(self):
        super().__init__()
        self.first_non_finite: Optional[tuple[int, str]] = None

    def append(self, name: str, out: Tensor, pull: Callable[[np.ndarray], None]) -> None:
        if self.first_non_finite is None and not np.all(np.isfinite(out.data)):
            self.first_non_finite = (len(self), name)
        super().append(name, out, pull)


def grad_check(
    f: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-3,
    max_entries_per_input: Optional[int] = None,
    seed: int = 0,
) -> float:
    """Compare taped gradients of a scalar function with central differences.

    ``f(*inputs)`` must return a scalar tensor and be deterministic. Returns
    the worst relative error ``|analytic - numeric| / max(|analytic|,
    |numeric|, 1e-8)`` over the checked entries. With
    ``max_entries_per_input`` set, a seeded sample of entries per input is
    checked instead of all of them.
    """
    if not 0.0 < eps <= 0.1:
        raise ValueError(f"eps must be in (0, 0.1], got {eps}")
    inputs = list(inputs)
    for t in inputs:
        if not t.requires_grad:
            raise ValueError("grad_check inputs must have requires_grad=True")
        t.grad = None
    with _FiniteCheckTape() as tape:
        out = f(*inputs)
    if out.data.size != 1:
        raise ValueError(f"f must return a scalar, got shape {out.shape}")
    if tape.first_non_finite is not None:
        raise NonFiniteError(*tape.first_non_finite)
    backward(out, tape)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in inputs:
        data = t.data
        analytic = t.grad if t.grad is not None else np.zeros_like(data)
        n = data.size
        if max_entries_per_input is not None and n > max_entries_per_input:
            positions = rng.choice(n, size=max_entries_per_input, replace=False)
        else:
            positions = np.arange(n)
        for j in positions:
            at = np.unravel_index(j, data.shape)  # an entry of data itself, whatever its memory order
            saved = data[at]
            data[at] = saved + eps
            hi = f(*inputs).data.item()
            x_hi = float(data[at])
            data[at] = saved - eps
            lo = f(*inputs).data.item()
            x_lo = float(data[at])
            data[at] = saved
            numeric = (hi - lo) / (x_hi - x_lo)
            a = float(analytic[at])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
