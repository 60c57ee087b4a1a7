"""Taped elementwise product and full sum, for building scalar test losses.

The network never multiplies two activations or sums a map to a scalar, so
these two operations live with the tests. They follow the package's
recording rule through its public tape API: an output needs a gradient
exactly when an input does, and only then is its pull appended to the
innermost open tape.
"""

import numpy as np

from svdcnn.autograd import ShapeError, Tensor, active_tape


def _output(name, data, inputs, pull):
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs))
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.append(name, out, pull)
    return out


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
