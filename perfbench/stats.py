"""Summary statistics and sampling rules of the benchmark."""

from __future__ import annotations

import numpy as np

# The tail is read where at least this many samples lie beyond it, so it is
# never set by a handful of outliers.
MIN_BEYOND = 10


def tail(samples) -> tuple[float, float, int]:
    """``(value, percentile, sample count)`` of the tail of ``samples``.

    The tail is the highest percentile with at least MIN_BEYOND samples
    beyond it: the (MIN_BEYOND + 1)-th largest sample, at percentile
    ``100 * (n - MIN_BEYOND) / n``. With MIN_BEYOND samples or fewer no
    percentile qualifies, and the maximum (percentile 100) is reported.
    """
    a = np.sort(np.asarray(samples, dtype=np.float64))
    n = a.size
    if n == 0:
        raise ValueError("no samples")
    if n <= MIN_BEYOND:
        return float(a[-1]), 100.0, n
    return float(a[n - MIN_BEYOND - 1]), 100.0 * (n - MIN_BEYOND) / n, n


def failed_share(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError(f"need at least one attempted operation, got {attempted}")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside [0, {attempted}]")
    return failed / attempted


class Reservoir:
    """Seeded uniform sample of ``k`` items from a stream of unknown length.

    ``slot(i)`` is asked before item ``i`` (0-based) is produced and says
    where to keep it, or ``None`` to drop it, so a caller can prepare what a
    kept item needs before producing it.
    """

    def __init__(self, k: int, rng: np.random.Generator):
        self.k = k
        self.rng = rng
        self.items: list = [None] * k

    def slot(self, i: int):
        if i < self.k:
            return i
        j = int(self.rng.integers(0, i + 1))
        return j if j < self.k else None

    def kept(self) -> list:
        return [item for item in self.items if item is not None]
