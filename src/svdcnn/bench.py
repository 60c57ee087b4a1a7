"""Single-instance inference latency measurement.

Timings cover the network forward pass only, not text quantization. The
clock is injectable so the statistics are unit-testable without wall time.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import asdict, dataclass

import numpy as np

from .architecture import Model
from .autograd import StateError, _check_int
from .layers import Module


@dataclass(frozen=True)
class LatencyStats:
    mean_ms: float
    std_ms: float
    reps: int
    warmup: int
    environment: str = ""
    blas_stall: bool = False


def environment_summary() -> str:
    """Usable cores, machine, numpy and Python versions, numpy's BLAS and the OpenBLAS thread setting."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):  # numpy < 1.25 has no mode="dicts"
        blas = "unknown"
    return (f"{cores} vCPU {platform.machine()}, numpy {np.__version__}, Python {platform.python_version()}, "
            f"BLAS {blas}, OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")


STALL_MS = 5.0  # a probe median above this is a stall; unstalled medians read 0.3-1.8 ms


def probe_gemm_ms() -> float:
    """Median ms of 5 calls of a vdcnn-9 level-0 tap GEMM at s=1024, B=16: ``[16384, 64] @ [64, 64]`` float32 into
    a preallocated output, as ``conv1d`` runs it. Some process starts fall into a two-thread OpenBLAS stall that
    runs this GEMM at about 8 ms a call for their first second; the probe reads the real clock."""
    rows = np.random.default_rng(0).standard_normal((16384, 64), dtype=np.float32)
    tap, out = rows[:64], np.empty_like(rows)
    elapsed = []
    for _ in range(5):
        start = time.perf_counter()
        np.matmul(rows, tap.T, out=out)
        elapsed.append(time.perf_counter() - start)
    return 1000.0 * float(np.median(elapsed))


def measure_latency(
    model: Model,
    indices,
    reps: int = 1000,
    warmup: int = 10,
    clock=time.perf_counter,
) -> LatencyStats:
    """Mean and sample standard deviation (n-1) of single-instance forwards.

    Warmup passes are untimed. ``clock`` must return seconds on a monotonic
    scale. Every module of ``model`` must be in eval mode, or ``StateError``
    names the first that is not.
    :func:`probe_gemm_ms` runs before the warmup, after it and after the
    timed passes; ``blas_stall`` is set when any median exceeds ``STALL_MS``.
    """
    _check_int("reps", reps)
    _check_int("warmup", warmup)
    if reps < 2:
        raise ValueError(f"need at least 2 repetitions, got {reps}")
    if warmup < 0:
        raise ValueError(f"warmup cannot be negative, got {warmup}")
    named = [("model", model)] + [(f"model.{n}", v) for n, v, _owner, _attr in model._walk() if isinstance(v, Module)]
    stray = next((name for name, module in named if module.mode != "eval"), None)
    if stray is not None:
        raise StateError(f"model must be in eval mode for latency measurement, but {stray} is in train mode")
    idx = np.asarray(indices)
    if idx.ndim == 1:
        idx = idx[None]
    if idx.shape[0] != 1:
        raise ValueError(f"latency is measured one instance at a time, got batch {idx.shape[0]}")

    probes_ms = [probe_gemm_ms()]
    for _ in range(warmup):
        model.forward(idx)
    probes_ms.append(probe_gemm_ms())
    elapsed_ms = np.empty(reps, dtype=np.float64)
    for i in range(reps):
        start = clock()
        model.forward(idx)
        elapsed_ms[i] = (clock() - start) * 1000.0
    stalled = max(*probes_ms, probe_gemm_ms()) > STALL_MS
    mean = float(np.mean(elapsed_ms))
    std = float(np.std(elapsed_ms, ddof=1))
    return LatencyStats(mean, std, reps, warmup, environment_summary(), stalled)


def format_stats_row(label: str, depth: int, stats: LatencyStats) -> str:
    row = f"{label:<10} {depth:>3}  {stats.mean_ms:8.2f}ms ±{stats.std_ms:.2f}  reps={stats.reps}"
    if stats.environment:
        row += f"  [{stats.environment}]"
    if stats.blas_stall:
        row += f"  (BLAS stall: the tap GEMM probe took over {STALL_MS:g} ms; rerun)"
    return row


def save_stats(stats: LatencyStats, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(stats), fh, indent=2)
        fh.write("\n")
