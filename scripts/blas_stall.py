"""Time one tap GEMM of the vdcnn-9 forward in fresh processes, to catch OpenBLAS stalls.

    python3 scripts/blas_stall.py --children 4

On a small shared machine, some process starts run a tap GEMM such as
``[16384, 64] @ [64, 64]`` (B=16, L=1024, 64 channels) at a fixed 8 ms per
call, where it normally takes 0.3-1.4 ms; the first process after an idle gap
is the likeliest to. A stall in a benchmark run shows as a slow run, not as
an error, so this script measures how often it happens.

It starts child processes one after another, alternating
``OPENBLAS_NUM_THREADS=1`` and ``=2`` (read when the child imports numpy).
Each child times the GEMM ``REPS`` times as ``conv1d`` runs it (the row view
times a transposed weight, into a preallocated output) and reports its
median; a child whose median exceeds ``STALL_MS`` counts as stalled. The
script prints one line per child, then the share of stalled children per
thread count. Run it with nothing else busy in the same machine slice: a
core kept busy by another process makes stalls far more frequent.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

THREADS = (1, 2)
ROWS, CHANNELS = 16384, 64  # B * L and the channels of vdcnn-9's level 0 at s=1024, B=16
REPS = 50  # timed GEMM calls per child
STALL_MS = 5.0  # a child median above this is a stall; unstalled medians read 0.3-1.8 ms


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--children", type=int, default=4, help="child processes per thread count")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child() -> None:
    """Print the GEMM's per-call times in ms as one JSON list."""
    import numpy as np

    rng = np.random.default_rng(0)
    rows = rng.normal(size=(ROWS, CHANNELS)).astype(np.float32)
    tap = rng.normal(size=(CHANNELS, CHANNELS)).astype(np.float32)
    out = np.empty((ROWS, CHANNELS), dtype=np.float32)
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        np.matmul(rows, tap.T, out=out)
        times.append(1e3 * (time.perf_counter() - start))
    print(json.dumps(times))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.children < 1:
        print("error: --children must be positive", file=sys.stderr)
        return 2
    if args.child:
        child()
        return 0
    stalled = {threads: 0 for threads in THREADS}
    print(f"[{ROWS}, {CHANNELS}] @ [{CHANNELS}, {CHANNELS}] float32, {REPS} calls per child")
    print("child  threads  median_ms  min_ms  max_ms  stalled")
    for i in range(args.children):
        for threads in THREADS:
            env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
            proc = subprocess.run([sys.executable, __file__, "--child"], env=env, check=True,
                                  capture_output=True, text=True)
            times = json.loads(proc.stdout)
            median = statistics.median(times)
            stall = median > STALL_MS
            stalled[threads] += stall
            print(f"{i + 1:5d}  {threads:7d}  {median:9.3f}  {min(times):6.3f}  {max(times):6.3f}  {'yes' if stall else 'no'}")
    for threads, n in stalled.items():
        print(f"threads={threads}: {n} of {args.children} children stalled ({100 * n / args.children:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
