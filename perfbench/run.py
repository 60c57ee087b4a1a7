"""Benchmark of the svdcnn package, run from the root of a source checkout.

    python3 perfbench/run.py --workload batch-vdcnn9 --seed 1 --seconds 45 --trace 0

Each workload is a closed loop with one client in one process, using at
most as many BLAS threads as the process may use cores:

  serve-svdcnn29  one raw text per request -> quantize -> eval forward at
                  batch 1 -> argmax, svdcnn depth 29 at s=1024.
  batch-vdcnn9    16 raw texts per request, same path, vdcnn depth 9 at
                  s=1024.
  train-svdcnn9   one SGD step per request (make_batches once per epoch,
                  taped train forward, backward, SGD.step), svdcnn depth 9
                  at s=128 and B=64, corpus read from a seeded CSV.

serve-svdcnn29 is the paper's single-instance latency protocol. It runs like
the others but is left out of BENCHMARK.json: its batch-1 forward is many
small operations, and on a small shared machine its throughput moves with
the machine's speed (runs of one commit spread by a quarter), so it cannot
gate a change.

Inputs (texts, the CSV, checkpoints with a randomized head and batch-norm
statistics) are made from ``--seed`` before any clock starts. A seeded
sample of requests is checked, after the timed loop, against a float64
reference forward that shares no code with the package.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` runs a third of ``--seconds`` untraced and the rest with spans
around every call into the package, and reports the per-layer metrics plus
the tracing overhead. A full record (environment, every metric with its
unit) is written under ``perfbench/out/`` and printed before the last line,
which is the one-line JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "svdcnn" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'svdcnn'}; run from a source checkout", file=sys.stderr)
        return 2
    # OpenBLAS reads its thread count when numpy is first imported.
    threads = str(len(os.sched_getaffinity(0)))
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = threads
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    outdir = BENCH / "out"
    outdir.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=outdir, prefix="work-") as work:
        record, metrics = workloads.run(wl, args.seed, args.seconds, bool(args.trace), ROOT, Path(work), outdir)
    path = outdir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(record))
    result = {k: record[k] for k in ("correct", "attempted", "failed")}
    print(json.dumps({**result, "metrics": metrics}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
