"""Run every workload on the default seed and on a held-out seed, and print
every metric by name and unit side by side, plus the traced run's per-layer
metrics for the default seed.

    python3 perfbench/report.py [--seconds 45]

Each run is a separate ``run.py`` process; their records (with the
environment they were measured in) are collected into
``perfbench/out/report.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001  # never used while writing the benchmark
WORKLOADS = ("serve-svdcnn29", "batch-vdcnn9", "train-svdcnn9")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH.parent, check=False)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed with code {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args(argv)

    records = {}
    ok = True
    for wl in WORKLOADS:
        plain = {seed: run(wl, seed, args.seconds, 0) for seed in (DEFAULT_SEED, HELD_OUT_SEED)}
        traced = run(wl, DEFAULT_SEED, args.seconds, 1)
        records[wl] = {"seed": plain[DEFAULT_SEED], "held_out_seed": plain[HELD_OUT_SEED], "traced": traced}
        ok &= all(r["correct"] for r in (*plain.values(), traced))

        env = plain[DEFAULT_SEED]["environment"]
        print(f"\n{wl}  (cores={env['cores']} blas_threads={env['blas_threads']} numpy={env['numpy']} "
              f"python={env['python']} commit={env['commit'][:12]})")
        print(f"  {'metric':<44}{'unit':>7}{f'seed {DEFAULT_SEED}':>16}{f'seed {HELD_OUT_SEED}':>16}")
        for name, m in plain[DEFAULT_SEED]["end_to_end"].items():
            other = plain[HELD_OUT_SEED]["end_to_end"][name]["value"]
            print(f"  {name:<44}{m['unit']:>7}{m['value']:>16.6g}{other:>16.6g}")
        print(f"  failed/attempted: {plain[DEFAULT_SEED]['failed']}/{plain[DEFAULT_SEED]['attempted']}, "
              f"{plain[HELD_OUT_SEED]['failed']}/{plain[HELD_OUT_SEED]['attempted']}")
        print(f"  traced run, seed {DEFAULT_SEED} (per request; .s per set-up):")
        for name, m in traced["per_layer"].items():
            if m["value"]:
                print(f"  {name:<44}{m['unit']:>7}{m['value']:>16.6g}")

    out = BENCH / "out" / "report.json"
    out.write_text(json.dumps(records, indent=1) + "\n")
    print(f"\nwrote {out.relative_to(BENCH.parent)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
