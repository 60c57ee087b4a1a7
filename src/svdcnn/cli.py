"""Command-line entry point: describe, verify, train, predict, bench."""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import warnings
from dataclasses import asdict, fields

import numpy as np

from . import architecture as arch
from . import bench as bench_mod
from .architecture import ArchitectureSpec, Model, closed_form_params, count_params
from .data import _decode, _quantize_rows, load_csv, split_dataset, synth_dataset
from .functional import _log_softmax
from .training import (
    TrainConfig,
    evaluate,
    load_checkpoint,
    predict_logits,
    save_checkpoint,
    train,
)

DEPTH_CHOICES = sorted(arch._LAYER_LAYOUT)


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    """Flags that set ``ArchitectureSpec`` fields; a flag not given leaves its field at the spec's default."""
    parser.add_argument("--family", choices=arch.FAMILIES, default="svdcnn")
    unset = argparse.SUPPRESS
    parser.add_argument("--depth", type=int, choices=DEPTH_CHOICES, default=unset)
    parser.add_argument("--classes", dest="n_classes", metavar="CLASSES", type=int, default=unset,
                        help="number of target classes")
    parser.add_argument("--seq-len", "--s", dest="seq_len", type=int, default=unset)
    parser.add_argument("--embed-dim", type=int, default=unset)
    parser.add_argument("--pooled-len", type=int, default=unset)
    parser.add_argument("--fc-hidden", type=int, default=unset)


def _spec_from_args(args) -> ArchitectureSpec:
    given = {f.name: getattr(args, f.name) for f in fields(ArchitectureSpec) if hasattr(args, f.name)}
    return ArchitectureSpec(**given)


def cmd_describe(args) -> int:
    spec = _spec_from_args(args)
    enumerated = count_params(Model(spec, seed=None))
    closed = closed_form_params(spec)
    print(f"{spec.family} depth={spec.depth} classes={spec.n_classes} seq_len={spec.seq_len}")
    print(f"{'category':<12}{'enumerated':>14}{'closed-form':>14}")
    for name in ("embedding", "conv", "batchnorm", "fc"):
        print(f"{name:<12}{getattr(enumerated, name):>14,}{getattr(closed, name):>14,}")
    print(f"{'total':<12}{enumerated.total:>14,}{closed.total:>14,}")
    print(f"fc weights (excl. bias): {arch.head_weight_params(spec):,}")
    print(
        f"in millions: conv={arch.millions(enumerated.conv):.2f} "
        f"fc={arch.millions(enumerated.fc):.2f} total={arch.millions(enumerated.total):.2f}"
    )
    print(f"storage: {arch.round2(enumerated.storage_mb):.2f} MB")
    if enumerated != closed:
        print("warning: enumerated and closed-form counts disagree", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append((name, ok, detail))

    std_block = arch.standard_block_weights(128, 256)
    tdsc_block = arch.tdsc_block_weights(128, 256)
    reduction = arch.round2(100.0 * (1.0 - tdsc_block / std_block))
    check("standard block 128->256", std_block == 294_912, f"{std_block:,}")
    check("separable block 128->256", tdsc_block == 99_456, f"{tdsc_block:,}")
    check("block reduction", reduction == 66.28, f"{reduction:.2f}%")

    vd_head = arch.head_weight_params(ArchitectureSpec("vdcnn"))
    sv_head = arch.head_weight_params(ArchitectureSpec("svdcnn"))
    head_reduction = arch.round2(100.0 * (1.0 - sv_head / vd_head))
    check("vdcnn head weights", vd_head == 12_591_104, f"{vd_head:,}")
    check("svdcnn head weights", sv_head == 16_384, f"{sv_head:,}")
    check("head reduction", 99.0 < head_reduction < 100.0, f"{head_reduction:.2f}%")

    mb = arch.storage_size(1_580_000)
    check("storage of 1.58M params", abs(mb - 6.03) <= 0.02, f"{arch.round2(mb):.2f} MB")

    for depth in DEPTH_CHOICES:
        layout = arch.depth_layout(depth)
        check(f"depth layout {depth}", sum(layout) + 1 == depth, f"{layout}")

    for family in arch.FAMILIES:
        for depth in DEPTH_CHOICES:
            spec = ArchitectureSpec(family, depth=depth)
            same = count_params(Model(spec, seed=None)) == closed_form_params(spec)
            check(f"enumeration == closed form {family}-{depth}", same, "")

    table = arch.load_golden_table(args.golden)  # read before any output; main reports its errors

    failed = False
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
        failed |= not ok

    for (family, depth), row in sorted(table.items()):
        diff = arch.reconcile(closed_form_params(ArchitectureSpec(family, depth=depth)), row)
        for cat in diff.categories:
            tag = cat.verdict.upper()
            print(
                f"{tag:<5} {family}-{depth} {cat.category}: ours={cat.ours:.2f} "
                f"reference={cat.reference:.2f} rel_diff={cat.rel_diff * 100:.1f}%"
            )
        if not diff.reference_self_consistent:
            print(f"FLAG  {family}-{depth}: reference storage differs from 4 bytes/param on its own total")
        failed |= diff.failed

    return 1 if failed else 0


def cmd_train(args) -> int:
    spec = _spec_from_args(args)
    cfg = TrainConfig(
        lr=args.lr,
        momentum=args.momentum,
        weight_decay=args.weight_decay,
        batch_size=args.batch_size,
        max_epochs=args.epochs,
        seed=args.seed,
        eval_every=args.eval_every,
    )
    if args.csv is None and not args.synthetic:
        raise ValueError("provide --csv PATH or --synthetic")
    history_path = args.history or f"{args.out}.history.jsonl"
    for path in (args.out, history_path):  # checked now, so a bad path does not cost a whole training run
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(f"cannot write {path}: its directory does not exist")
    if args.synthetic:
        train_set = synth_dataset(args.train_size, spec.n_classes, spec.seq_len, seed=args.seed)
        val_set = synth_dataset(args.val_size, spec.n_classes, spec.seq_len, seed=args.seed + 1)
    else:
        full = load_csv(args.csv, spec.n_classes, seq_len=spec.seq_len)
        if args.val_csv is not None:
            train_set = full
            val_set = load_csv(args.val_csv, spec.n_classes, seq_len=spec.seq_len)
        else:
            train_set, val_set = split_dataset(full, args.val_fraction, seed=args.seed)
    print(
        f"training {spec.family}-{spec.depth}: lr={cfg.lr} momentum={cfg.momentum} "
        f"weight_decay={cfg.weight_decay} batch_size={cfg.batch_size} epochs={cfg.max_epochs} seed={cfg.seed}"
    )
    model = Model(spec, seed=args.seed)
    history = train(model, train_set, val_set, cfg)  # TrainingDivergedError is reported by main
    with open(history_path, "w", encoding="utf-8") as fh:
        for stats in history:
            fh.write(json.dumps(asdict(stats)) + "\n")
    save_checkpoint(model, args.out, epoch=model.checkpoint_epoch)
    final_acc = evaluate(model, val_set)
    print(f"best epoch {model.checkpoint_epoch}; checkpoint val accuracy {final_acc:.4f}")
    print(f"wrote {args.out} and {history_path}")
    return 0


def _probabilities(logits: np.ndarray) -> str:
    return " ".join(f"{p:.6f}" for p in np.exp(_log_softmax(logits.astype(np.float64))))


def cmd_predict(args) -> int:
    model = load_checkpoint(args.checkpoint)
    if args.text is not None:
        raw, label = os.fsencode(args.text), "--text"  # the argument's bytes, before Python's surrogateescape
    elif args.file == "-":
        raw, label = sys.stdin.buffer.read(), "stdin"
    else:
        with open(args.file, "rb") as fh:
            raw, label = fh.read(), args.file
    text = _decode(raw, label)
    # lines end at \n, \r\n or \r, as in a text-mode file; str.splitlines() would also split at \x0c, \u2028 and more
    texts = [text] if args.text is not None else [line.rstrip("\n") for line in io.StringIO(text, newline=None)]
    logits = predict_logits(model, _quantize_rows(texts, model.spec.seq_len))
    if args.text is not None:
        print(f"class: {int(logits[0].argmax())}")
        print(f"probabilities: {_probabilities(logits[0])}")
        return 0
    for row in logits:
        print(f"{int(row.argmax())}\t{_probabilities(row)}")
    return 0


def cmd_bench(args) -> int:
    if args.compare:
        a = bench_mod.load_stats(args.compare[0])
        b = bench_mod.load_stats(args.compare[1])
        print(f"latency ratio ({a.environment or args.compare[0]} / {b.environment or args.compare[1]}): "
              f"{bench_mod.latency_ratio(a, b):.2f}")
        return 0
    if args.checkpoint is not None:
        model = load_checkpoint(args.checkpoint)
    else:
        model = Model(_spec_from_args(args), seed=args.seed)
    model.eval()
    spec = model.spec
    rng = np.random.default_rng(args.seed)
    indices = rng.integers(0, spec.vocab_size, size=spec.seq_len)
    stats = bench_mod.measure_latency(
        model, indices, reps=args.reps, warmup=args.warmup,
        environment=bench_mod.environment_summary() if args.environment is None else args.environment,
    )
    print(bench_mod.format_stats_row(spec.family, spec.depth, stats))
    if args.json is not None:
        bench_mod.save_stats(stats, args.json)
        print(f"wrote {args.json}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="svdcnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="print parameter and storage accounting for one configuration")
    _add_spec_flags(p)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("verify", help="run the arithmetic checks and reference-table reconciliation")
    p.add_argument("--golden", default=None, help="path to a reference table (defaults to the packaged one)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("train", help="train a model on a CSV corpus or the synthetic set")
    _add_spec_flags(p)
    corpus = p.add_mutually_exclusive_group()
    corpus.add_argument("--csv", default=None, help="class-first CSV training corpus")
    corpus.add_argument("--synthetic", action="store_true", help="use the generated synthetic corpus")
    p.add_argument("--val-csv", default=None, help="separate validation CSV")
    p.add_argument("--val-fraction", type=float, default=0.1)
    p.add_argument("--train-size", type=int, default=400)
    p.add_argument("--val-size", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=0.001)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--eval-every", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="model.ckpt")
    p.add_argument("--history", default=None, help="history JSONL path (defaults to OUT.history.jsonl)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify texts with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--text", help="classify this one text")
    source.add_argument("--file", help="classify each line of this file (- reads stdin); "
                                       "prints one 'class<TAB>probabilities' line per text")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("bench", help="measure single-instance inference latency")
    _add_spec_flags(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--warmup", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--environment", default=None,
                   help="label stored with the record (default: cores, machine, numpy and Python versions)")
    p.add_argument("--json", default=None, help="write the measurement record to this path")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"), default=None,
                   help="print the mean-latency ratio of two recorded runs")
    p.set_defaults(func=cmd_bench)
    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    """A warning as the command shows it, like its errors: one ``warning: ...`` line with no source location."""
    return f"warning: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "bench" and not args.compare and args.reps < 2:
            parser.error("--reps must be at least 2")
    except SystemExit as exc:
        return int(exc.code or 0)
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
