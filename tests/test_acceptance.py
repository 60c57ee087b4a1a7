"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.
"""

import math

import numpy as np
import pytest

import svdcnn as sv
from svdcnn.architecture import (
    ArchitectureSpec,
    Model,
    closed_form_params,
    count_params,
    depth_layout,
    head_weight_params,
    load_golden_table,
    millions,
    reconcile,
    round2,
    standard_block_weights,
    storage_size,
    tdsc_block_weights,
)
from svdcnn.autograd import grad_check
from svdcnn.bench import measure_latency
from svdcnn.data import synth_dataset
from svdcnn.functional import cross_entropy
from svdcnn.training import TrainConfig, train

from oracles import as_float64, level_shapes
from primitive_cases import CASES, gradient_error

ALL_CONFIGS = [(family, depth) for family in ("vdcnn", "svdcnn") for depth in (9, 17, 29, 49)]


def report(n, message):
    print(f"CRITERION {n:02d} PASS: {message}")


def test_criterion_01_block_worked_examples():
    standard = standard_block_weights(128, 256)
    separable = tdsc_block_weights(128, 256)
    assert standard == 294_912
    assert separable == 99_456
    reduction = round2(100 * (1 - separable / standard))
    assert reduction == 66.28
    report(1, f"block weights {standard:,} vs {separable:,}; reduction {reduction:.2f}%")


def test_criterion_02_classifier_head_exactness():
    vd = head_weight_params(ArchitectureSpec("vdcnn"))
    sq = head_weight_params(ArchitectureSpec("svdcnn"))
    assert vd == 12_591_104
    assert sq == 16_384
    # reported from the exact integers; published roundings of the same
    # quantity vary between 99.84 and 99.86
    reduction = round2(100 * (1 - sq / vd))
    assert reduction == 99.87
    report(2, f"head weights {vd:,} vs {sq:,}; reduction {reduction:.2f}%")


def test_criterion_03_storage_formula_and_rows():
    mb = storage_size(1_580_000)
    assert abs(mb - 6.03) <= 0.02
    deep = closed_form_params(ArchitectureSpec("svdcnn", depth=29))
    assert deep.storage_mb <= 6.1
    table = load_golden_table()
    for depth, expected in ((9, 2.80), (17, 5.52), (29, 6.03)):
        ours = closed_form_params(ArchitectureSpec("svdcnn", depth=depth)).storage_mb
        ref = table[("svdcnn", depth)].storage_mb
        assert ref == expected
        assert abs(round2(ours) - ref) / ref <= 0.05
    report(3, f"4 bytes/param: 1.58M -> {round2(mb):.2f} MB; svdcnn-29 {round2(deep.storage_mb):.2f} MB <= 6.1")


def test_criterion_04_reference_table_reconciliation():
    table = load_golden_table()
    for depth, conv_ref, total_ref in ((9, 0.71, 0.73), (17, 1.43, 1.45), (29, 1.56, 1.58)):
        report_sq = count_params(Model(ArchitectureSpec("svdcnn", depth=depth, seq_len=64), seed=None))
        assert abs(millions(report_sq.conv) - conv_ref) / conv_ref <= 0.05
        assert abs(millions(report_sq.total) - total_ref) / total_ref <= 0.05
        diff = reconcile(report_sq, table[("svdcnn", depth)])
        assert not diff.failed and not diff.flagged
    for depth in (9, 17, 29):
        report_vd = count_params(Model(ArchitectureSpec("vdcnn", depth=depth, seq_len=64), seed=None))
        diff = reconcile(report_vd, table[("vdcnn", depth)])
        assert not diff.failed
        assert any(c.category == "conv" and c.verdict == "flag" for c in diff.categories)
    report(4, "svdcnn conv/total within 5%; vdcnn conv rows flagged, not failed")


def test_criterion_05_depth_accounting():
    for depth in (9, 17, 29, 49):
        assert sum(depth_layout(depth)) + 1 == depth
    assert depth_layout(17) == (4, 4, 4, 4)
    assert 2 * (2 + 2 + 2 + 2) + 1 == 17
    for family, depth in ALL_CONFIGS:
        model = Model(ArchitectureSpec(family, depth=depth, seq_len=64), seed=None)
        assert model.conv_depth() == depth
    report(5, "layout sums + 1 equal 9/17/29/49; built models agree")


def test_criterion_06_enumeration_equals_closed_form():
    for family, depth in ALL_CONFIGS:
        spec = ArchitectureSpec(family, depth=depth, seq_len=64)
        assert count_params(Model(spec, seed=None)) == closed_form_params(spec)
    report(6, "weight enumeration equals closed-form counts on all 8 configurations")


def test_criterion_07_constant_product_invariant():
    for family, depth in ALL_CONFIGS:
        model = Model(ArchitectureSpec(family, depth=depth, seq_len=1024), seed=None).eval()
        shapes = level_shapes(model, np.zeros((1, 1024), dtype=np.int64))
        assert [c * length for c, length in shapes] == [65_536] * 4
    report(7, "channels x length == 65,536 at all four level boundaries of every model")


def test_criterion_08_gradient_suite():
    worst = 0.0
    for case in CASES:
        err = gradient_error(case)
        assert err <= 1e-3, f"{case} gradient error {err}"
        worst = max(worst, err)

    # End to end: squeezed depth-9 network on short sequences, trained mode.
    # Residual scales and head weights are moved off their zero init so the
    # check exercises every path; float64 keeps the difference quotient clean.
    spec = ArchitectureSpec("svdcnn", depth=9, seq_len=32, pooled_len=4, n_classes=4)
    model = as_float64(Model(spec, seed=1))
    rng = np.random.default_rng(101)
    for name, t, _c in model.named_params():
        if name.endswith("bn.gamma"):
            t.data[...] = rng.uniform(0.5, 1.5, t.data.shape)
        if name.endswith("bn.beta"):
            t.data[...] = rng.normal(0, 0.1, t.data.shape)
    model.head.fc.weight.data[...] = rng.normal(0, spec.flat_features ** -0.5, model.head.fc.weight.shape)
    model.head.fc.bias.data[...] = rng.normal(0, 0.05, model.head.fc.bias.shape)
    model.train()
    indices = rng.integers(0, spec.vocab_size, size=(2, spec.seq_len))
    labels = np.array([0, 1])
    by_name = {n: t for n, t, _c in model.named_params()}
    picks = [
        "embedding.table", "first_conv.weight", "first_conv.bn.beta",
        "level0.block0.layer1.depthwise", "level1.block0.layer1.pointwise",
        "level2.block0.projection", "level3.block0.layer2.bn.gamma",
        "head.fc.weight", "head.fc.bias",
    ]
    err = grad_check(
        lambda *params: cross_entropy(model.forward(indices), labels),
        [by_name[p] for p in picks],
        eps=1e-6,
        max_entries_per_input=6,
        seed=5,
    )
    assert err <= 1e-3
    report(8, f"primitive checks worst {worst:.2e}; end-to-end depth-9 check {err:.2e} (both <= 1e-3)")


def test_criterion_09_desk_scale_training():
    train_set = synth_dataset(400, 4, 128, seed=11)
    val_set = synth_dataset(200, 4, 128, seed=12)
    spec = ArchitectureSpec("svdcnn", depth=9, seq_len=128)
    model = Model(spec, seed=7)
    cfg = TrainConfig(max_epochs=30, seed=7)
    history = train(model, train_set, val_set, cfg)
    assert history[0].train_loss < math.log(4)
    best = max(h.val_accuracy for h in history)
    reached = next(h.epoch for h in history if h.val_accuracy >= 0.90)
    assert best >= 0.90
    report(9, f"first-epoch loss {history[0].train_loss:.4f} < ln 4; "
              f"val accuracy {best:.2f} (>= 0.90 from epoch {reached})")


def test_criterion_10_benchmark_protocol():
    import inspect

    class FakeClock:
        def __init__(self, readings):
            self.readings = list(readings)

        def __call__(self):
            return self.readings.pop(0)

    tiny = Model(
        ArchitectureSpec("svdcnn", depth=9, seq_len=8, pooled_len=1, n_classes=2, fc_hidden=4), seed=0
    ).eval()
    stats = measure_latency(
        tiny, np.zeros(8, dtype=np.int64), reps=3, warmup=0,
        clock=FakeClock([0.0, 0.001, 0.0, 0.002, 0.0, 0.003]),
    )
    assert stats.mean_ms == 2.0 and stats.std_ms == 1.0

    assert inspect.signature(measure_latency).parameters["reps"].default == 1000

    rng = np.random.default_rng(0)
    means = {}
    for depth in (9, 17, 29):
        spec = ArchitectureSpec("svdcnn", depth=depth, seq_len=256)
        model = Model(spec, seed=0).eval()
        idx = rng.integers(0, spec.vocab_size, size=256)
        means[depth] = measure_latency(model, idx, reps=100, warmup=10).mean_ms
    assert means[9] < means[17] < means[29]
    report(10, f"fake-clock stats exact; default reps 1000; measured means "
               f"{means[9]:.1f} < {means[17]:.1f} < {means[29]:.1f} ms for depths 9/17/29")


def test_criterion_11_checkpoint_roundtrip(tmp_path):
    spec = ArchitectureSpec("svdcnn", depth=9, seq_len=64)
    model = Model(spec, seed=13).eval()
    rng = np.random.default_rng(14)
    inputs = rng.integers(0, spec.vocab_size, size=(10, spec.seq_len))
    before = model.forward(inputs).data
    path = tmp_path / "roundtrip.ckpt"
    sv.save_checkpoint(model, path)
    restored = sv.load_checkpoint(path)
    after = restored.forward(inputs).data
    assert before.tobytes() == after.tobytes()
    report(11, "save -> load reproduces bitwise-identical logits on 10 random inputs")
