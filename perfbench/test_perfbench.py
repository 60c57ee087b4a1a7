"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import fixtures  # noqa: E402
import reference  # noqa: E402
import stats  # noqa: E402
import svdcnn  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from svdcnn import architecture, autograd, functional, layers  # noqa: E402


def tiny_spec(family):
    return architecture.ArchitectureSpec(family, depth=9, seq_len=64, fc_hidden=32, pooled_len=8)


def tiny_model(family, seed=3):
    model = architecture.Model(tiny_spec(family), seed=seed)
    fixtures.randomize(model, np.random.default_rng(seed))
    return model


# -- tail percentile ---------------------------------------------------------

def test_tail_is_eleventh_largest_with_its_percentile():
    samples = np.random.default_rng(0).permutation(np.arange(1.0, 101.0))
    assert stats.tail(samples) == (90.0, 90.0, 100)


def test_tail_keeps_ten_samples_beyond_at_any_count():
    for n in (11, 37, 250):
        value, pct, count = stats.tail(np.arange(n, dtype=float))
        assert count == n
        assert (np.arange(n) > value).sum() == 10
        assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_falls_back_to_maximum_without_ten_beyond():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert stats.tail(np.arange(10.0)) == (9.0, 100.0, 10)
    with pytest.raises(ValueError):
        stats.tail([])


# -- self time -----------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 2.0, 4.0, 0, 0],  # overlaps a: covered time is counted once
        ["c", 6.0, 7.0, 0, 0],
        ["a.child", 1.5, 2.0, 1, 0],
        ["late", 9.0, 12.0, 0, 0],  # runs past its parent: only 9..10 counts
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 3 - 1 - 1, 1.5, 2.0, 1.0, 0.5, 3.0])


def test_tracer_records_nesting_and_request_ids():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    tracer.request = 7
    outer = tracer.timed("outer", lambda: tracer.timed("inner", lambda: None)())
    outer()
    assert [s[0] for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] is None
    assert all(s[4] == 7 for s in tracer.spans)
    assert tracing.self_times(tracer.spans) == [2.0, 1.0]


# -- failures ------------------------------------------------------------------

def test_failed_share():
    assert stats.failed_share(10, 0) == 0.0
    assert stats.failed_share(4, 1) == 0.25
    for attempted, failed in ((0, 0), (3, 4), (3, -1)):
        with pytest.raises(ValueError):
            stats.failed_share(attempted, failed)


class _Flaky:
    """Fails every third request; the loop must count, not stop."""

    def before(self, state):
        return None

    def request(self, state, i):
        if i % 3 == 0:
            raise RuntimeError("boom")
        return 2, ("out", i)


def test_closed_loop_counts_exceptions_as_failed(capsys):
    phase = workloads.closed_loop(_Flaky(), None, 0.05, 0, stats.Reservoir(2, np.random.default_rng(0)))
    n = len(phase.latencies)
    assert n > 3
    assert phase.failed == {i for i in range(n) if i % 3 == 0}
    assert phase.items == 2 * (n - len(phase.failed))
    assert "boom" in capsys.readouterr().err  # the first traceback is shown


def test_compare_counts_a_wrong_class_only_beyond_the_tie_margin():
    ref = np.array([[1.0, 0.0], [0.5, 0.5 - 1e-6], [2.0, 0.0]])
    logits = ref.copy()
    no_tie = np.full(3, np.inf)
    assert workloads._Driver._compare(logits, ref, no_tie, np.array([0, 0, 0]))[2] is False
    # Row 1 disagrees inside the tie margin: not a failure.
    assert workloads._Driver._compare(logits, ref, no_tie, np.array([0, 1, 0]))[2] is False
    # Row 2 disagrees by a margin of 2: a failure.
    assert workloads._Driver._compare(logits, ref, no_tie, np.array([0, 0, 1]))[2] is True


def test_compare_excuses_only_large_errors_at_a_kmax_near_tie():
    ref = np.array([[1.0, 0.0], [1.0, 0.0]])
    logits = ref + np.array([[0.01, 0.0], [0.01, 0.0]])
    err, excused, _ = workloads._Driver._compare(logits, ref, np.array([0.0, np.inf]))
    assert excused == 1
    assert err == pytest.approx(0.01)  # the row without a near-tie is still checked
    err, excused, _ = workloads._Driver._compare(ref + 1e-7, ref, np.array([0.0, 0.0]))
    assert excused == 0 and err == pytest.approx(1e-7)


def test_reservoir_is_seeded_and_bounded():
    def sample(seed):
        r = stats.Reservoir(3, np.random.default_rng(seed))
        for i in range(50):
            slot = r.slot(i)
            if slot is not None:
                r.items[slot] = i
        return r.kept()

    assert sample(1) == sample(1)
    assert len(sample(1)) == 3
    r = stats.Reservoir(3, np.random.default_rng(0))
    assert [r.slot(i) for i in range(3)] == [0, 1, 2]


# -- MAC accounting --------------------------------------------------------------

@pytest.mark.parametrize("family", ["vdcnn", "svdcnn"])
def test_mac_cross_check_holds_exactly_on_a_tiny_model(family):
    model = tiny_model(family).eval()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.request = 0
        model.forward(np.zeros((2, 64), dtype=np.int64))
    finally:
        tracer.uninstall()
    conv, head = architecture.count_params(model).conv, architecture.head_weight_params(model.spec)
    assert tracer.cross_check([0], conv, head) == []
    assert tracer.cross_check([0], conv + 1, head) and tracer.cross_check([0], conv, head - 1)
    m = tracer.metrics([0])
    assert m["functional.depthwise_conv1d.calls"][0] == (8 if family == "svdcnn" else 0)
    assert m["functional.kmax_pool.calls"][0] == (1 if family == "vdcnn" else 0)
    assert m["functional.batch_norm_eval.calls"][0] == 9
    assert m["functional.batch_norm_train.calls"][0] == 0
    assert m["autograd.tape_entries"][0] == 0


def test_tracer_patches_every_lookup_name_and_restores_them():
    originals = (functional.conv1d, layers.conv1d, architecture.maxpool_halve, svdcnn.conv1d)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert layers.conv1d is not originals[1]
        assert architecture.maxpool_halve is not originals[2]
    finally:
        tracer.uninstall()
    assert (functional.conv1d, layers.conv1d, architecture.maxpool_halve, svdcnn.conv1d) == originals


def test_traced_train_step_attributes_backward_per_primitive():
    model = architecture.Model(tiny_spec("svdcnn"), seed=1).train()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.request = 0
        with autograd.Tape() as tape:
            loss = functional.cross_entropy(model.forward(np.ones((4, 64), dtype=np.int64)), np.arange(4) % 4)
        autograd.backward(loss, tape)
        entries = len(tape)
    finally:
        tracer.uninstall()
    m = tracer.metrics([0])
    assert m["autograd.tape_entries"][0] == entries
    assert m["functional.batch_norm_train.calls"][0] == 9
    assert m["functional.batch_norm_eval.calls"][0] == 0
    bwd = [s for s in tracer.spans if s[0].endswith(".bwd")]
    assert {s[0] for s in bwd} >= {"functional.depthwise_conv1d.bwd", "functional.conv1d_k1.bwd"}
    assert all(tracer.spans[s[3]][0] == "autograd.backward" for s in bwd)


# -- reference -------------------------------------------------------------------

@pytest.mark.parametrize("family", ["vdcnn", "svdcnn"])
@pytest.mark.parametrize("train", [False, True])
def test_reference_matches_the_package_on_a_tiny_model(family, train):
    model = tiny_model(family)
    model.train() if train else model.eval()
    texts = fixtures.texts(np.random.default_rng(5), 4, 64)
    idx = np.stack([reference.quantize(t, 64) for t in texts])
    assert (idx == np.stack([svdcnn.quantize(t, svdcnn.Vocabulary(), 64) for t in texts])).all()
    arrays = {n: t.data for n, t, _c in model.named_params()} | dict(model.named_buffers())
    ref, gap = reference.forward(arrays, family, 9, 8, idx, train=train)
    logits = model.forward(idx).data
    err = np.abs(logits - ref).max(axis=1) / np.maximum(1.0, np.abs(ref).max(axis=1))
    assert ((err < 1e-4) | (gap <= workloads.KMAX_TIE)).all()


def test_reference_rejects_unused_parameters():
    model = tiny_model("svdcnn")
    arrays = {n: t.data for n, t, _c in model.named_params()} | dict(model.named_buffers())
    arrays["stray"] = np.zeros(1)
    with pytest.raises(ValueError, match="stray"):
        reference.forward(arrays, "svdcnn", 9, 8, np.zeros((1, 64), dtype=np.int64))
