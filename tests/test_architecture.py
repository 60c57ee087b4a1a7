"""Builders, shape traces, parameter accounting and table reconciliation."""

import codecs
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from svdcnn.architecture import (
    ArchitectureSpec,
    GoldenRow,
    Model,
    ParamReport,
    closed_form_params,
    count_params,
    depth_layout,
    head_weight_params,
    load_golden_table,
    millions,
    reconcile,
    round2,
    standard_block_weights,
    standard_layer_weights,
    storage_size,
    tdsc_block_weights,
    tdsc_layer_weights,
)
from svdcnn import functional as F, layers
from svdcnn.autograd import ShapeError, Tape, Tensor, backward
from svdcnn.functional import DegenerateStatisticsError, cross_entropy
from svdcnn.layers import ConvLayer, TdscLayer
from svdcnn.training import save_checkpoint

from oracles import level_shapes

ALL_CONFIGS = [(family, depth) for family in ("vdcnn", "svdcnn") for depth in (9, 17, 29, 49)]


class TestDepthLayout:
    @pytest.mark.parametrize(
        "depth,expected",
        [(9, (2, 2, 2, 2)), (17, (4, 4, 4, 4)), (29, (10, 10, 4, 4)), (49, (16, 16, 10, 6))],
    )
    def test_layouts_and_sums(self, depth, expected):
        layout = depth_layout(depth)
        assert layout == expected
        assert sum(layout) + 1 == depth

    def test_depth_17_identity(self):
        assert 2 * (2 + 2 + 2 + 2) + 1 == 17
        assert sum(2 for _level in range(4) for _block in range(2)) + 1 == 17

    def test_unsupported_depth_lists_valid_ones(self):
        with pytest.raises(ValueError, match=r"9, 17, 29, 49"):
            depth_layout(13)


class TestSpecValidation:
    def test_defaults_are_valid(self):
        spec = ArchitectureSpec("svdcnn")
        assert (spec.seq_len, spec.embed_dim, spec.pooled_len, spec.fc_hidden) == (1024, 16, 8, 2048)

    def test_bad_family(self):
        with pytest.raises(ValueError, match="family"):
            ArchitectureSpec("charcnn")

    def test_bad_depth(self):
        with pytest.raises(ValueError, match="depth"):
            ArchitectureSpec("vdcnn", depth=13)

    def test_seq_len_must_be_multiple_of_eight(self):
        with pytest.raises(ValueError, match="multiple of 8"):
            ArchitectureSpec("svdcnn", seq_len=100)

    def test_final_length_must_divide_by_pooled_len(self):
        with pytest.raises(ValueError, match="divisible"):
            ArchitectureSpec("svdcnn", seq_len=32)  # final length 4 < pooled 8
        ArchitectureSpec("svdcnn", seq_len=32, pooled_len=4)  # fine


class TestBuildAndForward:
    def test_final_feature_shape_svdcnn(self):
        model = Model(ArchitectureSpec("svdcnn", seq_len=1024), seed=0)
        model.eval()
        idx = np.zeros((1, 1024), dtype=np.int64)
        assert level_shapes(model, idx) == [(64, 1024), (128, 512), (256, 256), (512, 128)]

    def test_logits_shape(self):
        model = Model(ArchitectureSpec("svdcnn", seq_len=64), seed=0).eval()
        idx = np.zeros((5, 64), dtype=np.int64)
        assert model.forward(idx).shape == (5, 4)

    def test_eval_forward_is_deterministic(self):
        model = Model(ArchitectureSpec("vdcnn", seq_len=64), seed=3).eval()
        idx = np.random.default_rng(0).integers(0, 70, size=(2, 64))
        a = model.forward(idx).data
        b = model.forward(idx).data
        assert a.tobytes() == b.tobytes()

    def test_same_seed_builds_identical_models(self):
        spec = ArchitectureSpec("svdcnn", seq_len=64)
        a, b = Model(spec, seed=9), Model(spec, seed=9)
        for (na, ta, _), (nb, tb, _) in zip(a.named_params(), b.named_params()):
            assert na == nb
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_train_mode_requires_batch_of_two(self):
        model = Model(ArchitectureSpec("svdcnn", seq_len=64), seed=0).train()
        with pytest.raises(DegenerateStatisticsError):
            model.forward(np.zeros((1, 64), dtype=np.int64))

    def test_wrong_sequence_length_rejected(self):
        model = Model(ArchitectureSpec("svdcnn", seq_len=64), seed=0).eval()
        with pytest.raises(ShapeError, match="length 64"):
            model.forward(np.zeros((2, 32), dtype=np.int64))

    @pytest.mark.parametrize("family,depth", ALL_CONFIGS)
    def test_depth_accounting(self, family, depth):
        model = Model(ArchitectureSpec(family, depth=depth, seq_len=64), seed=0)
        assert model.conv_depth() == depth

    def test_only_pools_change_length(self):
        model = Model(ArchitectureSpec("svdcnn", seq_len=64), seed=0).eval()
        lengths = [length for _c, length in level_shapes(model, np.zeros((1, 64), dtype=np.int64))]
        assert lengths == [64, 32, 16, 8]


def randomized_eval_model(family):
    """A depth-9 model at s=64 in eval mode, with random batch-norm scales, shifts and running
    statistics and a random classifier, so every layer reaches the logits.

    The final length is 8, equal to vdcnn's k, so k-max pooling keeps every value and the logits
    are continuous in the trunk's output.
    """
    model = Model(ArchitectureSpec(family, seq_len=64, fc_hidden=32), seed=0)
    rng = np.random.default_rng(7)
    for name, t, category in model.named_params():
        if name.endswith(".gamma"):
            t.data[...] = rng.uniform(0.2, 1.5, t.shape)
        elif name.endswith(".beta"):
            t.data[...] = rng.normal(0.0, 0.2, t.shape)
        elif category == "fc" and t.data.ndim == 2:
            t.data[...] = rng.normal(0.0, 1.0 / np.sqrt(t.shape[1]), t.shape)
    for name, buf in model.named_buffers():
        if name.endswith("running_mean"):
            buf[...] = rng.normal(0.0, 0.5, buf.shape)
        else:
            buf[...] = rng.uniform(0.5, 2.0, buf.shape)
    return model.eval()


FOLD_INPUTS = np.random.default_rng(8).integers(0, 70, size=(3, 64))


def taped_logits(model, idx):
    """Eval logits with a tape open, which runs every batch norm unfolded."""
    with Tape():
        return model.forward(idx).data


def assert_fold_close(folded, unfolded):
    """Within 1e-5 of max(1, the row's largest |logit|), the float32 rounding of scaling the weights
    instead of the activations, as in perfbench's reference check."""
    scale = np.maximum(1.0, np.abs(unfolded).max(axis=1, keepdims=True))
    assert np.abs(unfolded).max() > 0.1
    assert (np.abs(folded - unfolded) <= 1e-5 * scale).all()


@pytest.mark.parametrize("family", ["vdcnn", "svdcnn"])
class TestBatchNormFold:
    def test_tapeless_logits_match_taped_logits(self, family):
        model = randomized_eval_model(family)
        assert_fold_close(model.forward(FOLD_INPUTS).data, taped_logits(model, FOLD_INPUTS))

    @pytest.mark.parametrize("target", ["conv-weight", "running-var"])
    def test_in_place_write_shows_at_next_forward(self, family, target):
        model = randomized_eval_model(family)
        before = model.forward(FOLD_INPUTS).data
        layer = model.levels[0][0].layer1
        if target == "conv-weight":
            layer.last_weight.data *= 1.5
        else:
            layer.bn.running_var *= 3.0
        after = model.forward(FOLD_INPUTS).data
        assert np.abs(after - before).max() > 1e-3
        assert_fold_close(after, taped_logits(model, FOLD_INPUTS))

    def test_tapeless_forward_leaves_state_and_checkpoint_unchanged(self, family, tmp_path):
        model = randomized_eval_model(family)

        def state():
            return ([(name, t.data.tobytes()) for name, t, _c in model.named_params()]
                    + [(name, buf.tobytes()) for name, buf in model.named_buffers()])

        before = state()
        save_checkpoint(model, tmp_path / "before.ckpt")
        model.forward(FOLD_INPUTS)
        assert state() == before
        save_checkpoint(model, tmp_path / "after.ckpt")
        assert (tmp_path / "after.ckpt").read_bytes() == (tmp_path / "before.ckpt").read_bytes()

    def test_tapeless_forward_writes_only_its_own_arrays(self, family):
        # the ReLU and the residual add write in place, into maps the forward itself made
        model = randomized_eval_model(family)
        arrays = [t.data for _name, t, _c in model.named_params()] + [buf for _name, buf in model.named_buffers()]
        before = [a.tobytes() for a in arrays]
        block = model.levels[0][0]
        assert block.projection is None
        x = model.first_conv.forward(model.embedding.forward(FOLD_INPUTS))
        x_bytes = x.data.tobytes()
        out = block.forward(x)
        assert x.data.tobytes() == x_bytes
        assert not np.shares_memory(out.data, x.data)
        logits = [model.forward(FOLD_INPUTS).data for _ in range(2)]
        assert [a.tobytes() for a in arrays] == before
        assert logits[0].tobytes() == logits[1].tobytes()
        assert_fold_close(logits[0], taped_logits(model, FOLD_INPUTS))

    def test_fold_is_written_in_the_tap_order_conv1d_reads(self, family, monkeypatch):
        # conv1d multiplies by each tap of the [K, C_out, C_in] weight; a folded weight already in that
        # order is handed to matmul as a view, so the fold is the only pass over the weight
        model = randomized_eval_model(family)
        folded, operands = [], []
        conv1d, matmul = layers.conv1d, np.matmul

        def recording_conv1d(x, weight, bias=None, padding=0):
            if bias is not None:  # a shortcut projection has no bias and no fold
                folded.append(weight.data)
            return conv1d(x, weight, bias, padding=padding)

        def recording_matmul(a, b, *args, **kwargs):
            operands.append(b)
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(layers, "conv1d", recording_conv1d)
        monkeypatch.setattr(np, "matmul", recording_matmul)
        model.forward(FOLD_INPUTS)
        assert len(folded) == 9
        for w in folded:
            assert w.transpose(2, 0, 1).flags.c_contiguous
            assert any(np.shares_memory(w, b) for b in operands)

    def test_taped_eval_records_batch_norm_and_reaches_gamma(self, family):
        model = randomized_eval_model(family)
        with Tape() as tape:
            loss = cross_entropy(model.forward(FOLD_INPUTS), np.arange(3) % 4)
        backward(loss, tape)
        layers = [m for m in model.modules() if isinstance(m, ConvLayer)]
        assert [name for name, _out, _pull in tape.entries].count("batch_norm_eval") == len(layers) == 9
        for layer in layers:
            assert np.abs(layer.bn.gamma.grad).max() > 0
            assert layer.bn.beta.grad is not None and layer.last_weight.grad is not None


def run_in_threads(run, inputs, rounds=3):
    """``run(x)`` ``rounds`` times per input, one thread per input, switching threads every
    microsecond; returns each input's list of results."""
    results = [[] for _ in inputs]

    def worker(i):
        for _ in range(rounds):
            results[i].append(run(inputs[i]))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(inputs))]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    return results


class TestConcurrentEvalForwards:
    def test_open_tape_on_another_thread_records_nothing(self):
        model = Model(ArchitectureSpec("svdcnn", seq_len=64), seed=0).eval()
        opened, release = threading.Event(), threading.Event()
        lengths = []

        def hold_tape():
            with Tape() as tape:
                opened.set()
                release.wait(timeout=30)
            lengths.append(len(tape))

        holder = threading.Thread(target=hold_tape)
        holder.start()
        try:
            assert opened.wait(timeout=30)
            model.forward(np.zeros((1, 64), dtype=np.int64))
        finally:
            release.set()
            holder.join(timeout=30)
        assert not holder.is_alive()
        assert lengths == [0]

    def test_threads_match_serial_logits_and_tapes(self):
        model = Model(ArchitectureSpec("svdcnn", seq_len=64), seed=0).eval()
        inputs = [np.random.default_rng(i).integers(0, 70, size=(2, 64)) for i in range(4)]

        def run(idx):
            with Tape() as tape:
                logits = model.forward(idx).data
            return logits, len(tape)

        serial = [run(idx) for idx in inputs]
        for got, (want_logits, want_entries) in zip(run_in_threads(run, inputs), serial):
            for logits, n_entries in got:
                assert n_entries == want_entries
                assert logits.tobytes() == want_logits.tobytes()

    @pytest.mark.parametrize("family", ["vdcnn", "svdcnn"])
    def test_tapeless_threads_match_serial_logits(self, family):
        # no tape open: every layer runs the folded batch norm, the path serving uses
        model = randomized_eval_model(family)
        inputs = [np.random.default_rng(i).integers(0, 70, size=(2, 64)) for i in range(4)]
        serial = [model.forward(idx).data for idx in inputs]
        for got, want in zip(run_in_threads(lambda idx: model.forward(idx).data, inputs), serial):
            assert [logits.tobytes() for logits in got] == [want.tobytes()] * 3


def record_maps(monkeypatch, params):
    """A list that collects ``(op, array)`` for every ``[B, C, L]`` primitive output and every
    ``[B, C, L]`` gradient handed to a tensor not in ``params``."""
    maps = []
    output, accumulate = F._output, Tensor.accumulate_grad

    def recording_output(name, od, inputs, pull):
        if od.ndim == 3:
            maps.append((name, od))
        return output(name, od, inputs, pull)

    def recording_accumulate(tensor, g):
        if g.ndim == 3 and id(tensor) not in params:
            maps.append(("gradient", g))
        accumulate(tensor, g)

    monkeypatch.setattr(F, "_output", recording_output)
    monkeypatch.setattr(Tensor, "accumulate_grad", recording_accumulate)
    return maps


@pytest.mark.parametrize("family", ["vdcnn", "svdcnn"])
class TestOneMemoryOrder:
    """Every ``[B, C, L]`` map a forward makes, and every such gradient its backward hands over, is
    channels-last: stride ``itemsize`` on the C axis and ``C * itemsize`` on L. A fallback copy into
    a second memory order anywhere in the network fails this."""

    @staticmethod
    def assert_channels_last(maps, min_count):
        assert len(maps) >= min_count
        for name, a in maps:
            assert a.strides[1:] == (a.itemsize, a.shape[1] * a.itemsize), f"{name} {a.shape} strides {a.strides}"

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_taped_forward_and_backward(self, family, mode, monkeypatch):
        model = randomized_eval_model(family)
        getattr(model, mode)()
        maps = record_maps(monkeypatch, {id(p) for p in model.parameters()})
        with Tape() as tape:
            loss = cross_entropy(model.forward(FOLD_INPUTS), np.arange(3) % 4)
        n_taped_maps = sum(out.data.ndim == 3 for _name, out, _pull in tape.entries)  # backward releases them
        backward(loss, tape)
        n_forward = sum(name != "gradient" for name, _a in maps)
        assert n_forward == n_taped_maps
        self.assert_channels_last(maps, min_count=2 * n_forward)

    def test_tapeless_eval_forward(self, family, monkeypatch):
        model = randomized_eval_model(family)
        maps = record_maps(monkeypatch, set())
        model.forward(FOLD_INPUTS)
        assert len(maps) == tapeless_map_count(model)
        self.assert_channels_last(maps, min_count=len(maps))


def tapeless_map_count(model):
    """The ``[B, C, L]`` maps a tape-less eval forward of ``model`` makes.

    The embedding, each convolution's output (a ``TdscLayer`` its depthwise
    and pointwise maps, a standard layer its one map), each block's shortcut
    projection, if any, each max-pool and the head's pool. Each layer's ReLU
    and each block's sum write into a map already counted.
    """
    convs = sum(1 + isinstance(m, TdscLayer) for m in model.modules() if isinstance(m, ConvLayer))
    projections = sum(block.projection is not None for blocks in model.levels for block in blocks)
    return 1 + convs + projections + (len(model.levels) - 1) + 1


def kept_map_elements(model, batch):
    """Elements of the ``[B, C, L]`` maps a taped train forward of ``model`` keeps for its backward.

    Each layer keeps its convolution's outputs (a ``TdscLayer`` its depthwise
    and pointwise maps, a standard layer its one map) and the output of its
    batch norm + ReLU; each block its shortcut projection, if any, and the
    sum; then the embedding, each max-pool and the head's pooled and
    flattened maps.
    """
    length = model.spec.seq_len

    def layer(conv_layer):
        conv_maps = conv_layer.in_channels if isinstance(conv_layer, TdscLayer) else 0
        return (conv_maps + 2 * conv_layer.out_channels) * length

    n = model.spec.embed_dim * length + layer(model.first_conv)
    for i, blocks in enumerate(model.levels):
        for block in blocks:
            n += layer(block.layer1) + layer(block.layer2)
            n += (1 + (block.projection is not None)) * block.out_channels * length
        if i < len(model.levels) - 1:
            length = (length + 1) // 2
            n += blocks[-1].out_channels * length
    return batch * (n + 2 * blocks[-1].out_channels * model.spec.pooled_len)


class TestTrainStepMemory:
    """tracemalloc counts numpy's buffers, to the byte from run to run. A taped svdcnn-9 train step
    (s=64, B=8) holds only the maps ``kept_map_elements`` counts, plus under 5% of small arrays and
    Python objects; a stored normalized input or pre-ReLU map puts 9 maps of 128 KiB back. The
    backward releases each map once the sweep has passed it, which leaves room for its transient
    gradient maps: its peak stays within the kept maps plus the parameter gradients. Storing the
    maps again, or keeping the tape's entries through the sweep, breaks these bounds."""

    def test_forward_keeps_only_what_backward_reads_and_backward_frees_it(self):
        model = Model(ArchitectureSpec("svdcnn", depth=9, seq_len=64), seed=0).train()
        idx = np.random.default_rng(0).integers(0, 70, size=(8, 64))
        kept = kept_map_elements(model, batch=8) * np.dtype(np.float32).itemsize
        grads = sum(p.data.nbytes for p in model.parameters())
        tracemalloc.start()
        try:
            with Tape() as tape:
                loss = cross_entropy(model.forward(idx), np.arange(8) % 4)
            retained = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(loss, tape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept <= retained <= 1.05 * kept
        assert peak <= kept + grads


class TestHeadCounts:
    def test_vdcnn_head_weights(self):
        assert head_weight_params(ArchitectureSpec("vdcnn")) == 12_591_104

    def test_svdcnn_head_weights(self):
        assert head_weight_params(ArchitectureSpec("svdcnn")) == 16_384

    def test_head_reduction_from_exact_integers(self):
        reduction = round2(100 * (1 - 16_384 / 12_591_104))
        assert reduction == 99.87

    def test_enumerated_head_matches_formula_plus_biases(self):
        spec = ArchitectureSpec("svdcnn", seq_len=64)
        report = count_params(Model(spec, seed=0))
        assert report.fc == 16_384 + 4
        assert millions(report.fc) == 0.02


class TestParamAccounting:
    @pytest.mark.parametrize("family,depth", ALL_CONFIGS)
    def test_enumeration_equals_closed_form(self, family, depth):
        spec = ArchitectureSpec(family, depth=depth, seq_len=64)
        assert count_params(Model(spec, seed=0)) == closed_form_params(spec)

    def test_worked_block_examples(self):
        assert standard_block_weights(128, 256) == 294_912
        assert tdsc_block_weights(128, 256) == 99_456

    def test_first_layer_weights(self):
        assert standard_layer_weights(16, 64) == 3_072

    def test_separable_beats_standard_for_every_built_width(self):
        pairs = set()
        for family, depth in ALL_CONFIGS:
            model = Model(ArchitectureSpec(family, depth=depth, seq_len=64), seed=0)
            pairs.add((model.first_conv.in_channels, model.first_conv.out_channels))
            for blocks in model.levels:
                for block in blocks:
                    pairs.add((block.layer1.in_channels, block.layer1.out_channels))
                    pairs.add((block.layer2.in_channels, block.layer2.out_channels))
        assert pairs  # sanity: the trunk was walked
        for in_ch, out_ch in pairs:
            assert tdsc_layer_weights(in_ch, out_ch) < standard_layer_weights(in_ch, out_ch)

    def test_totals_monotone_in_depth_and_family(self):
        totals = {}
        for family, depth in ALL_CONFIGS:
            totals[(family, depth)] = closed_form_params(ArchitectureSpec(family, depth=depth)).total
        for family in ("vdcnn", "svdcnn"):
            assert totals[(family, 9)] < totals[(family, 17)] < totals[(family, 29)] < totals[(family, 49)]
        for depth in (9, 17, 29, 49):
            assert totals[("svdcnn", depth)] < totals[("vdcnn", depth)]

    def test_report_total_is_category_sum(self):
        report = closed_form_params(ArchitectureSpec("svdcnn"))
        assert report.total == report.embedding + report.conv + report.batchnorm + report.fc


class TestStorage:
    def test_formula_example(self):
        assert abs(storage_size(1_580_000) - 6.03) <= 0.02
        assert round2(storage_size(1_580_000)) == 6.03

    def test_zero(self):
        assert storage_size(0) == 0.0

    def test_reported_total_mismatch_for_largest_standard_model(self):
        # 14.79M params at 4 bytes each is 56.42 MB, not the 54.75 the
        # reference table carries for that row; reconcile flags it.
        assert round2(storage_size(14_790_000)) == 56.42
        table = load_golden_table()
        report = closed_form_params(ArchitectureSpec("vdcnn", depth=9))
        diff = reconcile(report, table[("vdcnn", 9)])
        assert not diff.reference_self_consistent

    def test_accepts_report_or_count(self):
        report = ParamReport(embedding=0, conv=1_048_576, batchnorm=0, fc=0)
        assert report.storage_mb == storage_size(1_048_576) == 4.0

    def test_squeezed_deep_model_fits_in_6mb(self):
        report = closed_form_params(ArchitectureSpec("svdcnn", depth=29))
        assert report.storage_mb <= 6.1


_GOLDEN_ROW = b"svdcnn\t9\t0.71\t0.02\t0.73\t2.80\n"

# Reference tables load_golden_table rejects: (file bytes, line number, message pattern).
MALFORMED_GOLDEN_TABLES = {
    "int-cell": (_GOLDEN_ROW + b"svdcnn\tnine\t1.43\t0.02\t1.45\t5.52\n", 2,
                 r"invalid literal for int\(\) with base 10: 'nine'"),
    "float-cell": (b"svdcnn\t9\t0.71\tx\t0.73\t2.80\n", 1, "could not convert string to float: 'x'"),
    "family": (b"cnn\t9\t0.71\t0.02\t0.73\t2.80\n", 1, "unknown family 'cnn'"),
    "depth": (b"svdcnn\t11\t0.71\t0.02\t0.73\t2.80\n", 1, "unsupported depth 11"),
    "negative": (b"svdcnn\t9\t0.71\t0.02\t-0.73\t2.80\n", 1, "counts must be finite and non-negative"),
    "nan": (b"svdcnn\t9\tnan\t0.02\t0.73\t2.80\n", 1, "counts must be finite and non-negative"),
    "not-utf8": (_GOLDEN_ROW + b"# caf\xe9 (Latin-1)\n", 2, r"byte 0xe9 is not UTF-8 \(invalid continuation byte\)"),
    "duplicate": (_GOLDEN_ROW + b"# again\n" + _GOLDEN_ROW, 3, r"repeats the row for \(svdcnn, 9\)"),
    # a leading BOM is dropped, so the first line stays a comment and offsets stay on the bad byte
    "bom": (codecs.BOM_UTF8 + b"# reference\n" + b"svdcnn\t11\t0.71\t0.02\t0.73\t2.80\n", 2, "unsupported depth 11"),
    "bom-not-utf8": (codecs.BOM_UTF8 + b"# reference\n" + _GOLDEN_ROW + b"# caf\xe9\n", 3,
                     r"byte 0xe9 is not UTF-8 \(invalid continuation byte\)"),
}


class TestReconcile:
    def test_squeezed_rows_pass(self):
        table = load_golden_table()
        for depth in (9, 17, 29):
            spec = ArchitectureSpec("svdcnn", depth=depth)
            diff = reconcile(count_params(Model(spec, seed=0)), table[("svdcnn", depth)])
            assert not diff.failed
            assert all(c.verdict == "pass" for c in diff.categories)

    def test_standard_conv_rows_flagged_not_failed(self):
        table = load_golden_table()
        for depth in (9, 17, 29):
            spec = ArchitectureSpec("vdcnn", depth=depth)
            diff = reconcile(count_params(Model(spec, seed=0)), table[("vdcnn", depth)])
            assert not diff.failed
            conv = next(c for c in diff.categories if c.category == "conv")
            assert conv.verdict == "flag"

    def test_standard_conv_enumeration_value(self):
        report = closed_form_params(ArchitectureSpec("vdcnn", depth=9))
        assert abs(report.conv / 1e6 - 1.75) < 0.03

    def test_identical_report_has_zero_diffs(self):
        report = closed_form_params(ArchitectureSpec("svdcnn", depth=9))
        row = GoldenRow(
            "svdcnn", 9, millions(report.conv), millions(report.fc), millions(report.total),
            round2(report.storage_mb),
        )
        diff = reconcile(report, row)
        assert all(c.rel_diff == 0.0 for c in diff.categories)

    @pytest.mark.parametrize("rel,verdict", [(0.049, "pass"), (0.051, "fail")])
    def test_tolerance_is_five_percent(self, rel, verdict):
        report = closed_form_params(ArchitectureSpec("svdcnn", depth=9))
        fc_ref = millions(report.fc) / (1 - rel)  # |ours - ref| / ref == rel
        row = GoldenRow("svdcnn", 9, millions(report.conv), fc_ref, millions(report.total), round2(report.storage_mb))
        fc = next(c for c in reconcile(report, row).categories if c.category == "fc")
        assert fc.rel_diff == pytest.approx(rel)
        assert fc.verdict == verdict

    def test_out_of_tolerance_unflagged_category_fails(self):
        report = closed_form_params(ArchitectureSpec("svdcnn", depth=9))
        row = GoldenRow("svdcnn", 9, millions(report.conv), 9.99, millions(report.total), round2(report.storage_mb))
        assert reconcile(report, row).failed

    def test_golden_file_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_golden_table(tmp_path / "nope.tsv")

    @pytest.mark.parametrize("content,line,message", MALFORMED_GOLDEN_TABLES.values(), ids=MALFORMED_GOLDEN_TABLES)
    def test_malformed_golden_table_names_the_file_and_line(self, tmp_path, content, line, message):
        path = tmp_path / "golden.tsv"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}, line {line}: {message}"):
            load_golden_table(path)


class TestConstantProduct:
    @pytest.mark.parametrize("family,depth", ALL_CONFIGS)
    def test_channels_times_length_constant(self, family, depth):
        model = Model(ArchitectureSpec(family, depth=depth, seq_len=1024), seed=0).eval()
        products = [c * length for c, length in level_shapes(model, np.zeros((1, 1024), dtype=np.int64))]
        assert products == [65_536] * 4
