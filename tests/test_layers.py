"""Layer zoo: lookups, separable layers, normalization, pools and blocks."""

import numpy as np
import pytest

from svdcnn import functional as F
from svdcnn import layers
from svdcnn.architecture import ArchitectureSpec, Model
from svdcnn.autograd import ShapeError, Tape, Tensor, backward
from svdcnn.data import Vocabulary
from svdcnn.functional import DegenerateStatisticsError
from svdcnn.layers import BatchNorm, ConvBlock, ConvLayer, EmbeddingTable, TdscLayer, TemporalConvLayer

from oracles import (MEMORY_ORDERS, as_float64, conv1d_direct, depthwise_conv1d_direct, in_memory_order, kmax_direct,
                     maxpool_direct)
from taped_ops import mul, tensor_sum

RNG = np.random.default_rng


class TestEmbedding:
    def test_all_padding_gives_zeros(self):
        table = EmbeddingTable(5, 3, RNG(0))
        out = table.forward(np.zeros(7, dtype=np.int64)[None])
        np.testing.assert_array_equal(out.data[0], np.zeros((3, 7)))

    def test_hand_lookup(self):
        table = EmbeddingTable(3, 2, RNG(0))
        table.table.data[...] = [[0, 0], [1, 2], [3, 4]]
        out = table.forward(np.array([2, 1])[None])
        np.testing.assert_array_equal(out.data[0], [[3, 1], [4, 2]])

    def test_default_config_shape(self):
        vocab = Vocabulary()
        table = EmbeddingTable(vocab.size, 16, RNG(0))
        out = table.forward(np.zeros(1024, dtype=np.int64)[None])
        assert out.shape == (1, 16, 1024)

    def test_out_of_range_reports_position_and_index(self):
        table = EmbeddingTable(4, 2, RNG(0))
        with pytest.raises(IndexError, match=r"index 9 at position 1"):
            table.forward(np.array([0, 9, 1])[None])

    @pytest.mark.parametrize("family", ["vdcnn", "svdcnn"])
    def test_row_zero_starts_at_zero_and_is_a_trained_parameter(self, family):
        model = Model(ArchitectureSpec(family, depth=9, seq_len=16, pooled_len=2, n_classes=2, fc_hidden=8), seed=0)
        table = model.embedding.table
        np.testing.assert_array_equal(table.data[0], np.zeros(table.shape[1]))
        assert np.abs(table.data[1:]).sum(axis=1).all()  # every other row starts random
        assert table.requires_grad and any(p is table for p in model.parameters())

    @pytest.mark.parametrize("indices", [[2, 0, 1, 0, 3], [2, 1, 1, 3, 3]], ids=["padded", "full"])
    def test_row_zero_gradient_sums_the_positions_that_index_it(self, indices):
        table = EmbeddingTable(4, 2, RNG(0))
        weights = np.arange(1, 11, dtype=np.float32).reshape(1, 2, 5)  # distinct per channel and position
        with Tape() as tape:
            loss = tensor_sum(mul(table.forward(np.array(indices)[None]), Tensor(weights)))
        backward(loss, tape)
        at_zero = [p for p, index in enumerate(indices) if index == 0]
        np.testing.assert_array_equal(table.table.grad[0], weights[0][:, at_zero].sum(axis=1))


class TestTdscLayer:
    def test_weight_counts(self):
        layer = TdscLayer(128, 256, RNG(0))
        assert layer.depthwise.data.size == 384
        assert layer.pointwise.data.size == 32_768
        assert layer.depthwise.data.size + layer.pointwise.data.size == 33_152

    def test_identity_configuration_is_relu(self):
        channels = 3
        layer = TdscLayer(channels, channels, RNG(0))
        layer.depthwise.data[...] = np.tile([0.0, 1.0, 0.0], (channels, 1))
        layer.pointwise.data[...] = np.eye(channels)[:, :, None]
        layer.eval()  # running stats are (0, 1), gamma=1, beta=0
        x = Tensor(RNG(1).normal(size=(channels, 6)).astype(np.float32)[None] * 0.1)
        out = layer.forward(x)
        np.testing.assert_allclose(out.data, np.maximum(x.data, 0), atol=1e-6)

    def test_block_weight_count_128_256(self):
        block = ConvBlock(TdscLayer, 128, 256, RNG(0))
        weights = block.layer1.depthwise.data.size + block.layer1.pointwise.data.size
        weights += block.layer2.depthwise.data.size + block.layer2.pointwise.data.size
        assert weights == 99_456

    def test_counts_as_one_depth_unit(self):
        assert isinstance(TdscLayer(8, 8, RNG(0)), ConvLayer)


class TestTemporalConvLayer:
    def test_standard_block_weight_count_128_256(self):
        block = ConvBlock(TemporalConvLayer, 128, 256, RNG(0))
        weights = block.layer1.weight.data.size + block.layer2.weight.data.size
        assert weights == 294_912

    def test_block_reduction_percentage(self):
        standard = 294_912
        separable = 99_456
        assert round(100 * (1 - separable / standard), 2) == 66.28

    def test_first_layer_weight_count(self):
        layer = TemporalConvLayer(16, 64, RNG(0))
        assert layer.weight.data.size == 3_072

    def test_preserves_length(self):
        layer = TemporalConvLayer(4, 8, RNG(0))
        out = layer.forward(Tensor(RNG(2).normal(size=(2, 4, 10)).astype(np.float32)))
        assert out.shape == (2, 8, 10)


class TestBatchNorm:
    def test_constant_input_normalizes_to_zero(self):
        bn = BatchNorm(2)
        x = Tensor(np.full((3, 2, 4), 5.0, dtype=np.float32))
        out = bn.forward(x)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_two_point_channel(self):
        # normalized to [-1, 1]; the shift 2 keeps both values above the ReLU's clip
        bn = BatchNorm(1)
        bn.beta.data[...] = 2.0
        out = bn.forward(Tensor(np.array([[1.0, 3.0]])[None]))
        np.testing.assert_allclose(out.data[0], [[1.0, 3.0]], atol=1e-4)

    def test_eval_identity_with_unit_stats(self):
        # the shift 1 keeps every value above the ReLU's clip
        bn = BatchNorm(3).eval()
        bn.beta.data[...] = 1.0
        x = Tensor(RNG(5).normal(size=(2, 3, 4)).astype(np.float32) * 0.1)
        out = bn.forward(x)
        np.testing.assert_allclose(out.data, x.data + 1.0, atol=1e-6)

    def test_output_is_clipped_at_zero(self):
        bn = BatchNorm(1)
        out = bn.forward(Tensor(np.array([[1.0, 3.0]])[None]))
        np.testing.assert_allclose(out.data[0], [[0.0, 1.0]], atol=1e-4)

    def test_single_element_rejected_in_train_mode(self):
        bn = BatchNorm(2)
        with pytest.raises(DegenerateStatisticsError):
            bn.forward(Tensor(np.zeros((2, 1))[None]))

    def test_running_stats_move_toward_batch_stats(self):
        bn = BatchNorm(1)
        x = Tensor(np.array([[[4.0, 6.0]]], dtype=np.float32))
        bn.forward(x)
        assert bn.running_mean[0] == pytest.approx(0.5)   # 0.9*0 + 0.1*5
        assert bn.running_var[0] == pytest.approx(1.1)    # 0.9*1 + 0.1*2 (unbiased)

    def test_large_offset_statistics_stay_accurate(self):
        # Per-channel mean 1e4, std 1: E[x^2] - E[x]^2 in float32 would
        # cancel to noise (and go negative); centered variance does not.
        _assert_float32_statistics_near_float64(1e4, 1.0, var_rtol=1e-5, out_atol=5e-3)

    def test_tiny_spread_at_large_offset_stays_within_float32_resolution(self):
        # At mean 1e3, std 1e-2 one float32 step of the mean (6.1e-5) is 0.6%
        # of a standard deviation, so the float32 mean, and every normalized
        # value with it, may be off by a few such steps.
        _assert_float32_statistics_near_float64(1e3, 1e-2, var_rtol=2e-4, out_atol=2e-2)

    def test_running_stats_are_not_parameters(self):
        bn = BatchNorm(4)
        names = {n for n, _t, _c in bn.named_params()}
        assert names == {"gamma", "beta"}
        assert {n for n, _b in bn.named_buffers()} == {"running_mean", "running_var"}


def _assert_float32_statistics_near_float64(offset, std, var_rtol, out_atol):
    """float32 ``batch_norm_train`` on ``offset + std * N(0, 1)`` against float64 statistics of the same values.

    The shift 8 keeps every normalized value above the ReLU's clip, so each
    one is compared.
    """
    x = (offset + std * RNG(12).normal(size=(8, 4, 32))).astype(np.float32)
    ones, eights = Tensor(np.ones(4, dtype=np.float32)), Tensor(np.full(4, 8.0, dtype=np.float32))
    out, _mean, var, _count = F.batch_norm_train(Tensor(x), ones, eights, 1e-5)
    x64 = x.astype(np.float64)
    var64 = x64.var(axis=(0, 2))
    np.testing.assert_allclose(var, var64, rtol=var_rtol, atol=0)
    xhat64 = (x64 - x64.mean(axis=(0, 2), keepdims=True)) / np.sqrt(var64[None, :, None] + 1e-5)
    assert xhat64.min() > -8.0
    np.testing.assert_allclose(out.data, xhat64 + 8.0, rtol=0, atol=out_atol)


def _randomized_eval_layer(layer_cls):
    """A float64 layer 4 -> 6 channels in eval mode with random batch-norm scale, shift and running statistics."""
    layer = as_float64(layer_cls(4, 6, RNG(30)))
    rng, bn = RNG(31), layer.bn
    bn.gamma.data[...] = rng.uniform(0.2, 1.5, 6)
    bn.beta.data[...] = rng.normal(0.0, 0.3, 6)
    bn.running_mean[...] = rng.normal(0.0, 0.5, 6)
    bn.running_var[...] = rng.uniform(0.5, 2.0, 6)
    return layer.eval()


@pytest.mark.parametrize("order", MEMORY_ORDERS)
@pytest.mark.parametrize("layer_cls", [TemporalConvLayer, TdscLayer], ids=["standard", "tdsc"])
class TestBatchNormFold:
    def test_tapeless_eval_equals_conv_then_batch_norm(self, layer_cls, order):
        layer = _randomized_eval_layer(layer_cls)
        x = Tensor(in_memory_order(RNG(32).normal(size=(3, 4, 10)), order))
        bn = layer.bn
        unfolded = F.batch_norm_eval(layer.conv(x, layer.last_weight), bn.gamma, bn.beta,
                                     bn.running_mean, bn.running_var, bn.eps)
        np.testing.assert_allclose(layer.forward(x).data, np.maximum(unfolded.data, 0), rtol=1e-12, atol=1e-12)

    def test_tapeless_eval_matches_the_direct_oracles(self, layer_cls, order):
        # float64 relu(batch_norm(conv)) from the loop convolutions and the running-statistics formula, within 1e-12
        layer = _randomized_eval_layer(layer_cls)
        x = RNG(35).normal(size=(3, 4, 10))
        out = layer.forward(Tensor(in_memory_order(x, order))).data
        assert (out > 0).any() and (out == 0).any()
        bn = layer.bn
        scale = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)
        for b in range(x.shape[0]):
            if layer_cls is TdscLayer:
                conv = conv1d_direct(depthwise_conv1d_direct(x[b], layer.depthwise.data, 1), layer.pointwise.data, None, 0)
            else:
                conv = conv1d_direct(x[b], layer.weight.data, None, 1)
            expected = np.maximum((conv - bn.running_mean[:, None]) * scale[:, None] + bn.beta.data[:, None], 0.0)
            np.testing.assert_allclose(out[b], expected, rtol=1e-12, atol=1e-12)

    def test_tapeless_eval_is_one_biased_conv1d_and_no_batch_norm(self, layer_cls, order, monkeypatch):
        layer = _randomized_eval_layer(layer_cls)
        biases = []

        def conv1d(x, weight, bias=None, padding=0):
            biases.append(bias)
            return F.conv1d(x, weight, bias, padding)

        def batch_norm_eval(*args):
            raise AssertionError("batch_norm_eval ran on the folded path")

        monkeypatch.setattr(layers, "conv1d", conv1d)
        monkeypatch.setattr(layers, "batch_norm_eval", batch_norm_eval)
        layer.forward(Tensor(in_memory_order(RNG(33).normal(size=(2, 4, 5)), order)))
        assert len(biases) == 1 and biases[0] is not None

    def test_taped_eval_runs_batch_norm_and_keeps_weights_unfolded(self, layer_cls, order):
        layer = _randomized_eval_layer(layer_cls)
        weight = layer.last_weight.data.copy()
        x = Tensor(in_memory_order(RNG(34).normal(size=(2, 4, 5)), order))
        with Tape() as tape:
            taped = layer.forward(x)
        assert [name for name, _out, _pull in tape.entries].count("batch_norm_eval") == 1
        np.testing.assert_allclose(taped.data, layer.forward(x).data, rtol=1e-12, atol=1e-12)
        assert layer.last_weight.data.tobytes() == weight.tobytes()


class TestPools:
    def test_maxpool_hand_case(self):
        np.testing.assert_array_equal(F.maxpool_halve(Tensor([[[1.0, 2, 3, 4]]])).data[0], [[2, 4]])

    def test_maxpool_constant(self):
        out = F.maxpool_halve(Tensor(np.full((2, 6), 3.0)[None]))
        np.testing.assert_array_equal(out.data[0], np.full((2, 3), 3.0))

    def test_maxpool_1024_to_512(self):
        out = F.maxpool_halve(Tensor(np.zeros((4, 1024), dtype=np.float32)[None]))
        assert out.shape == (1, 4, 512)

    def test_maxpool_odd_length(self):
        out = F.maxpool_halve(Tensor([[[5.0, 1, 2, 1, 7]]]))
        assert out.shape == (1, 1, 3)
        np.testing.assert_array_equal(out.data[0], [[5, 2, 7]])

    def test_maxpool_too_short(self):
        with pytest.raises(ShapeError):
            F.maxpool_halve(Tensor([[[1.0]]]))

    def test_maxpool_ties_route_gradient_to_earliest_position(self):
        # Zero padding 1, windows of 3 at stride 2. In [1, 5, 5, 5] both
        # windows hold a tie at 5 and each routes its gradient to position 1;
        # in [3, 3, 1, 3, 3] the tied windows pick positions 0, 1 and 3.
        cases = [
            ([1.0, 5, 5, 5], [1.0, 10], [0, 11, 0, 0]),
            ([3.0, 3, 1, 3, 3], [1.0, 10, 100], [1, 10, 0, 100, 0]),
        ]
        for row, weights, expected in cases:
            x = Tensor([[row]], requires_grad=True)
            with Tape() as tape:
                loss = tensor_sum(mul(F.maxpool_halve(x), Tensor([[weights]])))
            backward(loss, tape)
            np.testing.assert_array_equal(x.grad, [[expected]])

    def test_maxpool_pad_wins_window_and_gets_no_gradient(self):
        x = Tensor([[[-1.0, -2, -3, -4]]], requires_grad=True)
        with Tape() as tape:
            out = F.maxpool_halve(x)
            loss = tensor_sum(mul(out, Tensor([[[1.0, 10]]])))
        backward(loss, tape)
        np.testing.assert_array_equal(out.data, [[[0, -2]]])
        np.testing.assert_array_equal(x.grad, [[[0, 10, 0, 0]]])

    @pytest.mark.parametrize("order", MEMORY_ORDERS)
    @pytest.mark.parametrize("length", [7, 8, 16])
    def test_maxpool_batched_rows_match_direct_oracle(self, length, order):
        # Small integers force ties, including with the zero padding.
        x = RNG(length).integers(-2, 3, size=(3, 5, length)).astype(np.float32)
        out, grad, weights = _pool_output_and_grad(F.maxpool_halve, in_memory_order(x, order))
        for b in range(3):
            for c in range(5):
                values, positions = maxpool_direct(x[b, c])
                np.testing.assert_array_equal(out[b, c], values)
                expected = np.zeros(length)
                for t, p in enumerate(positions):
                    if 0 <= p < length:
                        expected[p] += weights[b, c, t]
                np.testing.assert_array_equal(grad[b, c], expected)

    @pytest.mark.parametrize("order", MEMORY_ORDERS)
    @pytest.mark.parametrize("length", [2, 3, 4, 5, 6])
    def test_maxpool_every_small_row_matches_direct_oracle(self, length, order):
        # Every row over {-1, 0, 1}: ties with the zero pad at both ends, on
        # odd and even lengths, in every arrangement.
        rows = np.stack(np.meshgrid(*[[-1.0, 0.0, 1.0]] * length, indexing="ij"), -1).reshape(-1, length)
        out, grad, weights = _pool_output_and_grad(F.maxpool_halve, in_memory_order(rows[None].astype(np.float32), order))
        for r, row in enumerate(rows):
            values, positions = maxpool_direct(row)
            np.testing.assert_array_equal(out[0, r], values)
            expected = np.zeros(length)
            for t, p in enumerate(positions):
                if 0 <= p < length:
                    expected[p] += weights[0, r, t]
            np.testing.assert_array_equal(grad[0, r], expected)

    @pytest.mark.parametrize("length", [7, 8, 16])
    def test_kmax_batched_rows_match_sort_oracle(self, length):
        x = RNG(100 + length).normal(size=(3, 5, length)).round(0).astype(np.float32)
        for k in sorted({1, 3, length // 2, length}):
            out, grad, weights = _pool_output_and_grad(lambda t: F.kmax_pool(t, k), x)
            for b in range(3):
                for c in range(5):
                    row = x[b, c]
                    values = kmax_direct(list(row), k)
                    np.testing.assert_array_equal(out[b, c], values)
                    # The earliest-position rule makes the kept positions the
                    # first match of the oracle's values, read left to right.
                    expected = np.zeros(length)
                    pos = 0
                    for j, v in enumerate(values):
                        while row[pos] != v:
                            pos += 1
                        expected[pos] = weights[b, c, j]
                        pos += 1
                    np.testing.assert_array_equal(grad[b, c], expected)

    def test_kmax_hand_case(self):
        np.testing.assert_array_equal(F.kmax_pool(Tensor([[[3.0, 1, 5, 2, 4]]]), 3).data[0], [[3, 5, 4]])

    def test_kmax_full_width_is_identity(self):
        x = RNG(6).normal(size=(2, 5)).astype(np.float32)
        np.testing.assert_array_equal(F.kmax_pool(Tensor(x[None]), 5).data[0], x)

    def test_kmax_too_large(self):
        with pytest.raises(ValueError, match="exceeds"):
            F.kmax_pool(Tensor(np.zeros((1, 3))[None]), 4)

    def test_kmax_matches_sort_oracle_and_is_subsequence(self):
        rng = RNG(7)
        for _ in range(50):
            length = int(rng.integers(1, 12))
            k = int(rng.integers(1, length + 1))
            row = rng.normal(size=length).round(1).astype(np.float32)  # rounding forces ties
            out = F.kmax_pool(Tensor(row[None, None]), k).data[0, 0]
            np.testing.assert_array_equal(out, np.array(kmax_direct(list(row), k), dtype=np.float32))
            # order preservation: output is a subsequence of the input
            pos = 0
            for v in out:
                while pos < length and np.float32(row[pos]) != v:
                    pos += 1
                assert pos < length
                pos += 1

    def test_kmax_ties_prefer_earlier_position(self):
        out = F.kmax_pool(Tensor([[[2.0, 5.0, 2.0, 5.0]]]), 3)
        np.testing.assert_array_equal(out.data[0], [[2, 5, 5]])

    def test_kmax_nan_ranks_below_numbers(self):
        # A diverged model feeds NaN rows; the pool must still return k values
        # so the non-finite loss, not a shape error, reports the divergence.
        x = np.array([[[np.nan, 1, np.nan, 2]], [[np.nan] * 4]], dtype=np.float32)
        np.testing.assert_array_equal(F.kmax_pool(Tensor(x), 3).data, [[[np.nan, 1, 2]], [[np.nan] * 3]])

    def test_avgpool_identity(self):
        x = RNG(8).normal(size=(2, 4)).astype(np.float32)
        np.testing.assert_array_equal(F.adaptive_avg_pool(Tensor(x[None]), 4).data[0], x)

    def test_avgpool_hand_case(self):
        np.testing.assert_array_equal(F.adaptive_avg_pool(Tensor([[[1.0, 2, 3, 4]]]), 2).data[0], [[1.5, 3.5]])

    def test_avgpool_rejects_non_divisible(self):
        with pytest.raises(ValueError, match="not divisible"):
            F.adaptive_avg_pool(Tensor(np.zeros((1, 10))[None]), 4)

    def test_avgpool_preserves_mean(self):
        rng = RNG(9)
        for _ in range(20):
            x = rng.normal(size=(3, 24))
            out = F.adaptive_avg_pool(Tensor(x[None]), 8)
            np.testing.assert_allclose(out.data[0].mean(axis=1), x.mean(axis=1), atol=1e-6)

    def test_default_head_shapes(self):
        x = Tensor(np.zeros((512, 128), dtype=np.float32)[None])
        pooled = F.adaptive_avg_pool(x, 8)
        assert pooled.shape == (1, 512, 8)
        assert pooled.data.size == 4096
        kept = F.kmax_pool(x, 8)
        assert kept.data.size == 4096


def _ranked_and_kth(x, k):
    """``x [B, C, L]`` with NaN ranked as -inf, and each row's k-th largest value ``[B, C, 1]``."""
    ranked = np.where(np.isnan(x), -np.inf, x)
    return ranked, np.sort(ranked, axis=2)[:, :, [-k]]


def kmax_keep_by_running_count(x, k):
    """Kept mask of k-max pooling over the last axis of ``x [B, C, L]``, by one running count of ties over
    the whole array: every value above the row's k-th largest is kept, and each value equal to it while
    the count of such values so far stays within what the row still needs."""
    ranked, kth = _ranked_and_kth(x, k)
    above = ranked > kth
    tied = ranked == kth
    return above | (tied & (np.cumsum(tied, axis=2) <= k - above.sum(axis=2, keepdims=True)))


def _overfull_rows(x, k):
    """Per row of ``x [B, C, L]``, whether more than k values are at or above its k-th largest."""
    ranked, kth = _ranked_and_kth(x, k)
    return (ranked >= kth).sum(axis=2) > k


class TestKmaxTies:
    """Rows whose k-th largest value ties run the earliest-position rule; each row is checked against
    ``kmax_direct`` (NaN ranked as -inf) and exact values, bit for bit."""

    @staticmethod
    def check_rows(x, k):
        out, grad, weights = _pool_output_and_grad(lambda t: F.kmax_pool(t, k), x)
        for b, c in np.ndindex(x.shape[:2]):
            row = x[b, c]
            ranked = np.where(np.isnan(row), -np.inf, row)
            positions, pos = [], 0
            for v in kmax_direct(list(ranked), k):
                while ranked[pos] != v:
                    pos += 1
                positions.append(pos)
                pos += 1
            assert out[b, c].tobytes() == row[positions].tobytes()
            expected = np.zeros(row.shape, dtype=grad.dtype)
            expected[positions] = weights[b, c]
            assert grad[b, c].tobytes() == expected.tobytes()
        return out

    def test_signed_zeros_tie_at_the_boundary(self):
        x = np.array([[[1, -0.0, 0.0, 2]], [[0.0, -0.0, 3, 1]]], dtype=np.float32)
        out = self.check_rows(x, 3)
        assert out.tobytes() == np.array([[[1, -0.0, 2]], [[0.0, 3, 1]]], dtype=np.float32).tobytes()

    def test_nan_ties_with_minus_infinity(self):
        x = np.array([[[np.nan, -np.inf, 3, -np.inf, np.nan]], [[-np.inf, np.nan, np.nan, -np.inf, 5]]],
                     dtype=np.float32)
        out = self.check_rows(x, 3)
        np.testing.assert_array_equal(out, [[[np.nan, -np.inf, 3]], [[-np.inf, np.nan, 5]]])

    def test_only_some_rows_overfill(self):
        x = RNG(11).integers(0, 12, size=(3, 4, 10)).astype(np.float32)
        overfull = _overfull_rows(x, 4)
        assert 0 < overfull.sum() < overfull.size
        self.check_rows(x, 4)

    def test_k_equal_to_length_keeps_every_value(self):
        x = np.array([[[np.nan, -0.0, 0.0, -np.inf, 2, 2]], [[1, 1, 1, 1, 1, 1]]], dtype=np.float32)
        assert self.check_rows(x, 6).tobytes() == x.tobytes()

    def test_network_sized_map_matches_running_count_rule(self):
        # the k-max input of vdcnn at s=1024 and B=16, channels-last, rounded so that rows tie
        rng = RNG(12)
        x = np.ascontiguousarray(rng.normal(size=(16, 128, 512)).round(1).astype(np.float32)).transpose(0, 2, 1)
        overfull = _overfull_rows(x, 8)
        assert 0 < overfull.sum() < overfull.size
        out, grad, weights = _pool_output_and_grad(lambda t: F.kmax_pool(t, 8), x)
        keep = kmax_keep_by_running_count(x, 8)
        assert out.tobytes() == x[keep].reshape(out.shape).tobytes()
        expected = np.zeros(x.shape, dtype=grad.dtype)
        expected[keep] = weights.ravel()
        assert grad.tobytes() == expected.tobytes()


def _pool_output_and_grad(pool, x):
    """Output and input gradient of ``sum(weights * pool(x))``, with distinct integer weights."""
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        out = pool(xt)
        weights = np.arange(1, out.data.size + 1, dtype=np.float32).reshape(out.shape)
        loss = tensor_sum(mul(out, Tensor(weights)))
    backward(loss, tape)
    return out.data, xt.grad, weights


class TestConvBlock:
    def test_zero_main_path_returns_shortcut(self):
        block = ConvBlock(TemporalConvLayer, 3, 3, RNG(10))
        block.layer1.weight.data[...] = 0
        block.layer2.weight.data[...] = 0
        x = Tensor(RNG(11).normal(size=(2, 3, 6)).astype(np.float32))
        out = block.forward(x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_main_path_projection(self):
        block = ConvBlock(TdscLayer, 2, 4, RNG(12))
        block.layer1.depthwise.data[...] = 0
        block.layer1.pointwise.data[...] = 0
        block.layer2.depthwise.data[...] = 0
        block.layer2.pointwise.data[...] = 0
        x = Tensor(RNG(13).normal(size=(2, 2, 6)).astype(np.float32))
        out = block.forward(x)
        expected = F.conv1d(x, block.projection, padding=0)
        np.testing.assert_array_equal(out.data, expected.data)

    @pytest.mark.parametrize("layer_cls", [TemporalConvLayer, TdscLayer], ids=["standard", "tdsc"])
    def test_identity_shortcut_input_gets_both_gradients(self, layer_cls):
        block = as_float64(ConvBlock(layer_cls, 3, 3, RNG(20)))
        block.layer2.bn.gamma.data[...] = 1.0  # a fresh block's main path passes no gradient
        x = RNG(21).normal(size=(2, 3, 6))
        c = Tensor(RNG(22).normal(size=(2, 3, 6)))

        def input_grad(forward):
            leaf = Tensor(x, requires_grad=True)
            with Tape() as tape:
                loss = tensor_sum(mul(forward(leaf), c))
            backward(loss, tape)
            return leaf.grad

        main = input_grad(lambda t: block.layer2.forward(block.layer1.forward(t)))
        assert np.abs(main).max() > 0
        np.testing.assert_allclose(input_grad(block.forward), main + c.data, rtol=1e-12, atol=1e-12)

    def test_projection_weight_count_64_128(self):
        block = ConvBlock(TemporalConvLayer, 64, 128, RNG(14))
        assert block.projection.data.size == 8_192

    def test_projection_only_when_widths_differ(self):
        assert ConvBlock(TdscLayer, 64, 64, RNG(15)).projection is None
        assert ConvBlock(TdscLayer, 64, 128, RNG(15)).projection is not None

    def test_preserves_length(self):
        for layer_cls in (TemporalConvLayer, TdscLayer):
            block = ConvBlock(layer_cls, 4, 8, RNG(16))
            out = block.forward(Tensor(RNG(17).normal(size=(2, 4, 10)).astype(np.float32)))
            assert out.shape == (2, 8, 10)


class TestModeSwitch:
    @pytest.mark.parametrize("build", [
        lambda: Model(ArchitectureSpec("svdcnn", seq_len=64), seed=0),
        lambda: Model(ArchitectureSpec("vdcnn", seq_len=64, fc_hidden=16), seed=0),
        lambda: ConvBlock(TemporalConvLayer, 4, 8, RNG(0)),
        lambda: ConvBlock(TdscLayer, 4, 4, RNG(0)),
    ], ids=["svdcnn", "vdcnn", "standard-block", "separable-block"])
    def test_sets_every_module_and_returns_the_receiver(self, build):
        root = build()
        modules = list(root.modules())
        assert any(isinstance(m, ConvLayer) for m in modules) and any(isinstance(m, BatchNorm) for m in modules)
        assert all(m.mode == "train" for m in modules)
        assert root.eval() is root
        assert [m for m in modules if m.mode != "eval"] == []
        assert build().mode == "train"  # the switch sets instances, not the class default
        assert root.train() is root
        assert [m for m in modules if m.mode != "train"] == []
