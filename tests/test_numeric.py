"""Numeric core: kernels against brute-force oracles, taped gradients,
finite-difference checks and determinism."""

import inspect
import zlib

import numpy as np
import pytest

from svdcnn.autograd import (
    NonFiniteError,
    ShapeError,
    Tape,
    TapeConsumedError,
    Tensor,
    backward,
    grad_check,
)
from svdcnn import functional as F

from oracles import central_difference, conv1d_direct, depthwise_conv1d_direct, matvec_direct


class TestConv1d:
    def test_hand_case(self):
        out = F.conv1d(Tensor([[[1.0, 1, 1, 1]]]), Tensor([[[1.0, 1, 1]]]), Tensor([0.0]), padding=1)
        np.testing.assert_array_equal(out.data[0], [[2, 3, 3, 2]])

    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(3, 7)).astype(np.float32)
        identity = np.eye(3)[:, :, None] * np.array([0.0, 1.0, 0.0])[None, None, :]
        out = F.conv1d(Tensor(x[None]), Tensor(identity), padding=1)
        np.testing.assert_allclose(out.data[0], x, atol=1e-6)

    def test_weight_count_128_256(self):
        w = Tensor(np.zeros((256, 128, 3)))
        assert w.data.size == 98_304

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(3)
        cases = [
            (1, 1, 1, 4, 3, 1), (1, 2, 3, 5, 3, 1), (1, 3, 2, 6, 1, 0), (1, 2, 2, 4, 3, 0),
            (3, 4, 5, 6, 1, 0), (2, 2, 3, 4, 3, 2), (2, 2, 2, 1, 7, 4),
        ]
        for batch, in_ch, out_ch, length, k, pad in cases:
            x = rng.normal(size=(batch, in_ch, length))
            w = rng.normal(size=(out_ch, in_ch, k))
            b = rng.normal(size=out_ch)
            ours = F.conv1d(Tensor(x), Tensor(w), Tensor(b), padding=pad)
            for i in range(batch):
                np.testing.assert_allclose(ours.data[i], conv1d_direct(x[i], w, b, pad), rtol=1e-5, atol=1e-6)

    def test_batch_rows_match_batches_of_one(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 2, 6)).astype(np.float32)
        w = Tensor(rng.normal(size=(3, 2, 3)).astype(np.float32))
        batched = F.conv1d(Tensor(x), w, padding=1)
        for i in range(5):
            single = F.conv1d(Tensor(x[i:i + 1]), w, padding=1)
            np.testing.assert_array_equal(batched.data[i:i + 1], single.data)

    def test_channel_mismatch_names_extents(self):
        with pytest.raises(ShapeError, match="2 channels.*expects 3"):
            F.conv1d(Tensor(np.zeros((1, 2, 4))), Tensor(np.zeros((1, 3, 3))), padding=1)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            F.conv1d(Tensor(np.zeros((1, 1, 4))), Tensor(np.zeros((1, 1, 2))))

    def test_negative_padding_rejected(self):
        with pytest.raises(ValueError, match="padding must be non-negative, got -1"):
            F.conv1d(Tensor(np.arange(10.0).reshape(1, 2, 5)), Tensor(np.ones((1, 2, 3))), padding=-1)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        w = Tensor(rng.normal(size=(3, 2, 3)))
        for _ in range(20):
            a, b = rng.uniform(-2, 2, size=2)
            x = rng.normal(size=(2, 6))[None]
            y = rng.normal(size=(2, 6))[None]
            lhs = F.conv1d(Tensor(a * x + b * y), w, padding=1).data
            rhs = a * F.conv1d(Tensor(x), w, padding=1).data + b * F.conv1d(Tensor(y), w, padding=1).data
            np.testing.assert_allclose(lhs, rhs, atol=1e-5)


class TestDepthwise:
    def test_per_channel_identity(self):
        out = F.depthwise_conv1d(Tensor([[[1.0, 2, 3], [4, 5, 6]]]), Tensor([[0.0, 1, 0], [0, 1, 0]]), padding=1)
        np.testing.assert_array_equal(out.data[0], [[1, 2, 3], [4, 5, 6]])

    def test_hand_case(self):
        out = F.depthwise_conv1d(Tensor([[[1.0, 1, 1]]]), Tensor([[1.0, 1, 1]]), padding=1)
        np.testing.assert_array_equal(out.data[0], [[2, 3, 2]])

    def test_weight_count(self):
        assert Tensor(np.zeros((128, 3))).data.size == 384

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(6)
        for channels, length, pad in [(1, 4, 1), (2, 5, 1), (4, 8, 1), (3, 5, 0), (3, 4, 2)]:
            x = rng.normal(size=(channels, length))
            w = rng.normal(size=(channels, 3))
            ours = F.depthwise_conv1d(Tensor(x[None]), Tensor(w), padding=pad)
            np.testing.assert_allclose(ours.data[0], depthwise_conv1d_direct(x, w, pad), rtol=1e-5, atol=1e-6)

    def test_equals_block_diagonal_conv(self):
        # Brute-force: a depthwise filter is a full convolution whose weight
        # is zero off the channel diagonal.
        rng = np.random.default_rng(7)
        for channels in (1, 2, 3, 4):
            for length in (3, 5, 8):
                x = rng.normal(size=(channels, length))
                w = rng.normal(size=(channels, 3))
                full = np.zeros((channels, channels, 3))
                for c in range(channels):
                    full[c, c] = w[c]
                dw = F.depthwise_conv1d(Tensor(x[None]), Tensor(w), padding=1)
                conv = F.conv1d(Tensor(x[None]), Tensor(full), padding=1)
                np.testing.assert_allclose(dw.data, conv.data, rtol=1e-5, atol=1e-6)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError, match="3 channels.*weight has 2"):
            F.depthwise_conv1d(Tensor(np.zeros((1, 3, 4))), Tensor(np.zeros((2, 3))), padding=1)

    def test_negative_padding_rejected(self):
        # a negative padding would crop the input instead of padding it
        with pytest.raises(ValueError, match="padding must be non-negative, got -1"):
            F.depthwise_conv1d(Tensor(np.arange(10.0).reshape(1, 2, 5)), Tensor(np.ones((2, 3))), padding=-1)


# Per convolution: a random weight of kernel size k for a 3-channel input
# (conv1d maps it to 4 channels), the op, and its brute-force oracle.
CONVOLUTIONS = {
    "conv1d": (lambda rng, k: rng.normal(size=(4, 3, k)), F.conv1d, lambda x, w, p: conv1d_direct(x, w, None, p)),
    "depthwise_conv1d": (lambda rng, k: rng.normal(size=(3, k)), F.depthwise_conv1d, depthwise_conv1d_direct),
}


class TestTapEngine:
    @pytest.mark.parametrize("op", CONVOLUTIONS)
    @pytest.mark.parametrize("k,padding", [(k, p) for k in (1, 3, 5) for p in range(k + 1)])
    def test_every_kernel_and_padding_matches_direct_oracle_and_grad_check(self, op, k, padding):
        make_weight, conv, oracle = CONVOLUTIONS[op]
        rng = np.random.default_rng(100 * k + padding)
        for length in sorted({max(1, k - 2 * padding), 6}):
            x = rng.normal(size=(2, 3, length))
            w = make_weight(rng, k)
            ours = conv(Tensor(x), Tensor(w), padding=padding).data
            for b in range(2):
                np.testing.assert_allclose(ours[b], oracle(x[b], w, padding), rtol=1e-12, atol=1e-12)
            xt = Tensor(x, requires_grad=True, dtype=np.float64)
            wt = Tensor(w, requires_grad=True, dtype=np.float64)
            assert grad_check(lambda a, f: F.tensor_sum(F.mul(conv(a, f, padding=padding),
                                                               conv(a, f, padding=padding))), [xt, wt]) <= 1e-6

    @pytest.mark.parametrize("op,axis", [("conv1d", 0), ("depthwise_conv1d", 0), ("depthwise_conv1d", 1)])
    @pytest.mark.parametrize("k,padding", [(3, 0), (3, 1), (3, 3), (5, 2), (5, 4)])
    @pytest.mark.parametrize("value", [1e6, np.inf, np.nan])
    def test_neighbouring_rows_do_not_leak_into_a_row(self, op, axis, k, padding, value):
        # Perturb row 0's last and row 2's first time step along the batch
        # (axis 0) or channel (axis 1) axis, in the input and in the upstream
        # gradient: row 1 is bit-identical. Only depthwise keeps channels apart.
        make_weight, conv, _oracle = CONVOLUTIONS[op]
        rng = np.random.default_rng(11)
        x, w = rng.normal(size=(3, 3, 7)), make_weight(rng, k)

        def run(x, upstream):
            xt = Tensor(x, requires_grad=True, dtype=np.float64)
            with np.errstate(invalid="ignore"):  # the perturbed rows' inf and NaN reach the loss
                with Tape() as tape:
                    out = conv(xt, Tensor(w), padding=padding)
                    loss = F.tensor_sum(F.mul(out, Tensor(upstream)))
                backward(loss, tape)
            return out.data, xt.grad

        out_shape = conv(Tensor(x), Tensor(w), padding=padding).shape
        out, grad = run(x, np.ones(out_shape))
        perturbed_x, upstream = x.copy(), np.ones(out_shape)
        for a in (np.moveaxis(perturbed_x, axis, 0), np.moveaxis(upstream, axis, 0)):
            a[0, ..., -1] = a[2, ..., 0] = value
        out_p, _ = run(perturbed_x, np.ones(out_shape))
        _, grad_p = run(x, upstream)
        assert out_p.take(1, axis).tobytes() == out.take(1, axis).tobytes()
        assert grad_p.take(1, axis).tobytes() == grad.take(1, axis).tobytes()


class TestAffine:
    def test_identity(self):
        out = F.affine(Tensor([[3.0, 7.0]]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(out.data[0], [3, 7])

    def test_hand_case(self):
        out = F.affine(Tensor([[2.0, 3.0]]), Tensor([[1.0, 1], [1, -1]]), Tensor([1.0, 0.0]))
        np.testing.assert_array_equal(out.data[0], [6, -1])

    def test_weight_count_4096_to_4(self):
        assert Tensor(np.zeros((4, 4096))).data.size == 16_384

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(3, 5))
        x = rng.normal(size=5)
        b = rng.normal(size=3)
        np.testing.assert_allclose(
            F.affine(Tensor(x[None]), Tensor(w), Tensor(b)).data[0], matvec_direct(w, x, b), rtol=1e-5
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError, match="length 3.*expecting 5"):
            F.affine(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 5))), Tensor(np.zeros(2)))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            loss = F.tensor_sum(x)
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = F.tensor_sum(F.mul(x, x))
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, [2, 4])

    def test_conv_then_sum_matches_manual_finite_differences(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 6))[None], requires_grad=True, dtype=np.float64)
        w = Tensor(rng.normal(size=(3, 2, 3)), requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            loss = F.tensor_sum(F.mul(F.conv1d(x, w, padding=1), F.conv1d(x, w, padding=1)))
        backward(loss, tape)

        def value():
            return F.tensor_sum(F.mul(F.conv1d(x, w, padding=1), F.conv1d(x, w, padding=1))).data.item()

        for tensor in (x, w):
            flat = tensor.data.reshape(-1)
            grad = tensor.grad.reshape(-1)
            for j in range(flat.size):
                numeric = central_difference(value, flat, j, 1e-5)
                assert abs(grad[j] - numeric) / max(abs(grad[j]), abs(numeric), 1e-8) < 1e-3

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = F.mul(x, x)
        with pytest.raises(ValueError, match="scalar"):
            backward(y, tape)

    def test_second_backward_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = F.tensor_sum(x)
        backward(loss, tape)
        with pytest.raises(TapeConsumedError):
            backward(loss, tape)

    def test_unreachable_tensors_untouched(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        other = Tensor([5.0], requires_grad=True)
        with Tape() as tape:
            loss = F.tensor_sum(x)
            F.tensor_sum(other)  # recorded but not part of the loss
        loss_tape_grads_before = other.grad
        backward(loss, tape)
        assert loss_tape_grads_before is None and other.grad is None
        np.testing.assert_array_equal(x.grad, [1, 1])

    def test_reused_tensor_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            loss = F.tensor_sum(F.add(x, x))
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [2])

    def test_add_of_a_tensor_to_itself_sums_both_gradients(self):
        x = Tensor(np.zeros(4), requires_grad=True, dtype=np.float64)
        c = Tensor([1.0, -2.0, 3.0, 0.5], dtype=np.float64)
        with Tape() as tape:
            loss = F.tensor_sum(F.mul(F.add(x, x), c))
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, 2 * c.data)

    def test_add_gives_each_operand_its_own_gradient(self):
        a = Tensor(np.zeros(3), requires_grad=True, dtype=np.float64)
        b = Tensor(np.zeros(3), requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            loss = F.tensor_sum(F.mul(F.add(a, b), Tensor([1.0, 2.0, 3.0], dtype=np.float64)))
        backward(loss, tape)
        assert not np.may_share_memory(a.grad, b.grad)
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, [1, 2, 3])

    def test_first_gradient_kept_only_when_owned_writeable_and_matching(self):
        owned = np.ones(3, dtype=np.float32)
        t = Tensor(np.zeros(3, dtype=np.float32))
        t.accumulate_grad(owned)
        assert t.grad is owned
        base = np.ones(6, dtype=np.float32)
        readonly = np.ones(3, dtype=np.float32)
        readonly.flags.writeable = False
        for g in (base[:3], readonly, np.ones(3), np.ones((1, 3), dtype=np.float32)):
            t = Tensor(np.zeros(3, dtype=np.float32))
            t.accumulate_grad(g)
            assert t.grad.dtype == np.float32 and not np.may_share_memory(t.grad, g)
            t.accumulate_grad(np.ones(3, dtype=np.float32))
            np.testing.assert_array_equal(g, 1.0)

    def test_recorded_outputs_release_their_gradient(self):
        x = Tensor(np.arange(1.0, 5.0), requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            loss = F.tensor_sum(F.relu(F.mul(x, x)))
        recorded = [out for _name, out, _pull in tape.entries]
        backward(loss, tape)
        assert all(out.grad is None for out in recorded)
        np.testing.assert_array_equal(x.grad, 2 * x.data)


class _Recorded(Tensor):
    """A tensor that keeps the first array its backward hands to ``accumulate_grad``."""

    __slots__ = ("handed",)

    def accumulate_grad(self, g):
        if self.grad is None:
            self.handed = g
        super().accumulate_grad(g)


class TestGradientHandOver:
    """Each backward below hands over a fresh array that ``accumulate_grad`` keeps without a copy."""

    @pytest.mark.parametrize("op,call,shapes", [
        ("depthwise_conv1d", lambda x, w: F.depthwise_conv1d(x, w, padding=1), [(2, 3, 6), (3, 3)]),
        ("depthwise_conv1d_k5", lambda x, w: F.depthwise_conv1d(x, w, padding=2), [(2, 3, 6), (3, 5)]),
        ("maxpool_halve_even", F.maxpool_halve, [(2, 3, 6)]),
        ("maxpool_halve_odd", F.maxpool_halve, [(2, 3, 7)]),
        ("adaptive_avg_pool", lambda x: F.adaptive_avg_pool(x, 3), [(2, 3, 6)]),
        ("batch_norm_train", lambda x, g, b: F.batch_norm_train(x, g, b, 1e-5)[0], [(2, 3, 4), (3,), (3,)]),
        ("conv1d_bias", lambda x, w, b: F.conv1d(x, w, b, padding=1), [(2, 3, 5), (4, 3, 3), (4,)]),
        ("conv1d_k1", F.conv1d, [(2, 3, 5), (4, 3, 1)]),
    ])
    def test_every_gradient_is_kept_without_a_copy(self, op, call, shapes):
        rng = np.random.default_rng(zlib.crc32(op.encode()))
        inputs = [_Recorded(rng.normal(size=s).astype(np.float32), requires_grad=True) for s in shapes]
        with Tape() as tape:
            out = call(*inputs)
            loss = F.tensor_sum(F.mul(out, Tensor(rng.normal(size=out.shape))))
        backward(loss, tape)
        for t in inputs:
            assert t.grad is t.handed and t.grad.flags.owndata


class TestGradCheck:
    def test_sum_is_exact(self):
        x = Tensor(np.random.default_rng(0).normal(size=5), requires_grad=True, dtype=np.float64)
        assert grad_check(F.tensor_sum, [x]) < 1e-6

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(1)
        vals = rng.uniform(0.1, 1.0, size=8) * rng.choice([-1.0, 1.0], size=8)
        x = Tensor(vals, requires_grad=True, dtype=np.float64)
        assert grad_check(lambda t: F.tensor_sum(F.relu(t)), [x]) <= 1e-4

    @pytest.mark.parametrize(
        "name,builder",
        [
            ("conv1d", lambda rng: (
                lambda x, w, b: F.tensor_sum(F.mul(F.conv1d(x, w, b, padding=1), F.conv1d(x, w, b, padding=1))),
                [Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True, dtype=np.float64),
                 Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True, dtype=np.float64),
                 Tensor(rng.normal(size=4), requires_grad=True, dtype=np.float64)],
            )),
            ("conv1d_k1_pad0", lambda rng: (
                lambda x, w, b: F.tensor_sum(F.mul(F.conv1d(x, w, b), F.conv1d(x, w, b))),
                [Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True, dtype=np.float64),
                 Tensor(rng.normal(size=(4, 3, 1)), requires_grad=True, dtype=np.float64),
                 Tensor(rng.normal(size=4), requires_grad=True, dtype=np.float64)],
            )),
            ("conv1d_k3_pad0", lambda rng: (
                lambda x, w: F.tensor_sum(F.mul(F.conv1d(x, w, padding=0), F.conv1d(x, w, padding=0))),
                [Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True, dtype=np.float64),
                 Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True, dtype=np.float64)],
            )),
            ("conv1d_k3_pad2", lambda rng: (
                lambda x, w: F.tensor_sum(F.mul(F.conv1d(x, w, padding=2), F.conv1d(x, w, padding=2))),
                [Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True, dtype=np.float64),
                 Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True, dtype=np.float64)],
            )),
            ("depthwise_pad0", lambda rng: (
                lambda x, w: F.tensor_sum(F.mul(F.depthwise_conv1d(x, w, padding=0), F.depthwise_conv1d(x, w, padding=0))),
                [Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True, dtype=np.float64),
                 Tensor(rng.normal(size=(3, 3)), requires_grad=True, dtype=np.float64)],
            )),
            ("depthwise_pad2", lambda rng: (
                lambda x, w: F.tensor_sum(F.mul(F.depthwise_conv1d(x, w, padding=2), F.depthwise_conv1d(x, w, padding=2))),
                [Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True, dtype=np.float64),
                 Tensor(rng.normal(size=(3, 3)), requires_grad=True, dtype=np.float64)],
            )),
            ("depthwise", lambda rng: (
                lambda x, w: F.tensor_sum(F.mul(F.depthwise_conv1d(x, w, padding=1), F.depthwise_conv1d(x, w, padding=1))),
                [Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True, dtype=np.float64),
                 Tensor(rng.normal(size=(3, 3)), requires_grad=True, dtype=np.float64)],
            )),
            ("affine", lambda rng: (
                lambda x, w, b: F.tensor_sum(F.mul(F.affine(x, w, b), F.affine(x, w, b))),
                [Tensor(rng.normal(size=(2, 5)), requires_grad=True, dtype=np.float64),
                 Tensor(rng.normal(size=(3, 5)), requires_grad=True, dtype=np.float64),
                 Tensor(rng.normal(size=3), requires_grad=True, dtype=np.float64)],
            )),
            ("batch_norm_train", lambda rng: (
                lambda x, g, b: F.tensor_sum(F.mul(F.batch_norm_train(x, g, b, 1e-5)[0],
                                                   F.batch_norm_train(x, g, b, 1e-5)[0])),
                [Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True, dtype=np.float64),
                 Tensor(rng.uniform(0.5, 1.5, size=3), requires_grad=True, dtype=np.float64),
                 Tensor(rng.normal(size=3), requires_grad=True, dtype=np.float64)],
            )),
            ("batch_norm_eval", lambda rng: (
                lambda x, g, b: F.tensor_sum(F.mul(
                    F.batch_norm_eval(x, g, b, np.zeros(3), np.ones(3), 1e-5),
                    F.batch_norm_eval(x, g, b, np.zeros(3), np.ones(3), 1e-5))),
                [Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True, dtype=np.float64),
                 Tensor(rng.uniform(0.5, 1.5, size=3), requires_grad=True, dtype=np.float64),
                 Tensor(rng.normal(size=3), requires_grad=True, dtype=np.float64)],
            )),
            ("maxpool", lambda rng: (
                lambda x: F.tensor_sum(F.mul(F.maxpool_halve(x), F.maxpool_halve(x))),
                # well-separated values keep finite differences off pooling ties
                [Tensor(rng.permutation(np.linspace(0.2, 3.0, 24)).reshape(1, 3, 8),
                        requires_grad=True, dtype=np.float64)],
            )),
            ("kmax", lambda rng: (
                lambda x: F.tensor_sum(F.mul(F.kmax_pool(x, 3), F.kmax_pool(x, 3))),
                [Tensor(rng.permutation(np.linspace(0.2, 3.0, 16)).reshape(2, 8)[None],
                        requires_grad=True, dtype=np.float64)],
            )),
            ("avgpool", lambda rng: (
                lambda x: F.tensor_sum(F.mul(F.adaptive_avg_pool(x, 2), F.adaptive_avg_pool(x, 2))),
                [Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True, dtype=np.float64)],
            )),
            ("embedding", lambda rng: (
                lambda t: F.tensor_sum(F.mul(F.embedding(np.array([[0, 2, 1, 2]]), t),
                                             F.embedding(np.array([[0, 2, 1, 2]]), t))),
                [Tensor(rng.normal(size=(4, 3)), requires_grad=True, dtype=np.float64)],
            )),
            ("cross_entropy", lambda rng: (
                lambda z: F.cross_entropy(z, np.array([1, 0, 2])),
                [Tensor(rng.normal(size=(3, 4)), requires_grad=True, dtype=np.float64)],
            )),
            ("add_mul_relu", lambda rng: (
                lambda a, b: F.tensor_sum(F.relu(F.add(F.mul(a, b), b))),
                [Tensor(rng.uniform(0.2, 1.0, size=(3, 4)), requires_grad=True, dtype=np.float64),
                 Tensor(rng.uniform(0.2, 1.0, size=(3, 4)), requires_grad=True, dtype=np.float64)],
            )),
            ("flatten", lambda rng: (
                lambda x: F.tensor_sum(F.mul(F.flatten_features(x), F.flatten_features(x))),
                [Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True, dtype=np.float64)],
            )),
        ],
    )
    def test_primitive_gradients(self, name, builder):
        f, inputs = builder(np.random.default_rng(zlib.crc32(name.encode())))
        assert grad_check(f, inputs) <= 1e-3

    def test_non_finite_reports_op_index(self):
        x = Tensor([1.0], requires_grad=True)

        def f(t):
            doubled = F.add(t, t)
            return F.tensor_sum(F.mul(doubled, Tensor([np.inf])))

        with pytest.raises(NonFiniteError, match=r"operation 1 \(mul\)"):
            grad_check(f, [x])

    def test_eps_validated(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError, match="eps"):
            grad_check(F.tensor_sum, [x], eps=0.5)


# case -> (tape entry name, call on the input tensors, input shapes)
_RECORDING_CASES = {
    "conv1d": ("conv1d", lambda x, w, b: F.conv1d(x, w, b, padding=1), [(2, 3, 5), (4, 3, 3), (4,)]),
    "conv1d_no_bias": ("conv1d", lambda x, w: F.conv1d(x, w, padding=1), [(2, 3, 5), (4, 3, 3)]),
    "depthwise_conv1d": ("depthwise_conv1d", lambda x, w: F.depthwise_conv1d(x, w, padding=1), [(2, 3, 5), (3, 3)]),
    "affine": ("affine", F.affine, [(2, 5), (3, 5), (3,)]),
    "relu": ("relu", F.relu, [(2, 3)]),
    "add": ("add", F.add, [(2, 3), (2, 3)]),
    "mul": ("mul", F.mul, [(2, 3), (2, 3)]),
    "tensor_sum": ("sum", F.tensor_sum, [(2, 3)]),
    "maxpool_halve": ("maxpool_halve", F.maxpool_halve, [(2, 3, 6)]),
    "kmax_pool": ("kmax_pool", lambda x: F.kmax_pool(x, 2), [(2, 3, 6)]),
    "adaptive_avg_pool": ("adaptive_avg_pool", lambda x: F.adaptive_avg_pool(x, 3), [(2, 3, 6)]),
    "flatten_features": ("flatten", F.flatten_features, [(2, 3, 4)]),
    "embedding": ("embedding", lambda t: F.embedding(np.array([[0, 2, 1]]), t), [(4, 3)]),
    "batch_norm_train": ("batch_norm_train", lambda x, g, b: F.batch_norm_train(x, g, b, 1e-5)[0],
                         [(2, 3, 4), (3,), (3,)]),
    "batch_norm_eval": ("batch_norm_eval",
                        lambda x, g, b: F.batch_norm_eval(x, g, b, np.zeros(3), np.ones(3), 1e-5),
                        [(2, 3, 4), (3,), (3,)]),
    "cross_entropy": ("cross_entropy", lambda z: F.cross_entropy(z, np.array([1, 0])), [(2, 4)]),
}


class TestRecordingRule:
    """An output needs a gradient exactly when an input does, and only then is its pull taped."""

    def test_cases_cover_every_primitive(self):
        primitives = {name for name, fn in vars(F).items()
                      if inspect.isfunction(fn) and fn.__module__ == F.__name__ and not name.startswith("_")}
        assert primitives == set(_RECORDING_CASES) - {"conv1d_no_bias"}

    @pytest.mark.parametrize(
        "case,grad_input",
        [(case, i) for case, (_op, _call, shapes) in _RECORDING_CASES.items() for i in [None, *range(len(shapes))]],
    )
    def test_output_and_tape_follow_the_inputs(self, case, grad_input):
        op, call, shapes = _RECORDING_CASES[case]
        rng = np.random.default_rng(zlib.crc32(case.encode()))
        inputs = [Tensor(rng.normal(size=shape), requires_grad=i == grad_input) for i, shape in enumerate(shapes)]
        with Tape() as tape:
            out = call(*inputs)
        if grad_input is None:
            assert not out.requires_grad
            assert len(tape) == 0
        else:
            assert out.requires_grad
            assert [(name, produced) for name, produced, _pull in tape.entries] == [(op, out)]


class TestBatchedLayout:
    @pytest.mark.parametrize(
        "op,call",
        [
            ("conv1d", lambda x: F.conv1d(x, Tensor(np.zeros((2, 3, 3))), padding=1)),
            ("depthwise_conv1d", lambda x: F.depthwise_conv1d(x, Tensor(np.zeros((3, 3))), padding=1)),
            ("maxpool_halve", F.maxpool_halve),
            ("kmax_pool", lambda x: F.kmax_pool(x, 2)),
            ("adaptive_avg_pool", lambda x: F.adaptive_avg_pool(x, 2)),
            ("flatten_features", F.flatten_features),
            ("batch_norm_train", lambda x: F.batch_norm_train(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), 1e-5)),
            ("batch_norm_eval", lambda x: F.batch_norm_eval(
                x, Tensor(np.ones(3)), Tensor(np.zeros(3)), np.zeros(3), np.ones(3), 1e-5)),
        ],
    )
    def test_unbatched_temporal_input_names_op_and_shape(self, op, call):
        with pytest.raises(ShapeError, match=rf"{op} input must be \[B, C, L\], got shape \(3, 4\)"):
            call(Tensor(np.zeros((3, 4))))

    def test_unbatched_dense_input_rejected(self):
        with pytest.raises(ShapeError, match=r"affine input must be \[B, N\], got shape \(5,\)"):
            F.affine(Tensor(np.zeros(5)), Tensor(np.zeros((3, 5))), Tensor(np.zeros(3)))

    def test_unbatched_indices_rejected(self):
        with pytest.raises(ShapeError, match=r"embedding indices must be \[B, s\], got shape \(4,\)"):
            F.embedding(np.zeros(4, dtype=np.int64), Tensor(np.zeros((5, 2))))


class TestPerChannelShapes:
    @pytest.mark.parametrize(
        "op,param",
        [("batch_norm_train", "gamma"), ("batch_norm_train", "beta")]
        + [("batch_norm_eval", p) for p in ("gamma", "beta", "running_mean", "running_var")],
    )
    def test_wrong_channel_count_names_op_parameter_and_shape(self, op, param):
        args = {"gamma": Tensor(np.ones(2)), "beta": Tensor(np.zeros(2)), "running_mean": np.zeros(2), "running_var": np.ones(2)}
        args[param] = Tensor(np.ones(3)) if param in ("gamma", "beta") else np.ones(3)
        if op == "batch_norm_train":
            del args["running_mean"], args["running_var"]
        with pytest.raises(ShapeError, match=rf"^{op} {param} has shape \(3,\), but the input has 2 channels$"):
            getattr(F, op)(Tensor(np.zeros((1, 2, 6))), **args, eps=1e-5)


class TestInvariantsAndHygiene:
    def test_outputs_finite_on_finite_inputs(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(2, 4, 8)).astype(np.float32))
        w = Tensor(rng.normal(size=(4, 4, 3)).astype(np.float32))
        g = Tensor(np.ones(4, dtype=np.float32))
        b = Tensor(np.zeros(4, dtype=np.float32))
        out, _, _, _ = F.batch_norm_train(F.conv1d(x, w, padding=1), g, b, 1e-5)
        pooled = F.maxpool_halve(F.relu(out))
        assert np.all(np.isfinite(pooled.data))

    def test_float32_by_default(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float32
        assert F.relu(t).data.dtype == np.float32

    def test_shape_matches_buffer(self):
        t = Tensor(np.zeros((2, 3)))
        assert int(np.prod(t.shape)) == t.data.size

    def test_deterministic_across_runs_in_process(self):
        def run():
            rng = np.random.default_rng(42)
            x = Tensor(rng.normal(size=(2, 3, 8)).astype(np.float32))
            w = Tensor(rng.normal(size=(4, 3, 3)).astype(np.float32))
            return F.maxpool_halve(F.relu(F.conv1d(x, w, padding=1))).data

        first, second = run(), run()
        assert first.tobytes() == second.tobytes()
