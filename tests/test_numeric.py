"""Numeric core: kernels against brute-force oracles, taped gradients,
finite-difference checks and determinism."""

import inspect
import platform
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from svdcnn.autograd import (
    GradSlot,
    NonFiniteError,
    ShapeError,
    Tape,
    TapeConsumedError,
    Tensor,
    backward,
    grad_check,
)
from svdcnn import functional as F
from svdcnn.architecture import ArchitectureSpec, head_weight_params, standard_layer_weights, tdsc_layer_weights
from svdcnn.layers import AvgPoolLinearHead, TdscLayer, TemporalConvLayer

from oracles import (
    MEMORY_ORDERS,
    central_difference,
    conv1d_direct,
    depthwise_conv1d_direct,
    in_memory_order,
    matvec_direct,
)
from primitive_cases import CASES, ERROR_CASES, draw_inputs, gradient_error, is_temporal, primitive
from taped_ops import mul, tensor_sum


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
        layer = TemporalConvLayer(128, 256, np.random.default_rng(0))
        assert layer.weight.size == standard_layer_weights(128, 256) == 98_304

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(3)
        cases = [
            (1, 1, 1, 4, 3, 1), (1, 2, 3, 5, 3, 1), (1, 3, 2, 6, 1, 0), (3, 4, 5, 6, 1, 0),
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
        layer = TdscLayer(128, 256, np.random.default_rng(0))
        assert layer.depthwise.size + layer.pointwise.size == tdsc_layer_weights(128, 256) == 33_152

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(6)
        for channels, length, pad in [(1, 4, 1), (2, 5, 1), (4, 8, 1)]:
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


# Per convolution: a random weight of kernel size k for a 3-channel input
# (conv1d maps it to 4 channels), the op, and its brute-force oracle.
CONVOLUTIONS = {
    "conv1d": (lambda rng, k: rng.normal(size=(4, 3, k)), F.conv1d, lambda x, w, p: conv1d_direct(x, w, None, p)),
    "depthwise_conv1d": (lambda rng, k: rng.normal(size=(3, k)), F.depthwise_conv1d, depthwise_conv1d_direct),
}


class TestTapEngine:
    @pytest.mark.parametrize("order", MEMORY_ORDERS)
    @pytest.mark.parametrize("op", CONVOLUTIONS)
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_every_kernel_matches_direct_oracle_and_grad_check(self, op, k, order):
        make_weight, conv, oracle = CONVOLUTIONS[op]
        padding = k // 2
        rng = np.random.default_rng(100 * k + padding)
        for length in (1, 6):
            x = in_memory_order(rng.normal(size=(2, 3, length)), order)
            w = make_weight(rng, k)
            ours = conv(Tensor(x), Tensor(w), padding=padding).data
            for b in range(2):
                np.testing.assert_allclose(ours[b], oracle(x[b], w, padding), rtol=1e-12, atol=1e-12)
            xt = Tensor(x, requires_grad=True, dtype=np.float64)
            wt = Tensor(w, requires_grad=True, dtype=np.float64)
            assert grad_check(lambda a, f: tensor_sum(mul(conv(a, f, padding=padding),
                                                          conv(a, f, padding=padding))), [xt, wt]) <= 1e-6

    @pytest.mark.parametrize("op", CONVOLUTIONS)
    @pytest.mark.parametrize("padding", [-1, 0, 2])
    def test_padding_other_than_half_the_kernel_rejected(self, op, padding):
        make_weight, conv, _oracle = CONVOLUTIONS[op]
        w = make_weight(np.random.default_rng(0), 3)
        with pytest.raises(ValueError, match=rf"^{op} padding must be k // 2 = 1, got {padding}$"):
            conv(Tensor(np.zeros((1, 3, 5))), Tensor(w), padding=padding)

    @pytest.mark.parametrize("op", CONVOLUTIONS)
    @pytest.mark.parametrize("k", [1, 5, 7])
    @pytest.mark.parametrize("offset", [-1, 1])
    def test_padding_one_off_half_the_kernel_rejected(self, op, k, offset):
        make_weight, conv, _oracle = CONVOLUTIONS[op]
        padding = k // 2 + offset
        with pytest.raises(ValueError, match=rf"^{op} padding must be k // 2 = {k // 2}, got {padding}$"):
            conv(Tensor(np.zeros((1, 3, 5))), Tensor(make_weight(np.random.default_rng(0), k)), padding=padding)

    @pytest.mark.parametrize("op", CONVOLUTIONS)
    @pytest.mark.parametrize("k", [2, 4])
    def test_even_kernel_rejected_before_padding(self, op, k):
        make_weight, conv, _oracle = CONVOLUTIONS[op]
        with pytest.raises(ShapeError, match=rf"^kernel size must be odd, got {k}$"):
            conv(Tensor(np.zeros((1, 3, 5))), Tensor(make_weight(np.random.default_rng(0), k)), padding=k // 2)

    @pytest.mark.parametrize("op", CONVOLUTIONS)
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_zero_length_input_gives_empty_output_and_zero_gradients(self, op, k):
        make_weight, conv, _oracle = CONVOLUTIONS[op]
        w = make_weight(np.random.default_rng(k), k)
        xt = Tensor(np.zeros((2, 3, 0)), requires_grad=True, dtype=np.float64)
        wt = Tensor(w, requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            out = conv(xt, wt, padding=k // 2)
            loss = tensor_sum(out)
        backward(loss, tape)
        assert out.shape == (2, 4 if op == "conv1d" else 3, 0)
        assert xt.grad.shape == (2, 3, 0)
        np.testing.assert_array_equal(wt.grad, np.zeros_like(w))

    @pytest.mark.parametrize("order", MEMORY_ORDERS)
    @pytest.mark.parametrize("op,axis", [("conv1d", 0), ("depthwise_conv1d", 0), ("depthwise_conv1d", 1)])
    @pytest.mark.parametrize("k,padding", [(1, 0), (3, 1), (5, 2), (7, 3)])
    @pytest.mark.parametrize("value", [1e6, np.inf, np.nan])
    def test_neighbouring_rows_do_not_leak_into_a_row(self, op, axis, k, padding, value, order):
        # Perturb row 0's last and row 2's first time step along the batch
        # (axis 0) or channel (axis 1) axis, in the input and in the upstream
        # gradient: row 1 is bit-identical. Only depthwise keeps channels apart.
        make_weight, conv, _oracle = CONVOLUTIONS[op]
        rng = np.random.default_rng(11)
        x, w = rng.normal(size=(3, 3, 7)), make_weight(rng, k)

        def run(x, upstream):
            xt = Tensor(in_memory_order(x, order), requires_grad=True, dtype=np.float64)
            with np.errstate(invalid="ignore"):  # the perturbed rows' inf and NaN reach the loss
                with Tape() as tape:
                    out = conv(xt, Tensor(w), padding=padding)
                    loss = tensor_sum(mul(out, Tensor(in_memory_order(upstream, order))))
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

    @pytest.mark.parametrize("op", CONVOLUTIONS)
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_float32_output_and_gradients_match_float64(self, op, k):
        # float64 is checked against the oracle and grad_check above
        make_weight, conv, _oracle = CONVOLUTIONS[op]
        rng = np.random.default_rng(200 + k)
        x, w = rng.normal(size=(3, 3, 9)), make_weight(rng, k)
        upstream = rng.normal(size=conv(Tensor(x), Tensor(w), padding=k // 2).shape)
        results = []
        for dtype in (np.float32, np.float64):
            xt, wt = Tensor(x, requires_grad=True, dtype=dtype), Tensor(w, requires_grad=True, dtype=dtype)
            with Tape() as tape:
                out = conv(xt, wt, padding=k // 2)
                loss = tensor_sum(mul(out, Tensor(upstream, dtype=dtype)))
            backward(loss, tape)
            results.append((out.data, xt.grad, wt.grad))
        for single, double in zip(*results):
            assert single.dtype == np.float32
            np.testing.assert_allclose(single, double, rtol=1e-5, atol=1e-5)


@pytest.fixture
def without_blas(monkeypatch):
    """No GEMM bound, as where numpy's bundled OpenBLAS is not found: ``conv1d`` adds its side taps with
    ``_matmul_add``."""
    monkeypatch.setattr(F, "_GEMMS", {})


@pytest.mark.usefixtures("without_blas")
class TestConv1dWithoutBlas(TestConv1d):
    pass


@pytest.mark.usefixtures("without_blas")
class TestTapEngineWithoutBlas(TestTapEngine):
    @pytest.mark.parametrize("case", [case for case in CASES if primitive(case) == "conv1d"])
    def test_conv1d_cases_pass_grad_check(self, case):  # TestGradCheck's check, on this route
        assert gradient_error(case) <= 1e-3


def numpy_wheel_with_bundled_openblas64() -> bool:
    """Whether numpy is a Linux x86-64 wheel (its libraries in ``numpy.libs``) built with ILP64 scipy-openblas."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 takes no mode
        return False
    return (platform.system(), platform.machine()) == ("Linux", "x86_64") \
        and blas.get("name") == "scipy-openblas" and "USE64BITINT" in blas.get("openblas configuration", "") \
        and (Path(np.__file__).parent.parent / "numpy.libs").is_dir()


@pytest.mark.skipif(not numpy_wheel_with_bundled_openblas64(),
                    reason="conv1d binds a GEMM only from the OpenBLAS that numpy's wheels bundle")
def test_bundled_openblas_gives_conv1d_its_beta_one_gemms(monkeypatch):
    assert set(F._GEMMS) == {np.dtype(np.float32)}
    calls = []

    def counted(gemm):
        def call(a, b, c):
            calls.append(c.dtype)
            gemm(a, b, c)
        return call

    monkeypatch.setattr(F, "_GEMMS", {dtype: counted(gemm) for dtype, gemm in F._GEMMS.items()})
    for dtype in (np.float32, np.float64):
        x = Tensor(np.ones((2, 3, 5)), requires_grad=True, dtype=dtype)
        with Tape() as tape:
            loss = tensor_sum(F.conv1d(x, Tensor(np.ones((4, 3, 3)), dtype=dtype), padding=1))
        backward(loss, tape)
    # two side taps in the forward and two in the input gradient, float32 only: float64 takes _matmul_add
    assert calls == [np.float32] * 4


@pytest.mark.skipif(not F._GEMMS, reason="no GEMM bound")
@pytest.mark.parametrize("bad", ["dtype", "shape", "strided a", "strided b", "strided c"])
def test_bound_gemm_rejects_operands_it_cannot_pass_as_pointers(bad):
    dtype, gemm = next(iter(F._GEMMS.items()))
    a, b, c = np.ones((4, 3), dtype), np.ones((3, 2), dtype), np.zeros((4, 2), dtype)
    args = {"dtype": (a.astype(np.float16), b, c), "shape": (a, b, np.zeros((4, 3), dtype)),
            "strided a": (np.ones((4, 6), dtype)[:, ::2], b, c), "strided b": (a, np.ones((3, 4), dtype)[:, ::2], c),
            "strided c": (a, b, np.zeros((4, 4), dtype)[:, ::2])}[bad]
    with pytest.raises(ValueError, match="^gemm operands"):
        gemm(*args)


class TestAffine:
    def test_identity(self):
        out = F.affine(Tensor([[3.0, 7.0]]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(out.data[0], [3, 7])

    def test_hand_case(self):
        out = F.affine(Tensor([[2.0, 3.0]]), Tensor([[1.0, 1], [1, -1]]), Tensor([1.0, 0.0]))
        np.testing.assert_array_equal(out.data[0], [6, -1])

    def test_weight_count_4096_to_4(self):
        assert AvgPoolLinearHead(512, 8, 4).fc.weight.size == head_weight_params(ArchitectureSpec("svdcnn")) == 16_384

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(3, 5))
        x = rng.normal(size=5)
        b = rng.normal(size=3)
        np.testing.assert_allclose(
            F.affine(Tensor(x[None]), Tensor(w), Tensor(b)).data[0], matvec_direct(w, x, b), rtol=1e-5
        )

    @pytest.mark.parametrize("x_rows,w_rows,n", [(4, 3, 5), (2, 3, 5), (64, 4, 4096), (16, 2048, 4096)])
    def test_both_product_forms_match_the_definition(self, x_rows, w_rows, n):
        # a weight with more rows than x runs on the left and gives a column-major output
        rng = np.random.default_rng(n)
        x, w, b = (rng.normal(size=shape).astype(np.float32) for shape in ((x_rows, n), (w_rows, n), (w_rows,)))
        out = F.affine(Tensor(x), Tensor(w), Tensor(b)).data
        assert out.flags.c_contiguous == (w_rows < x_rows)
        exact = x.astype(np.float64) @ w.T.astype(np.float64) + b
        bound = np.abs(x).astype(np.float64) @ np.abs(w).T + np.abs(b)
        assert (np.abs(out - exact) <= n * np.finfo(np.float32).eps * bound).all()  # float32 rounding of x @ w.T + b

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError, match="length 3.*expecting 5"):
            F.affine(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 5))), Tensor(np.zeros(2)))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            loss = tensor_sum(x)
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = tensor_sum(mul(x, x))
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, [2, 4])

    def test_conv_then_sum_matches_manual_finite_differences(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 6))[None], requires_grad=True, dtype=np.float64)
        w = Tensor(rng.normal(size=(3, 2, 3)), requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            loss = tensor_sum(mul(F.conv1d(x, w, padding=1), F.conv1d(x, w, padding=1)))
        backward(loss, tape)

        def value():
            return tensor_sum(mul(F.conv1d(x, w, padding=1), F.conv1d(x, w, padding=1))).data.item()

        for tensor in (x, w):
            flat = tensor.data.reshape(-1)
            grad = tensor.grad.reshape(-1)
            for j in range(flat.size):
                numeric = central_difference(value, flat, j, 1e-5)
                assert abs(grad[j] - numeric) / max(abs(grad[j]), abs(numeric), 1e-8) < 1e-3

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = mul(x, x)
        with pytest.raises(ValueError, match="scalar"):
            backward(y, tape)

    def test_second_backward_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = tensor_sum(x)
        backward(loss, tape)
        with pytest.raises(TapeConsumedError):
            backward(loss, tape)

    def test_unreachable_tensors_untouched(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        other = Tensor([5.0], requires_grad=True)
        with Tape() as tape:
            loss = tensor_sum(x)
            tensor_sum(other)  # recorded but not part of the loss
        loss_tape_grads_before = other.grad
        backward(loss, tape)
        assert loss_tape_grads_before is None and other.grad is None
        np.testing.assert_array_equal(x.grad, [1, 1])

    def test_reused_tensor_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            loss = tensor_sum(F.add(x, x))
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [2])

    def test_add_of_a_tensor_to_itself_sums_both_gradients(self):
        x = Tensor(np.zeros(4), requires_grad=True, dtype=np.float64)
        c = Tensor([1.0, -2.0, 3.0, 0.5], dtype=np.float64)
        with Tape() as tape:
            loss = tensor_sum(mul(F.add(x, x), c))
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, 2 * c.data)

    def test_add_gives_each_operand_its_own_gradient(self):
        a = Tensor(np.zeros(3), requires_grad=True, dtype=np.float64)
        b = Tensor(np.zeros(3), requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            loss = tensor_sum(mul(F.add(a, b), Tensor([1.0, 2.0, 3.0], dtype=np.float64)))
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
            loss = tensor_sum(F.relu(mul(x, x)))
        recorded = [slot for _name, slot, _pull in tape.entries]
        backward(loss, tape)
        assert all(slot.grad is None for slot in recorded)
        np.testing.assert_array_equal(x.grad, 2 * x.data)

    def test_backward_releases_each_entry_and_keeps_names_and_length(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True, dtype=np.float64)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True, dtype=np.float64)
        gamma = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        beta = Tensor(np.zeros(3), requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            hidden = F.depthwise_conv1d(x, w, padding=1)
            loss = tensor_sum(F.batch_norm_train(hidden, gamma, beta, 1e-5)[0])
        names = [name for name, _slot, _pull in tape.entries]
        assert [slot for _name, slot, _pull in tape.entries][0] is hidden.slot
        tensor, data = weakref.ref(hidden), weakref.ref(hidden.data)
        del hidden
        assert tensor() is None  # the tape holds the intermediate's gradient slot, not the tensor
        assert data() is not None  # the batch norm's backward reads the intermediate
        backward(loss, tape)
        assert len(tape) == len(names) == 3
        assert tape.entries == tuple((name, None, None) for name in names)
        assert data() is None  # freed while the tape is still held
        assert all(t.grad is not None for t in (x, w, gamma, beta))


class TestSavedArrays:
    """A recorded backward keeps exactly the input arrays its case says it reads: with the inputs and the output
    dropped and the tape held, every other input array is freed. Temporal inputs are channels-last, so the op
    reads the array itself, not a copy."""

    @pytest.mark.parametrize("case", CASES)
    def test_tape_keeps_exactly_the_inputs_the_backward_reads(self, case):
        arrays = draw_inputs(case)
        if is_temporal(case):
            arrays[0] = in_memory_order(arrays[0], "channels_last")
        refs = [weakref.ref(a) for a in arrays]
        inputs = [Tensor(a, requires_grad=True) for a in arrays]
        del arrays
        with Tape() as tape:
            CASES[case].call(*inputs)
        del inputs
        assert len(tape) == 1
        assert tuple(i for i, ref in enumerate(refs) if ref() is not None) == CASES[case].reads


class TestKeptMasks:
    """A recorded batch norm or max-pool keeps each bool mask at one bit per element: with the output dropped and
    the tape held, the numpy buffers the call made and still holds (``tracemalloc``'s numpy domain, exact to the
    byte) come to at most its case's ``kept`` bytes, ``ceil(n / 8)`` per mask of n elements. The temporal input is
    channels-last, so the op keeps that array itself, made before the count starts."""

    @pytest.mark.parametrize("case", [case for case in CASES if CASES[case].kept is not None])
    def test_masks_are_kept_at_one_bit_per_element(self, case):
        arrays = draw_inputs(case)
        arrays[0] = in_memory_order(arrays[0], "channels_last")
        inputs = [Tensor(a, requires_grad=True) for a in arrays]
        tracemalloc.start()
        try:
            with Tape() as tape:
                CASES[case].call(*inputs)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        numpy_buffers = snapshot.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        assert len(tape) == 1
        assert 0 < sum(trace.size for trace in numpy_buffers.traces) <= CASES[case].kept(*arrays[0].shape)


class TestGradientHandOver:
    """Each backward hands over a fresh array that ``accumulate_grad`` keeps without a copy, whichever memory order
    a ``[B, C, L]`` input has; that input's gradient is channels-last."""

    @pytest.mark.parametrize("case,order", [(case, order) for case in CASES
                                            for order in (MEMORY_ORDERS if is_temporal(case) else MEMORY_ORDERS[:1])])
    def test_every_gradient_is_kept_without_a_copy(self, case, order, monkeypatch):
        arrays = [a.astype(np.float32) for a in draw_inputs(case)]
        if is_temporal(case):
            arrays[0] = in_memory_order(arrays[0], order)
        inputs = [Tensor(a, requires_grad=True) for a in arrays]
        handed = {}  # per slot, the first array a backward hands to it
        accumulate = GradSlot.accumulate_grad

        def recording_accumulate(slot, g):
            if slot.grad is None:
                handed[id(slot)] = g
            accumulate(slot, g)

        monkeypatch.setattr(GradSlot, "accumulate_grad", recording_accumulate)
        with Tape() as tape:
            out = CASES[case].call(*inputs)
            loss = tensor_sum(mul(out, Tensor(np.random.default_rng(0).normal(size=out.shape))))
        backward(loss, tape)
        for t in inputs:
            assert t.grad is handed[id(t.slot)] and t.grad.flags.owndata
        if is_temporal(case):
            gx = inputs[0].grad
            assert gx.strides[1:] == (gx.itemsize, gx.shape[1] * gx.itemsize)


class TestGradCheck:
    def test_sum_is_exact(self):
        x = Tensor(np.random.default_rng(0).normal(size=5), requires_grad=True, dtype=np.float64)
        assert grad_check(tensor_sum, [x]) < 1e-6

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(1)
        vals = rng.uniform(0.1, 1.0, size=8) * rng.choice([-1.0, 1.0], size=8)
        x = Tensor(vals, requires_grad=True, dtype=np.float64)
        assert grad_check(lambda t: tensor_sum(F.relu(t)), [x]) <= 1e-4

    @pytest.mark.parametrize("case", CASES)
    def test_primitive_gradients(self, case):
        assert gradient_error(case) <= 1e-3

    @pytest.mark.parametrize("op", CONVOLUTIONS)
    def test_channels_last_input_checks_like_a_c_contiguous_one(self, op):
        # The perturbations must reach t.data itself: a flat reshape of a
        # channels-last array is a copy, and perturbing it would read as a zero
        # numeric gradient.
        make_weight, conv, _oracle = CONVOLUTIONS[op]
        rng = np.random.default_rng(12)
        x, w = rng.normal(size=(2, 3, 6)), Tensor(make_weight(rng, 3), dtype=np.float64)

        def f(a):
            return tensor_sum(mul(conv(a, w, padding=1), conv(a, w, padding=1)))

        worst = [grad_check(f, [Tensor(in_memory_order(x, order), requires_grad=True, dtype=np.float64)])
                 for order in MEMORY_ORDERS]
        assert worst[0] == worst[1] <= 1e-6

    def test_non_finite_reports_op_index(self):
        x = Tensor([1.0], requires_grad=True)

        def f(t):
            doubled = F.add(t, t)
            return tensor_sum(mul(doubled, Tensor([np.inf])))

        with pytest.raises(NonFiniteError, match=r"operation 1 \(mul\)"):
            grad_check(f, [x])

    def test_non_finite_names_an_output_no_backward_keeps(self):
        # operation 0 overflows; operation 1, an add, reads neither operand, so no pull keeps operation 0's output
        x = Tensor([1e308, 1.0], requires_grad=True, dtype=np.float64)

        def f(t):
            return tensor_sum(F.add(F.add(t, t), t))

        with np.errstate(over="ignore"), \
                pytest.raises(NonFiniteError, match=r"^operation 0 \(add\) produced non-finite values$") as raised:
            grad_check(f, [x])
        assert (raised.value.op_index, raised.value.op_name) == (0, "add")

    def test_eps_validated(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError, match="eps"):
            grad_check(tensor_sum, [x], eps=0.5)


@pytest.mark.parametrize("case", ERROR_CASES)
def test_wrong_operand_shape_or_count_is_named(case):
    call, shapes, error, message = ERROR_CASES[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(*(Tensor(np.zeros(shape)) for shape in shapes))


def test_cases_cover_every_primitive():
    primitives = {name for name, fn in vars(F).items()
                  if inspect.isfunction(fn) and fn.__module__ == F.__name__ and not name.startswith("_")}
    assert primitives == {primitive(case) for case in CASES}


class TestRecordingRule:
    """An output needs a gradient exactly when an input does, and only then is its pull taped."""

    @pytest.mark.parametrize("case,grad_input", [(case, i) for case, c in CASES.items()
                                                 for i in [None, *range(len(c.inputs))]])
    def test_output_and_tape_follow_the_inputs(self, case, grad_input):
        inputs = [Tensor(a, requires_grad=i == grad_input) for i, a in enumerate(draw_inputs(case))]
        with Tape() as tape:
            out = CASES[case].call(*inputs)
        if grad_input is None:
            assert not out.requires_grad
            assert len(tape) == 0
        else:
            assert out.requires_grad
            assert [(name, slot) for name, slot, _pull in tape.entries] == [(CASES[case].op, out.slot)]


class TestBatchedLayout:
    @pytest.mark.parametrize("case", [case for case in CASES if is_temporal(case)])
    def test_unbatched_temporal_input_names_op_and_shape(self, case):
        unbatched = [Tensor(np.zeros((3, 4))), *map(Tensor, draw_inputs(case)[1:])]
        with pytest.raises(ShapeError, match=rf"^{primitive(case)} input must be \[B, C, L\], got shape \(3, 4\)$"):
            CASES[case].call(*unbatched)

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
