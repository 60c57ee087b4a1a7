"""Loss, optimizer, training loop, evaluation and checkpoint format."""

import hashlib
import math

import numpy as np
import pytest

from svdcnn import training
from svdcnn.architecture import ArchitectureSpec, build_model, count_params
from svdcnn.autograd import Tape, Tensor, backward
from svdcnn.data import Dataset, synth_dataset
from svdcnn.functional import cross_entropy
from svdcnn.training import (
    SGD,
    CheckpointLengthError,
    CheckpointMagicError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    MissingGradientError,
    TrainConfig,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)

from oracles import central_difference


def tiny_spec(**kw):
    defaults = dict(family="svdcnn", depth=9, seq_len=16, pooled_len=2, n_classes=2, fc_hidden=8)
    defaults.update(kw)
    return ArchitectureSpec(**defaults)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = cross_entropy(Tensor(np.zeros((3, 4))), np.array([0, 1, 2]))
        assert loss.data.item() == pytest.approx(math.log(4), abs=1e-6)

    def test_hand_case(self):
        loss = cross_entropy(Tensor([[1.0, 2.0]]), np.array([1]))
        assert loss.data.item() == pytest.approx(0.313262, abs=1e-5)

    def test_monotone_in_margin(self):
        losses = []
        for margin in (0.0, 1.0, 4.0, 16.0):
            logits = np.zeros((1, 4), dtype=np.float32)
            logits[0, 2] = margin
            losses.append(cross_entropy(Tensor(logits), np.array([2])).data.item())
        assert losses == sorted(losses, reverse=True)
        assert losses[-1] < 1e-6

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match=r"label 4"):
            cross_entropy(Tensor(np.zeros((1, 4))), np.array([4]))

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True, dtype=np.float64)
        labels = np.array([1, 4, 0])
        with Tape() as tape:
            loss = cross_entropy(logits, labels)
        backward(loss, tape)
        z = logits.data - logits.data.max(axis=1, keepdims=True)
        softmax = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        onehot = np.eye(5)[labels]
        np.testing.assert_allclose(logits.grad, (softmax - onehot) / 3, atol=1e-12)

        def value():
            return cross_entropy(logits, labels).data.item()

        flat = logits.data.reshape(-1)
        grad = logits.grad.reshape(-1)
        for j in range(flat.size):
            numeric = central_difference(value, flat, j, 1e-5)
            assert abs(grad[j] - numeric) <= 1e-4


class TestSgd:
    def test_hand_update(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([0.5], dtype=np.float32)
        opt = SGD([p], lr=0.01, momentum=0.9, weight_decay=0.001)
        opt.step()
        assert opt.velocity[0][0] == pytest.approx(0.501, rel=1e-6)
        assert p.data[0] == pytest.approx(0.99499, rel=1e-6)

    def test_zero_grad_zero_decay_is_noop(self):
        p = Tensor([2.0], requires_grad=True)
        p.grad = np.array([0.0], dtype=np.float32)
        opt = SGD([p], lr=0.1, momentum=0.9, weight_decay=0.0)
        opt.step()
        assert p.data[0] == 2.0

    def test_constant_gradient_compounds_velocity(self):
        p = Tensor([0.0], requires_grad=True)
        opt = SGD([p], lr=0.1, momentum=0.9, weight_decay=0.0)
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        first_move = -float(p.data[0])
        before = float(p.data[0])
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        second_move = before - float(p.data[0])
        assert second_move > first_move

    def test_no_momentum_no_decay_is_vanilla(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([0.25], dtype=np.float32)
        SGD([p], lr=0.1, momentum=0.0, weight_decay=0.0).step()
        assert p.data[0] == pytest.approx(1.0 - 0.1 * 0.25, rel=1e-7)

    def test_missing_gradient_rejected(self):
        p = Tensor([1.0], requires_grad=True)
        opt = SGD([p], lr=0.1, momentum=0.9, weight_decay=0.0)
        with pytest.raises(MissingGradientError):
            opt.step()

    def test_running_stats_untouched_by_optimizer(self):
        model = build_model(tiny_spec(), seed=0)
        before = [buf.copy() for _n, buf in model.named_buffers()]
        opt = SGD(model.parameters(), lr=0.1, momentum=0.9, weight_decay=0.001)
        for p in model.parameters():
            p.grad = np.ones_like(p.data)
        opt.step()
        for (_n, buf), saved in zip(model.named_buffers(), before):
            np.testing.assert_array_equal(buf, saved)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(weight_decay=-0.1)

    def test_batch_size_below_two_rejected(self):
        with pytest.raises(ValueError, match="batch size must be at least 2.*got 1"):
            TrainConfig(batch_size=1)
        assert TrainConfig(batch_size=2).batch_size == 2


class TestTrainLoop:
    def test_single_sample_training_set_rejected_up_front(self):
        pair = synth_dataset(2, 2, 16, seed=0)
        one = Dataset(pair.indices[:1], pair.labels[:1], n_classes=2, source="one row")
        model = build_model(tiny_spec(), seed=1)
        before = [p.data.copy() for p in model.parameters()]
        with pytest.raises(ValueError, match=r"training set has 1 sample.*batch size 4"):
            train(model, one, synth_dataset(4, 2, 16, seed=1), TrainConfig(batch_size=4, max_epochs=1))
        assert all(np.array_equal(p.data, b) for p, b in zip(model.parameters(), before))

    def test_zero_like_lr_keeps_parameters(self):
        # the smallest positive learning rate is an effective freeze at f32
        spec = tiny_spec()
        model = build_model(spec, seed=1)
        before = [p.data.copy() for p in model.parameters()]
        train_set = synth_dataset(8, 2, 16, seed=0)
        cfg = TrainConfig(lr=1e-30, momentum=0.0, weight_decay=0.0, batch_size=4, max_epochs=1, seed=0)
        train(model, train_set, train_set, cfg)
        for p, b in zip(model.parameters(), before):
            np.testing.assert_allclose(p.data, b, atol=1e-7)

    def test_history_is_deterministic_and_monotone_in_epoch(self):
        spec = tiny_spec()
        train_set = synth_dataset(16, 2, 16, seed=1)
        val_set = synth_dataset(8, 2, 16, seed=2)
        cfg = TrainConfig(batch_size=8, max_epochs=3, seed=5)
        h1 = train(build_model(spec, seed=5), train_set, val_set, cfg)
        h2 = train(build_model(spec, seed=5), train_set, val_set, cfg)
        assert [e.epoch for e in h1] == [1, 2, 3]
        assert h1 == h2

    def test_ends_holding_every_array_of_the_best_epoch(self, tmp_path):
        # Epochs replay identically, so a run stopped at the best epoch holds
        # exactly the parameters and running statistics the longer run restores.
        train_set, val_set = synth_dataset(16, 2, 16, seed=1), synth_dataset(8, 2, 16, seed=2)
        paths = []
        for epochs in (3, 2):
            model = build_model(tiny_spec(), seed=0)
            train(model, train_set, val_set, TrainConfig(batch_size=8, max_epochs=epochs, seed=0))
            assert model.checkpoint_epoch == 2
            paths.append(tmp_path / f"{epochs}.ckpt")
            save_checkpoint(model, paths[-1], epoch=model.checkpoint_epoch)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_one_sample_final_batch_joins_the_batch_before(self):
        # 5 samples at batch size 4 leave one sample, too few for batch statistics
        train_set = synth_dataset(5, 2, 16, seed=8)
        history = train(build_model(tiny_spec(), seed=1), train_set, train_set, TrainConfig(batch_size=4, max_epochs=2, seed=0))
        assert [e.epoch for e in history] == [1, 2]
        assert all(math.isfinite(e.train_loss) for e in history)

    def test_class_count_mismatch_rejected(self):
        model = build_model(tiny_spec(n_classes=2), seed=0)
        four_class = synth_dataset(8, 4, 16, seed=0)
        with pytest.raises(ValueError, match="classes"):
            train(model, four_class, four_class, TrainConfig(max_epochs=1))


class TestGradientOwnership:
    @pytest.mark.parametrize("family", ["svdcnn", "vdcnn"])
    def test_train_step_leaves_one_private_gradient_per_parameter(self, family):
        model = build_model(tiny_spec(family=family), seed=3)
        params = model.parameters()
        rng = np.random.default_rng(4)
        for p in params:  # nonzero closing scales and logit weights, so every parameter gets a gradient
            p.data[...] += rng.normal(0.0, 0.05, p.shape).astype(p.dtype)
        idx = np.random.default_rng(5).integers(0, 69, size=(4, 16))
        with Tape() as tape:
            loss = cross_entropy(model.forward(idx), np.array([0, 1, 1, 0]))
        recorded = [out for _name, out, _pull in tape.entries]
        backward(loss, tape)
        assert all(out.grad is None for out in recorded)
        assert all(p.grad is not None and p.grad.shape == p.shape and np.abs(p.grad).max() > 0 for p in params)
        for i, p in enumerate(params):
            for q in params[i + 1:]:
                assert not np.may_share_memory(p.grad, q.grad)
        opt = SGD(params, lr=0.1, momentum=0.0, weight_decay=0.0)
        grads = [p.grad.copy() for p in params]
        opt.step()
        assert all(np.array_equal(p.grad, g) for p, g in zip(params, grads))


class TestEvaluate:
    def test_memorizes_single_repeated_sample(self):
        spec = tiny_spec()
        sample_set = synth_dataset(4, 2, 16, seed=3)
        model = build_model(spec, seed=2)
        cfg = TrainConfig(batch_size=4, max_epochs=10, seed=2)
        train(model, sample_set, sample_set, cfg)
        assert evaluate(model, sample_set) == 1.0

    def test_untrained_net_is_chance_level_on_random_labels(self):
        rng = np.random.default_rng(4)
        ds = synth_dataset(400, 4, 16, seed=6)
        shuffled = [int(rng.integers(0, 4)) for _row in ds.indices]
        ds = Dataset(ds.indices, shuffled, n_classes=4, source="shuffled")
        model = build_model(tiny_spec(n_classes=4), seed=3)
        acc = evaluate(model, ds)
        assert 0.10 <= acc <= 0.40

    def test_accuracy_bounds(self):
        ds = synth_dataset(12, 2, 16, seed=7)
        model = build_model(tiny_spec(), seed=0)
        assert 0.0 <= evaluate(model, ds) <= 1.0


# SHA-256 of the ordered (name, category, shape) rows of every parameter and
# buffer, and of the checkpoint bytes, of Model(spec, seed=0). They pin the
# parameter names, their order, the checkpoint layout and the seeded
# initial draws.
PINNED_DIGESTS = [
    ("vdcnn", 9, "12fba3474c17bbf6ed7ca1ad2e576385953fca4d54322afc5d659caf9c8fc892",
     "ed7fcf04d3f3ef02561c509c6b44de9933dce121cdb2136c50c0a5fb461dde10"),
    ("vdcnn", 29, "65e3350ed9533845254a44bfe07e4904fcc7da63dcf5cb62f2cd8b88e5db9de8",
     "00dfa3d86b925125896580d31d0cfcaa40a758ff3e26031245630eda15f21a42"),
    ("svdcnn", 9, "c3679e41d80b6b8f67fe0abdaa4bd523c0c5a5e5c0a18109cdf71187e82776df",
     "83ed8ae8d632b6473c10076e40b503913f0bd654d1543c6b7f238f577c18d256"),
    ("svdcnn", 29, "56c72a15a3679417c517d02c7a644d28691a9ea8755e3224cea5bcc9f99cf08a",
     "0f80f3648feed9797cd253db39252831f6c9941ab04d8e724a70db7ccaf2bbba"),
]


class TestCheckpoint:
    @pytest.mark.parametrize("family,depth,layout_sha,checkpoint_sha", PINNED_DIGESTS)
    def test_names_layout_and_seeded_init_are_pinned(self, tmp_path, family, depth, layout_sha, checkpoint_sha):
        model = build_model(ArchitectureSpec(family, depth=depth), seed=0)
        rows = [f"{n} {c} {tuple(t.shape)}" for n, t, c in model.named_params()]
        rows += [f"{n} buffer {tuple(b.shape)}" for n, b in model.named_buffers()]
        assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == layout_sha
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == checkpoint_sha

    def test_roundtrip_is_bitwise_identical(self, tmp_path):
        spec = tiny_spec()
        model = build_model(spec, seed=8).eval()
        rng = np.random.default_rng(9)
        inputs = rng.integers(0, spec.vocab_size, size=(10, spec.seq_len))
        before = model.forward(inputs).data
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, epoch=3)
        loaded = load_checkpoint(path)
        assert loaded.checkpoint_epoch == 3
        after = loaded.forward(inputs).data
        assert before.tobytes() == after.tobytes()

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failed_write_leaves_the_previous_checkpoint_in_place(self, tmp_path, monkeypatch, error):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(tiny_spec(), seed=0), path)
        before = path.read_bytes()
        arrays = training._model_arrays

        def fail_partway(model):
            yield from arrays(model)[:3]
            raise error("write failed")

        with monkeypatch.context() as patch:
            patch.setattr(training, "_model_arrays", fail_partway)
            with pytest.raises(error):
                save_checkpoint(build_model(tiny_spec(), seed=1), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        load_checkpoint(path)

    def test_load_draws_no_random_init(self, tmp_path, monkeypatch):
        model = build_model(tiny_spec(), seed=8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)

        def no_draws(*_args, **_kwargs):
            raise AssertionError("load_checkpoint drew a random init")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        loaded = load_checkpoint(path)
        for (name, p, _c), (_n, q, _d) in zip(model.named_params(), loaded.named_params()):
            assert p.data.tobytes() == q.data.tobytes(), name

    def test_unseeded_model_starts_at_zero_weights(self):
        model = build_model(tiny_spec(), seed=None)
        for name, t, category in model.named_params():
            if category != "batchnorm":
                assert not t.data.any(), name

    def test_corrupted_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(tiny_spec(), seed=0), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointMagicError):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(tiny_spec(), seed=0), path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(tiny_spec(), seed=0), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(tiny_spec(), seed=0), path)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(CheckpointLengthError):
            load_checkpoint(path)

    def test_file_size_tracks_storage_accounting(self, tmp_path):
        spec = ArchitectureSpec("svdcnn", depth=9, seq_len=64)
        model = build_model(spec, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        learned_bytes = count_params(model).total * 4
        buffer_bytes = sum(b.size for _n, b in model.named_buffers()) * 4
        actual = path.stat().st_size
        assert abs(actual - learned_bytes) / learned_bytes < 0.05
        n_arrays = len(model.named_params()) + len(model.named_buffers())
        header = 4 + 2 + 9 * 4
        assert actual == header + 8 * n_arrays + learned_bytes + buffer_bytes
