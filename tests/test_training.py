"""Loss, optimizer, training loop, evaluation and checkpoint format."""

import hashlib
import math
import gc
import mmap
import os
import re
import struct
import sys
import tracemalloc
from dataclasses import astuple, fields, replace

import numpy as np
import pytest

from svdcnn import training
from svdcnn.architecture import FAMILIES, ArchitectureSpec, Model, count_params
from svdcnn.autograd import Tape, Tensor, backward
from svdcnn.data import Dataset, synth_dataset
from svdcnn.functional import cross_entropy
from svdcnn.training import (
    SGD,
    CheckpointError,
    CheckpointLengthError,
    CheckpointMagicError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    MissingGradientError,
    TrainConfig,
    TrainingDivergedError,
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

    def test_a_failed_step_updates_nothing_and_names_the_parameter(self):
        params = [Tensor([1.0], requires_grad=True), Tensor(np.ones((2, 3)), requires_grad=True),
                  Tensor([3.0], requires_grad=True)]
        opt = SGD(params, lr=0.5, momentum=0.9, weight_decay=0.0)
        params[0].grad = np.array([1.0], dtype=np.float32)
        params[2].grad = np.array([1.0], dtype=np.float32)
        with pytest.raises(MissingGradientError, match=r"^parameter 1 \(shape \(2, 3\)\) has no gradient; "
                                                       r"run backward before step$"):
            opt.step()
        assert [p.data.tolist() for p in params] == [[1.0], np.ones((2, 3)).tolist(), [3.0]]
        assert all(not v.any() for v in opt.velocity)

    def test_running_stats_untouched_by_optimizer(self):
        model = Model(tiny_spec(), seed=0)
        before = [buf.copy() for _n, buf in model.named_buffers()]
        opt = SGD(model.parameters(), lr=0.1, momentum=0.9, weight_decay=0.001)
        for p in model.parameters():
            p.grad = np.ones_like(p.data)
        opt.step()
        for (_n, buf), saved in zip(model.named_buffers(), before):
            np.testing.assert_array_equal(buf, saved)

    @pytest.mark.parametrize("holds_index_zero", [True, False], ids=["padded-batch", "full-batch"])
    def test_embedding_row_zero_is_learned_only_from_the_rows_that_index_it(self, holds_index_zero):
        model = Model(tiny_spec(), seed=0)
        idx = np.random.default_rng(0).integers(1, model.spec.vocab_size, size=(4, model.spec.seq_len))
        if holds_index_zero:
            idx[1, -3:] = 0  # right padding, or characters outside the dictionary
        opt = SGD(model.parameters(), lr=0.1, momentum=0.9, weight_decay=0.001)
        for _ in range(2):  # the output layer starts at zero, so the first step sends no gradient below it
            opt.zero_grad()
            with Tape() as tape:
                loss = cross_entropy(model.forward(idx), np.array([0, 1, 0, 1]))
            backward(loss, tape)
            opt.step()
        row = model.embedding.table.data[0]
        assert row.any() == holds_index_zero  # else exactly 0: weight decay on a zero row adds 0

    @pytest.mark.parametrize("field,value,message", [
        ("lr", 0.0, "learning rate must be positive and finite, got 0.0"),
        ("lr", math.nan, "learning rate must be positive and finite, got nan"),
        ("lr", math.inf, "learning rate must be positive and finite, got inf"),
        ("lr", -math.inf, "learning rate must be positive and finite, got -inf"),
        ("momentum", 1.0, r"momentum must be in \[0, 1\), got 1.0"),
        ("weight_decay", -0.1, "weight decay must be non-negative and finite, got -0.1"),
        ("weight_decay", math.nan, "weight decay must be non-negative and finite, got nan"),
        ("weight_decay", math.inf, "weight decay must be non-negative and finite, got inf"),
        ("max_epochs", 0, "epoch budget must be positive, got 0"),
        ("eval_every", 0, "eval_every must be positive, got 0"),
        ("seed", -5, "seed must be non-negative, got -5"),
        ("batch_size", 64.5, "batch_size must be an integer, got 64.5"),
        ("max_epochs", 2.5, "max_epochs must be an integer, got 2.5"),
        ("seed", True, "seed must be an integer, got True"),
        ("eval_every", "1", "eval_every must be an integer, got '1'"),
    ])
    def test_config_validation(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainConfig(**{field: value})

    def test_batch_size_below_two_rejected(self):
        with pytest.raises(ValueError, match="batch size must be at least 2.*got 1"):
            TrainConfig(batch_size=1)
        assert TrainConfig(batch_size=2).batch_size == 2

    def test_integer_fields_accept_numpy_integers(self):
        assert TrainConfig(batch_size=np.int64(8), max_epochs=np.int32(3)) == TrainConfig(batch_size=8, max_epochs=3)


class TestTrainLoop:
    def test_single_sample_training_set_rejected_up_front(self):
        pair = synth_dataset(2, 2, 16, seed=0)
        one = Dataset(pair.indices[:1], pair.labels[:1], n_classes=2)
        model = Model(tiny_spec(), seed=1)
        before = [p.data.copy() for p in model.parameters()]
        with pytest.raises(ValueError, match=r"training set has 1 sample.*batch size 4"):
            train(model, one, synth_dataset(4, 2, 16, seed=1), TrainConfig(batch_size=4, max_epochs=1))
        assert all(np.array_equal(p.data, b) for p, b in zip(model.parameters(), before))

    def test_non_finite_loss_names_its_epoch_and_batch(self):
        train_set = synth_dataset(8, 2, 16, seed=0)
        cfg = TrainConfig(lr=1e30, batch_size=4, max_epochs=2, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):  # the first step's weights overflow the next forward
            with pytest.raises(TrainingDivergedError, match=r"^non-finite loss \S+ at epoch 1, batch 1$") as exc:
                train(Model(tiny_spec(), seed=0), train_set, train_set, cfg)
        assert (exc.value.epoch, exc.value.batch_index) == (1, 1) and not math.isfinite(exc.value.loss_value)

    def test_zero_like_lr_keeps_parameters(self):
        # the smallest positive learning rate is an effective freeze at f32
        spec = tiny_spec()
        model = Model(spec, seed=1)
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
        h1 = train(Model(spec, seed=5), train_set, val_set, cfg)
        h2 = train(Model(spec, seed=5), train_set, val_set, cfg)
        assert [e.epoch for e in h1] == [1, 2, 3]
        assert h1 == h2

    def test_ends_holding_every_array_of_the_best_epoch(self, tmp_path):
        # Epochs replay identically, so a run stopped at the best epoch holds
        # exactly the parameters and running statistics the longer run restores.
        train_set, val_set = synth_dataset(16, 2, 16, seed=1), synth_dataset(8, 2, 16, seed=2)
        paths = []
        for epochs in (3, 2):
            model = Model(tiny_spec(), seed=0)
            train(model, train_set, val_set, TrainConfig(batch_size=8, max_epochs=epochs, seed=0))
            assert model.checkpoint_epoch == 2
            paths.append(tmp_path / f"{epochs}.ckpt")
            save_checkpoint(model, paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_tapeless_logits_are_those_of_the_restored_weights(self):
        # epoch 3's evaluation folds its own weights; the model ends holding epoch 2's, and its tape-less
        # forward must fold those, as the taped forward (which never folds) runs them
        train_set, val_set = synth_dataset(16, 2, 16, seed=1), synth_dataset(8, 2, 16, seed=2)
        model = Model(tiny_spec(), seed=0)
        train(model, train_set, val_set, TrainConfig(batch_size=8, max_epochs=3, seed=0))
        assert model.checkpoint_epoch == 2
        tapeless = model.forward(val_set.indices).data
        with Tape():
            taped = model.forward(val_set.indices).data
        assert np.abs(taped).max() > 0.01
        np.testing.assert_allclose(tapeless, taped, rtol=0, atol=1e-5 * max(1.0, np.abs(taped).max()))

    def test_one_sample_final_batch_joins_the_batch_before(self):
        # 5 samples at batch size 4 leave one sample, too few for batch statistics
        train_set = synth_dataset(5, 2, 16, seed=8)
        history = train(Model(tiny_spec(), seed=1), train_set, train_set, TrainConfig(batch_size=4, max_epochs=2, seed=0))
        assert [e.epoch for e in history] == [1, 2]
        assert all(math.isfinite(e.train_loss) for e in history)

    def test_class_count_mismatch_rejected(self):
        model = Model(tiny_spec(n_classes=2), seed=0)
        four_class = synth_dataset(8, 4, 16, seed=0)
        with pytest.raises(ValueError, match="classes"):
            train(model, four_class, four_class, TrainConfig(max_epochs=1))


class TestGradientOwnership:
    @pytest.mark.parametrize("family", ["svdcnn", "vdcnn"])
    def test_train_step_leaves_one_private_gradient_per_parameter(self, family):
        model = Model(tiny_spec(family=family), seed=3)
        params = model.parameters()
        rng = np.random.default_rng(4)
        for p in params:  # nonzero closing scales and logit weights, so every parameter gets a gradient
            p.data[...] += rng.normal(0.0, 0.05, p.shape).astype(p.dtype)
        idx = np.random.default_rng(5).integers(0, 69, size=(4, 16))
        with Tape() as tape:
            loss = cross_entropy(model.forward(idx), np.array([0, 1, 1, 0]))
        recorded = [slot for _name, slot, _pull in tape.entries]
        backward(loss, tape)
        assert all(slot.grad is None for slot in recorded)
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
        model = Model(spec, seed=2)
        cfg = TrainConfig(batch_size=4, max_epochs=10, seed=2)
        train(model, sample_set, sample_set, cfg)
        assert evaluate(model, sample_set) == 1.0

    def test_untrained_net_is_chance_level_on_random_labels(self):
        rng = np.random.default_rng(4)
        ds = synth_dataset(400, 4, 16, seed=6)
        shuffled = [int(rng.integers(0, 4)) for _row in ds.indices]
        ds = Dataset(ds.indices, shuffled, n_classes=4)
        model = Model(tiny_spec(n_classes=4), seed=3)
        acc = evaluate(model, ds)
        assert 0.10 <= acc <= 0.40

    def test_accuracy_bounds(self):
        ds = synth_dataset(12, 2, 16, seed=7)
        model = Model(tiny_spec(), seed=0)
        assert 0.0 <= evaluate(model, ds) <= 1.0

    def test_dataset_of_another_class_count_rejected(self):
        model = Model(ArchitectureSpec("svdcnn", seq_len=64), seed=None)
        with pytest.raises(ValueError, match=r"^dataset has 6 classes but the model has 4$"):
            evaluate(model, synth_dataset(12, 6, 64, seed=0))


# SHA-256 of the ordered (name, category, shape) rows of every parameter and
# buffer of Model(spec, seed=0), of its version-1 file (write_v1_checkpoint)
# and of its checkpoint (version 2). They pin the parameter names, their
# order, both layouts and the seeded initial draws.
PINNED_DIGESTS = [
    ("vdcnn", 9, "12fba3474c17bbf6ed7ca1ad2e576385953fca4d54322afc5d659caf9c8fc892",
     "ed7fcf04d3f3ef02561c509c6b44de9933dce121cdb2136c50c0a5fb461dde10",
     "1b2d632295105606371be126a76eaeaf224a550af50c0e0f30bdf9f9fa56e38c"),
    ("vdcnn", 29, "65e3350ed9533845254a44bfe07e4904fcc7da63dcf5cb62f2cd8b88e5db9de8",
     "00dfa3d86b925125896580d31d0cfcaa40a758ff3e26031245630eda15f21a42",
     "a06c254ae555f0b2f8f112f02deb16c63d4f5ce92ed87901d381f3d9835ddf68"),
    ("svdcnn", 9, "c3679e41d80b6b8f67fe0abdaa4bd523c0c5a5e5c0a18109cdf71187e82776df",
     "83ed8ae8d632b6473c10076e40b503913f0bd654d1543c6b7f238f577c18d256",
     "beec39a50a8876f8f047ec45fb1ce9edffa611e13f0f1571eb5ba59b41d2a63a"),
    ("svdcnn", 29, "56c72a15a3679417c517d02c7a644d28691a9ea8755e3224cea5bcc9f99cf08a",
     "0f80f3648feed9797cd253db39252831f6c9941ab04d8e724a70db7ccaf2bbba",
     "7d06657d1368f20972a3943b7b4847fb443547f170e281683d039c9146021cc1"),
]

HEADER_END = 6 + 4 * (len(fields(ArchitectureSpec)) + 1)  # magic, version, spec fields and epoch
ALIGNMENT = 64  # a version-2 file starts each array's values at a multiple of this file offset


def write_v1_checkpoint(model, path):
    """The version-1 layout, written apart from ``save_checkpoint``: the v2 header with version 1, and
    each array as its u64 length followed at once by its little-endian float32 values."""
    spec = model.spec
    with open(path, "wb") as fh:
        fh.write(struct.pack(f"<4sH{len(fields(ArchitectureSpec)) + 1}I", b"SVDC", 1,
                             FAMILIES.index(spec.family), *astuple(spec)[1:], model.checkpoint_epoch))
        for _name, arr in training._model_arrays(model):
            fh.write(struct.pack("<Q", arr.size))
            fh.write(arr.astype("<f4").tobytes())


def value_offsets(model) -> dict[str, tuple[int, int]]:
    """Each array's (length field, values) byte offsets in a version-2 file, derived from the padded layout."""
    out, offset = {}, HEADER_END
    for name, arr in training._model_arrays(model):
        values = offset + 8 + (-(offset + 8) % ALIGNMENT)
        out[name] = (offset, values)
        offset = values + arr.nbytes
    return out


def backing(arr):
    """The object whose memory ``arr`` views: a ``mmap.mmap`` for a mapped array, else the ndarray owning it."""
    while isinstance(arr, np.ndarray) and arr.base is not None:
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr  # np.frombuffer's base is a memoryview of the map


class TestCheckpoint:
    @pytest.mark.parametrize("family,depth,layout_sha,v1_sha,v2_sha", PINNED_DIGESTS,
                             ids=[f"{family}-{depth}" for family, depth, *_shas in PINNED_DIGESTS])
    def test_names_layout_and_seeded_init_are_pinned(self, tmp_path, family, depth, layout_sha, v1_sha, v2_sha):
        model = Model(ArchitectureSpec(family, depth=depth), seed=0)
        rows = [f"{n} {c} {tuple(t.shape)}" for n, t, c in model.named_params()]
        rows += [f"{n} buffer {tuple(b.shape)}" for n, b in model.named_buffers()]
        assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == layout_sha
        write_v1_checkpoint(model, tmp_path / "v1.ckpt")
        assert hashlib.sha256((tmp_path / "v1.ckpt").read_bytes()).hexdigest() == v1_sha
        save_checkpoint(model, tmp_path / "v2.ckpt")
        assert hashlib.sha256((tmp_path / "v2.ckpt").read_bytes()).hexdigest() == v2_sha

    def test_roundtrip_is_bitwise_identical(self, tmp_path):
        spec = tiny_spec()
        model = Model(spec, seed=8).eval()
        rng = np.random.default_rng(9)
        inputs = rng.integers(0, spec.vocab_size, size=(10, spec.seq_len))
        before = model.forward(inputs).data
        path = tmp_path / "model.ckpt"
        model.checkpoint_epoch = 3
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.checkpoint_epoch == 3
        after = loaded.forward(inputs).data
        assert before.tobytes() == after.tobytes()

    def test_header_holds_the_spec_fields_in_declaration_order_then_the_epoch(self, tmp_path):
        spec = ArchitectureSpec("svdcnn", depth=17, seq_len=64, embed_dim=3, vocab_size=5, n_classes=6,
                                fc_hidden=7, pooled_len=2)
        path = tmp_path / "model.ckpt"
        model = Model(spec, seed=None)
        model.checkpoint_epoch = 11
        save_checkpoint(model, path)
        assert struct.unpack_from("<4sH9I", path.read_bytes()) == (b"SVDC", 2, 1, 17, 64, 3, 5, 6, 7, 2, 11)
        loaded = load_checkpoint(path)
        assert (loaded.spec, loaded.checkpoint_epoch) == (spec, 11)

    def test_header_is_magic_version_then_one_u32_per_spec_field_and_the_epoch(self, tmp_path):
        spec = ArchitectureSpec("svdcnn", depth=9, seq_len=16, pooled_len=2, n_classes=2, fc_hidden=8)
        path = tmp_path / "model.ckpt"
        model = Model(spec, seed=0)
        model.checkpoint_epoch = 4
        save_checkpoint(model, path)
        blob = path.read_bytes()
        n = len(fields(ArchitectureSpec)) + 1
        assert blob[:4] == b"SVDC"
        assert struct.unpack_from("<H", blob, 4) == (2,)
        assert struct.unpack_from(f"<{n}I", blob, 6) == (1, *astuple(spec)[1:], 4)  # svdcnn is family 1
        assert struct.unpack_from("<Q", blob, 6 + 4 * n) == (spec.vocab_size * spec.embed_dim,)

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failed_write_leaves_the_previous_checkpoint_in_place(self, tmp_path, monkeypatch, error):
        path = tmp_path / "model.ckpt"
        save_checkpoint(Model(tiny_spec(), seed=0), path)
        before = path.read_bytes()
        arrays = training._model_arrays

        def fail_partway(model):
            yield from arrays(model)[:3]
            raise error("write failed")

        with monkeypatch.context() as patch:
            patch.setattr(training, "_model_arrays", fail_partway)
            with pytest.raises(error):
                save_checkpoint(Model(tiny_spec(), seed=1), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        load_checkpoint(path)

    @pytest.mark.parametrize("field,value", [("epoch", -1), ("epoch", 2**32), ("fc_hidden", 2**32)])
    def test_header_value_outside_u32_is_named_before_a_file_is_opened(self, tmp_path, field, value):
        model = Model(tiny_spec(), seed=None)
        if field == "epoch":
            model.checkpoint_epoch = value
        else:
            model.spec = replace(model.spec, **{field: value})  # the header reads only the spec
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match=rf"^checkpoint {field} must fit an unsigned 32-bit header field, got {value}$"):
            save_checkpoint(model, path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("epoch", [2.7, True, "3"])
    def test_non_integer_epoch_is_named_before_a_file_is_opened(self, tmp_path, epoch):
        model = Model(tiny_spec(), seed=None)
        model.checkpoint_epoch = epoch
        with pytest.raises(ValueError, match=f"^{re.escape(f'checkpoint epoch must be an integer, got {epoch!r}')}$"):
            save_checkpoint(model, tmp_path / "model.ckpt")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("depth", [9, 17, 29, 49])
    def test_save_load_save_gives_the_same_bytes(self, tmp_path, family, depth):
        model = Model(tiny_spec(family=family, depth=depth), seed=depth)
        model.checkpoint_epoch = 7
        save_checkpoint(model, tmp_path / "first.ckpt")
        loaded = load_checkpoint(tmp_path / "first.ckpt")
        assert loaded.checkpoint_epoch == 7
        save_checkpoint(loaded, tmp_path / "second.ckpt")
        assert (tmp_path / "first.ckpt").read_bytes() == (tmp_path / "second.ckpt").read_bytes()

    def test_load_draws_no_random_init(self, tmp_path, monkeypatch):
        model = Model(tiny_spec(), seed=8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)

        def no_draws(*_args, **_kwargs):
            raise AssertionError("load_checkpoint drew a random init")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        loaded = load_checkpoint(path)
        for (name, p, _c), (_n, q, _d) in zip(model.named_params(), loaded.named_params()):
            assert p.data.tobytes() == q.data.tobytes(), name

    def test_unseeded_model_starts_at_zero_weights(self):
        model = Model(tiny_spec(), seed=None)
        for name, t, category in model.named_params():
            if category != "batchnorm":
                assert not t.data.any(), name

    def test_corrupted_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(Model(tiny_spec(), seed=0), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointMagicError):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(Model(tiny_spec(), seed=0), path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(Model(tiny_spec(), seed=0), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    @pytest.mark.parametrize("where", ["header", "first array", "length of first buffer", "padding of first buffer",
                                       "last parameter", "last array"])
    def test_truncation_names_where_the_file_ends(self, tmp_path, where):
        model = Model(tiny_spec(), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        offsets = value_offsets(model)
        first_buffer, last_param, last = model.named_buffers()[0][0], model.named_params()[-1][0], list(offsets)[-1]
        length_at, values_at = offsets[first_buffer]
        assert values_at - (length_at + 8) >= 2  # the cut below falls strictly inside the padding
        cut, expected = {
            "header": (HEADER_END - 3, "truncated header"),
            # fewer bytes than the parameters alone need: the size check before allocation reports it
            "first array": (HEADER_END + 12, None),
            "length of first buffer": (length_at, f"truncated before length of {first_buffer}"),
            "padding of first buffer": (length_at + 9, f"truncated inside {first_buffer}"),
            "last parameter": (offsets[last_param][1] + 4, f"truncated inside {last_param}"),
            "last array": (len(blob) - 10, f"truncated inside {last}"),
        }[where]
        if expected is None:
            needed = HEADER_END + 4 * count_params(model).total
            expected = f"its header needs at least {needed:,} bytes, the file has {cut:,}"
        path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointTruncatedError, match=rf"model\.ckpt: {re.escape(expected)}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("where", ["version", "family", "depth", "first length"])
    def test_bad_header_or_length_names_what_is_wrong(self, tmp_path, where):
        model = Model(tiny_spec(), seed=None)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        first, arr = training._model_arrays(model)[0]
        u32 = lambda v: struct.pack("<I", v)
        bad, error, message = {
            "version": (blob[:5], CheckpointTruncatedError, "truncated before version field"),
            "family": (blob[:6] + u32(7) + blob[10:], CheckpointError, "unknown family code 7"),
            "depth": (blob[:10] + u32(10) + blob[14:], CheckpointError,
                      "invalid architecture fields: unsupported depth 10; valid depths are [9, 17, 29, 49]"),
            "first length": (blob[:HEADER_END] + struct.pack("<Q", arr.size + 1) + blob[HEADER_END + 8:],
                             CheckpointLengthError, f"{first} has {arr.size + 1} values, expected {arr.size}"),
        }[where]
        path.write_bytes(bad)
        with pytest.raises(error, match=rf"model\.ckpt: {re.escape(message)}$") as exc:
            load_checkpoint(path)
        assert exc.type is error

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(Model(tiny_spec(), seed=0), path)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(CheckpointLengthError):
            load_checkpoint(path)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open descriptors in /proc/self/fd")
    @pytest.mark.parametrize("error", [CheckpointLengthError, CheckpointTruncatedError])
    def test_failed_load_closes_its_map_before_raising(self, tmp_path, monkeypatch, error):
        path = tmp_path / "model.ckpt"
        save_checkpoint(Model(tiny_spec(), seed=0), path)
        blob = path.read_bytes()
        path.write_bytes(blob + b"\x00\x00\x00\x00" if error is CheckpointLengthError else blob[:-10])
        maps = []
        monkeypatch.setattr(mmap, "mmap", lambda *args, **kwargs: maps.append(args))
        gc.collect()  # an earlier test's map, kept in a traceback cycle, must not close during the count
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(error):
            load_checkpoint(path)
        assert maps == []  # every check reads the open file, so a failed load makes no map
        assert len(os.listdir("/proc/self/fd")) == before

    # vdcnn-9 with a 256-unit head: 11.5 MB of arrays, the largest 4.2 MB; tracemalloc counts numpy's buffers to the byte
    MEMORY_SPEC = ArchitectureSpec("vdcnn", depth=9, fc_hidden=256)

    def test_load_holds_no_copy_of_the_file(self, tmp_path):
        model = Model(self.MEMORY_SPEC, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        array_bytes = sum(arr.nbytes for _n, arr in training._model_arrays(model))
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * array_bytes
        for (name, arr), (_n, back) in zip(training._model_arrays(model), training._model_arrays(loaded)):
            assert arr.tobytes() == back.tobytes(), name

    def test_load_leaves_no_copy_of_the_arrays_allocated(self, tmp_path):
        model = Model(self.MEMORY_SPEC, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        array_bytes = sum(arr.nbytes for _n, arr in training._model_arrays(model))
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert current <= 0.05 * array_bytes
        assert loaded.spec == self.MEMORY_SPEC

    def test_loaded_arrays_are_aligned_views_of_one_map(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(Model(tiny_spec(family="vdcnn"), seed=0), path)
        arrays = training._model_arrays(load_checkpoint(path))
        for name, arr in arrays:
            assert arr.ctypes.data % ALIGNMENT == 0, name
            assert isinstance(backing(arr), mmap.mmap), name
            assert not arr.flags.owndata and arr.flags.writeable, name
        assert len({id(backing(arr)) for _n, arr in arrays}) == 1

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open descriptors in /proc/self/fd")
    def test_live_loads_hold_a_descriptor_only_before_python_3_13_and_drop_it_with_the_model(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(Model(tiny_spec(), seed=0), path)
        gc.collect()  # an earlier failed load's map, kept in a traceback cycle, must not close during the count
        before = len(os.listdir("/proc/self/fd"))
        models = [load_checkpoint(path) for _ in range(3)]
        held = 3 if sys.version_info < (3, 13) else 0  # each map keeps a duplicate unless it passes trackfd=False
        assert len(os.listdir("/proc/self/fd")) == before + held
        del models
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize("family", ["svdcnn", "vdcnn"])
    def test_version_1_file_loads_to_the_bytes_and_logits_of_version_2(self, tmp_path, family):
        spec = tiny_spec(family=family)
        model = Model(spec, seed=8)
        rng = np.random.default_rng(9)
        for _name, buf in model.named_buffers():  # running statistics away from their initial 0 and 1
            buf[...] = rng.uniform(0.5, 1.5, buf.shape)
        model.checkpoint_epoch = 3
        write_v1_checkpoint(model, tmp_path / "v1.ckpt")
        save_checkpoint(model, tmp_path / "v2.ckpt")
        v1, v2 = load_checkpoint(tmp_path / "v1.ckpt"), load_checkpoint(tmp_path / "v2.ckpt")
        assert (v1.spec, v1.checkpoint_epoch) == (v2.spec, v2.checkpoint_epoch) == (spec, 3)
        for (name, a), (_n, b), (_m, c) in zip(*(training._model_arrays(m) for m in (model, v1, v2))):
            assert a.tobytes() == b.tobytes() == c.tobytes(), name
            assert isinstance(backing(b), np.ndarray) and b.flags.aligned, name  # unaligned in the file: copied
        inputs = rng.integers(0, spec.vocab_size, size=(6, spec.seq_len))
        assert v1.forward(inputs).data.tobytes() == v2.forward(inputs).data.tobytes()

    def test_writes_into_a_loaded_model_stay_out_of_the_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        model = Model(tiny_spec(), seed=0)
        save_checkpoint(model, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        loaded = load_checkpoint(path)
        for _name, arr in training._model_arrays(loaded):
            arr += 1.0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        for (name, a), (_n, b) in zip(training._model_arrays(model), training._model_arrays(load_checkpoint(path))):
            assert a.tobytes() == b.tobytes(), name

    def test_saving_onto_the_loaded_path_leaves_the_live_model_unchanged(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "model.ckpt"
        save_checkpoint(Model(spec, seed=8), path)
        live = load_checkpoint(path)
        inputs = np.random.default_rng(9).integers(0, spec.vocab_size, size=(6, spec.seq_len))
        arrays = [arr.copy() for _n, arr in training._model_arrays(live)]
        logits = live.forward(inputs).data.copy()
        replacement = Model(spec, seed=9)
        save_checkpoint(replacement, path)
        for (name, arr), before in zip(training._model_arrays(live), arrays):
            assert arr.tobytes() == before.tobytes(), name
        live.eval()  # the next forward folds the batch norms again, from the arrays as they are now
        assert live.forward(inputs).data.tobytes() == logits.tobytes()
        for (name, a), (_n, b) in zip(training._model_arrays(replacement), training._model_arrays(load_checkpoint(path))):
            assert a.tobytes() == b.tobytes(), name

    def test_save_copies_no_array(self, tmp_path):
        model = Model(self.MEMORY_SPEC, seed=0)
        largest = max(arr.nbytes for _n, arr in training._model_arrays(model))
        tracemalloc.start()
        try:
            save_checkpoint(model, tmp_path / "model.ckpt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * largest

    @pytest.mark.parametrize("field", [6, 4], ids=["fc_hidden", "vocab_size"])
    def test_oversized_header_field_rejected_before_the_model_is_built(self, tmp_path, field):
        # 2**31 hidden units or characters would need terabytes; the file holds kilobytes
        path = tmp_path / "model.ckpt"
        save_checkpoint(Model(tiny_spec(family="vdcnn"), seed=0), path)
        blob = bytearray(path.read_bytes())
        blob[6 + 4 * field:10 + 4 * field] = (2**31).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointTruncatedError, match=rf"model\.ckpt: its header needs at least [\d,]+ bytes, the file has {len(blob):,}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("family", ["vdcnn", "svdcnn"])
    @pytest.mark.parametrize("depth", [9, 17, 29, 49])
    def test_file_size_tracks_storage_accounting(self, tmp_path, family, depth):
        # running statistics, lengths and header add well under 1% to the 4 bytes per parameter
        model = Model(ArchitectureSpec(family, depth=depth), seed=None)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        learned_bytes = count_params(model).total * 4
        buffer_bytes = sum(b.size for _n, b in model.named_buffers()) * 4
        actual = path.stat().st_size
        assert 0 < actual - learned_bytes < 0.01 * learned_bytes
        n_arrays = len(model.named_params()) + len(model.named_buffers())
        header = 4 + 2 + 9 * 4
        # the zeros after each length field that start the array's values at a 64-byte offset
        padding = sum(values - (length + 8) for length, values in value_offsets(model).values())
        assert actual == header + 8 * n_arrays + padding + learned_bytes + buffer_bytes
