"""End-to-end command behaviour through the argument-parsing entry point."""

import codecs
import io
import json
import os
import platform
import subprocess
import sys
import warnings
import inspect
from dataclasses import replace

import numpy as np
import pytest

import svdcnn
from svdcnn.architecture import ArchitectureSpec, Model
from svdcnn.bench import measure_latency
from svdcnn.cli import _from_args, build_parser, main
from svdcnn.data import IngestionWarning, load_csv, split_dataset
from svdcnn.training import TrainConfig, evaluate, load_checkpoint, predict_logits, save_checkpoint

from test_architecture import MALFORMED_GOLDEN_TABLES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDescribe:
    def test_squeezed_deep_row(self, capsys):
        code, out, _err = run(capsys, "describe", "--family", "svdcnn", "--depth", "29", "--classes", "4")
        assert code == 0
        assert "total=1.56" in out
        assert "5.95 MB" in out

    def test_standard_head_weight_line(self, capsys):
        code, out, _err = run(capsys, "describe", "--family", "vdcnn", "--depth", "9")
        assert code == 0
        assert "12,591,104" in out

    def test_unsupported_depth_is_usage_error(self, capsys):
        code, _out, err = run(capsys, "describe", "--depth", "13")
        assert code == 2
        assert "9, 17, 29, 49" in err


class TestSpecFlags:
    @pytest.mark.parametrize("command", ["describe", "train", "bench"])
    def test_no_flags_give_the_spec_defaults(self, command):
        assert _from_args(ArchitectureSpec, build_parser().parse_args([command])) == ArchitectureSpec("svdcnn")

    @pytest.mark.parametrize("flag,field,value", [
        ("--family", "family", "vdcnn"),
        ("--depth", "depth", 17),
        ("--classes", "n_classes", 7),
        ("--seq-len", "seq_len", 256),
        ("--s", "seq_len", 256),
        ("--embed-dim", "embed_dim", 8),
        ("--pooled-len", "pooled_len", 4),
        ("--fc-hidden", "fc_hidden", 64),
    ])
    def test_each_flag_sets_its_own_field(self, flag, field, value):
        args = build_parser().parse_args(["describe", flag, str(value)])
        assert _from_args(ArchitectureSpec, args) == replace(ArchitectureSpec("svdcnn"), **{field: value})


class TestTrainFlags:
    def test_no_flags_give_the_config_defaults(self):
        assert _from_args(TrainConfig, build_parser().parse_args(["train"])) == TrainConfig()

    @pytest.mark.parametrize("flag,field,value", [
        ("--lr", "lr", 0.5),
        ("--momentum", "momentum", 0.25),
        ("--weight-decay", "weight_decay", 0.125),
        ("--batch-size", "batch_size", 8),
        ("--epochs", "max_epochs", 3),
        ("--eval-every", "eval_every", 2),
        ("--seed", "seed", 5),
    ])
    def test_each_flag_sets_its_own_field(self, flag, field, value):
        args = build_parser().parse_args(["train", flag, str(value)])
        assert _from_args(TrainConfig, args) == replace(TrainConfig(), **{field: value})

    def test_bench_times_measure_latency_default_counts(self, capsys, tmp_path):
        record = tmp_path / "run.json"
        code, _out, _err = run(capsys, "bench", "--s", "16", "--pooled-len", "2", "--classes", "2",
                               "--fc-hidden", "8", "--json", str(record))
        assert code == 0
        defaults = inspect.signature(measure_latency).parameters
        payload = json.loads(record.read_text())
        assert (payload["reps"], payload["warmup"]) == (defaults["reps"].default, defaults["warmup"].default)


class TestVerify:
    def test_default_run_passes(self, capsys):
        code, out, _err = run(capsys, "verify")
        assert code == 0
        assert "66.28%" in out
        assert "FAIL" not in out
        assert "FLAG" in out  # the standard-family conv rows stay visible

    def test_tampered_golden_value_fails(self, capsys, tmp_path):
        bad = tmp_path / "golden.tsv"
        bad.write_text("svdcnn\t9\t0.71\t0.02\t9.99\t2.80\n")
        code, out, _err = run(capsys, "verify", "--golden", str(bad))
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("content,line", [v[:2] for v in MALFORMED_GOLDEN_TABLES.values()],
                             ids=MALFORMED_GOLDEN_TABLES)
    def test_malformed_golden_table_is_one_error_line(self, capsys, tmp_path, content, line):
        bad = tmp_path / "golden.tsv"
        bad.write_bytes(content)
        code, out, err = run(capsys, "verify", "--golden", str(bad))
        assert code == 1
        assert "PASS" not in out
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {bad}, line {line}: ")

    def test_missing_golden_file(self, capsys, tmp_path):
        code, _out, err = run(capsys, "verify", "--golden", str(tmp_path / "none.tsv"))
        assert code == 1
        assert "none.tsv" in err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("train")
    ckpt = tmp / "model.ckpt"
    code = main([
        "train", "--synthetic", "--family", "svdcnn", "--depth", "9",
        "--s", "16", "--pooled-len", "2", "--classes", "2", "--fc-hidden", "8",
        "--train-size", "24", "--val-size", "8", "--batch-size", "8",
        "--epochs", "2", "--seed", "3", "--out", str(ckpt),
    ])
    assert code == 0
    return ckpt


class TestTrain:
    def test_writes_checkpoint_and_history(self, trained, capsys):
        assert trained.exists()
        history = trained.parent / f"{trained.name}.history.jsonl"
        lines = history.read_text().strip().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert set(record) == {"epoch", "train_loss", "val_accuracy"}

    def test_echoes_default_hyperparameters(self, capsys, tmp_path):
        code, out, _err = run(
            capsys, "train", "--synthetic", "--s", "16", "--pooled-len", "2",
            "--classes", "2", "--fc-hidden", "8", "--train-size", "8", "--val-size", "4",
            "--batch-size", "4", "--epochs", "1", "--out", str(tmp_path / "m.ckpt"),
        )
        assert code == 0
        assert "lr=0.01" in out and "momentum=0.9" in out
        assert "weight_decay=0.001" in out and "batch_size=4" in out

    def test_eval_every_writes_null_and_labels_best_epoch(self, capsys, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        code, out, _err = run(
            capsys, "train", "--synthetic", "--seq-len", "64", "--train-size", "16", "--val-size", "8",
            "--epochs", "4", "--eval-every", "2", "--batch-size", "8", "--out", str(ckpt),
        )
        assert code == 0

        def reject_constant(name):
            raise ValueError(f"{name} is not valid JSON")

        lines = (tmp_path / "m.ckpt.history.jsonl").read_text().strip().splitlines()
        rows = [json.loads(line, parse_constant=reject_constant) for line in lines]
        assert [r["val_accuracy"] is None for r in rows] == [True, False, True, False]
        best = max(r["val_accuracy"] for r in rows if r["val_accuracy"] is not None)
        best_epoch = next(r["epoch"] for r in rows if r["val_accuracy"] == best)
        assert f"best epoch {best_epoch}; checkpoint val accuracy {best:.4f}" in out
        assert load_checkpoint(ckpt).checkpoint_epoch == best_epoch

    def test_missing_csv_path_errors(self, capsys, tmp_path):
        code, _out, err = run(capsys, "train", "--csv", str(tmp_path / "absent.csv"),
                              "--s", "16", "--pooled-len", "2", "--out", str(tmp_path / "m.ckpt"))
        assert code == 1
        assert "absent.csv" in err

    def test_csv_or_synthetic_required(self, capsys, tmp_path):
        code, _out, err = run(capsys, "train", "--out", str(tmp_path / "m.ckpt"))
        assert code == 1
        assert "--csv" in err or "--synthetic" in err

    SMALL = ("--s", "16", "--pooled-len", "2", "--classes", "2", "--fc-hidden", "8", "--batch-size", "4", "--epochs", "1")
    TINY = (*SMALL, "--train-size", "8", "--val-size", "4")

    def test_csv_and_synthetic_are_exclusive(self, capsys, tmp_path):
        csv_path = tmp_path / "a.csv"
        csv_path.write_text('1,"text"\n2,"more"\n')
        code, out, err = run(capsys, "train", "--csv", str(csv_path), "--synthetic", *self.TINY,
                             "--out", str(tmp_path / "m.ckpt"))
        assert (code, out) == (2, "")
        assert "not allowed with" in err

    def test_val_csv_with_synthetic_is_rejected_before_loading(self, capsys, tmp_path):
        code, out, err = run(capsys, "train", "--synthetic", *self.TINY, "--val-csv", str(tmp_path / "absent.csv"),
                             "--out", str(tmp_path / "m.ckpt"))
        assert (code, out) == (1, "")
        assert err == "error: --val-csv needs --csv; --synthetic generates its own validation set\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("corpus,flag,message", [
        ("--csv", "--train-size", "--train-size and --val-size need --synthetic; --csv takes its sets from CSV rows"),
        ("--csv", "--val-size", "--train-size and --val-size need --synthetic; --csv takes its sets from CSV rows"),
        ("--synthetic", "--val-fraction", "--val-fraction needs --csv; --synthetic generates its own validation set"),
        ("--val-csv", "--val-fraction", "--val-fraction splits --csv; --val-csv is the validation set"),
    ], ids=["csv-train-size", "csv-val-size", "synthetic-val-fraction", "val-csv-val-fraction"])
    def test_flag_for_the_other_corpus_is_rejected_before_loading(self, capsys, tmp_path, corpus, flag, message):
        corpus_flags = {
            "--csv": ("--csv", str(tmp_path / "absent.csv")),
            "--synthetic": ("--synthetic",),
            "--val-csv": ("--csv", str(tmp_path / "absent.csv"), "--val-csv", str(tmp_path / "absent-val.csv")),
        }[corpus]
        value = "0.2" if flag == "--val-fraction" else "8"
        code, out, err = run(capsys, "train", *corpus_flags, *self.SMALL, flag, value, "--out", str(tmp_path / "m.ckpt"))
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fraction", ["0", "1", "1.5", "-0.1", "nan"])
    def test_val_fraction_outside_the_open_unit_interval_is_rejected_before_loading(self, capsys, tmp_path, fraction):
        code, out, err = run(capsys, "train", "--csv", str(tmp_path / "absent.csv"), *self.SMALL,
                             "--val-fraction", fraction, "--out", str(tmp_path / "m.ckpt"))
        assert (code, out) == (1, "")
        assert err == f"error: --val-fraction must be in (0, 1), got {float(fraction)}\n"

    def test_val_csv_run_writes_a_loadable_checkpoint_and_one_history_row_per_epoch(self, capsys, tmp_path):
        for name, rows in (("train.csv", 12), ("val.csv", 4)):
            (tmp_path / name).write_text("".join(f'{1 + i % 2},"text {i}"\n' for i in range(rows)))
        ckpt = tmp_path / "m.ckpt"
        code, out, _err = run(capsys, "train", "--csv", str(tmp_path / "train.csv"), "--val-csv",
                              str(tmp_path / "val.csv"), *self.SMALL, "--epochs", "2", "--out", str(ckpt))
        assert code == 0 and f"wrote {ckpt}" in out
        assert load_checkpoint(ckpt).spec == ArchitectureSpec("svdcnn", seq_len=16, pooled_len=2, n_classes=2,
                                                               fc_hidden=8)
        rows = (tmp_path / "m.ckpt.history.jsonl").read_text().splitlines()
        assert [json.loads(row)["epoch"] for row in rows] == [1, 2]

    def test_csv_without_val_csv_holds_out_a_seeded_fraction_of_its_rows(self, capsys, tmp_path):
        (tmp_path / "train.csv").write_text("".join(f'{1 + i % 2},"text {i}"\n' for i in range(20)))
        ckpt = tmp_path / "m.ckpt"
        code, out, _err = run(capsys, "train", "--csv", str(tmp_path / "train.csv"), *self.SMALL,
                              "--val-fraction", "0.2", "--out", str(ckpt))
        assert code == 0 and f"wrote {ckpt}" in out
        model = load_checkpoint(ckpt)
        _train, val = split_dataset(load_csv(tmp_path / "train.csv", 2, seq_len=16), 0.2, seed=0)
        assert len(val) == 4
        assert f"checkpoint val accuracy {evaluate(model, val):.4f}" in out

    def test_history_naming_the_checkpoint_file_fails_before_loading(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "train", "--csv", "absent.csv", *self.SMALL, "--out", "m.ckpt",
                             "--history", str(tmp_path / "sub" / ".." / "m.ckpt"))
        assert (code, out) == (1, "")
        assert err == f"error: --history {tmp_path / 'sub' / '..' / 'm.ckpt'} names the same file as --out m.ckpt\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out", "--history"])
    def test_missing_output_directory_fails_before_training(self, capsys, tmp_path, flag):
        missing = tmp_path / "missing" / "m.out"
        code, out, err = run(capsys, "train", "--synthetic", *self.TINY, "--out", str(tmp_path / "m.ckpt"),
                             flag, str(missing))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and str(missing) in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out", "--history"])
    def test_output_path_naming_a_directory_fails_before_training(self, capsys, tmp_path, flag):
        taken = tmp_path / "taken"
        taken.mkdir()
        code, out, err = run(capsys, "train", "--synthetic", *self.TINY, "--out", str(tmp_path / "m.ckpt"),
                             flag, str(taken))
        assert (code, out, err) == (1, "", f"error: cannot write {taken}: it is a directory\n")
        assert list(tmp_path.iterdir()) == [taken] and list(taken.iterdir()) == []

    def test_empty_out_fails_before_training(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(svdcnn.cli, "synth_dataset", lambda *a, **k: pytest.fail("data read before the check"))
        code, out, err = run(capsys, "train", "--synthetic", *self.TINY, "--out", "")
        assert (code, out, err) == (1, "", "error: cannot write an empty path\n")
        assert list(tmp_path.iterdir()) == []

    def test_empty_history_means_the_default_path(self, capsys, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        code, _out, err = run(capsys, "train", "--synthetic", *self.TINY, "--out", str(ckpt), "--history", "")
        assert (code, err) == (0, "")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt", "m.ckpt.history.jsonl"]

    def test_negative_seed_names_the_field_before_training(self, capsys, tmp_path):
        code, out, err = run(capsys, "train", "--synthetic", *self.TINY, "--out", str(tmp_path / "m.ckpt"),
                             "--seed", "-1")
        assert (code, out, err) == (1, "", "error: seed must be non-negative, got -1\n")
        assert list(tmp_path.iterdir()) == []


class TestPredict:
    def test_probabilities_sum_to_one(self, trained, capsys):
        code, out, _err = run(capsys, "predict", "--checkpoint", str(trained), "--text", "hello world")
        assert code == 0
        probs = [float(x) for x in out.splitlines()[1].split(":")[1].split()]
        assert abs(sum(probs) - 1.0) < 1e-6

    def test_same_text_twice_is_identical(self, trained, capsys):
        _code, first, _ = run(capsys, "predict", "--checkpoint", str(trained), "--text", "abc")
        _code, second, _ = run(capsys, "predict", "--checkpoint", str(trained), "--text", "abc")
        assert first == second

    def test_empty_text_is_valid(self, trained, capsys):
        code, out, _err = run(capsys, "predict", "--checkpoint", str(trained), "--text", "")
        assert code == 0
        assert out.startswith("class:")

    def test_bad_checkpoint_path(self, capsys, tmp_path):
        code, _out, err = run(capsys, "predict", "--checkpoint", str(tmp_path / "no.ckpt"), "--text", "x")
        assert code == 1
        assert "no.ckpt" in err

    def test_oversized_header_field_is_one_error_line(self, trained, capsys, tmp_path):
        blob = bytearray(trained.read_bytes())
        blob[22:26] = (2**31).to_bytes(4, "little")  # the vocabulary size field
        path = tmp_path / "corrupt.ckpt"
        path.write_bytes(bytes(blob))
        code, out, err = run(capsys, "predict", "--checkpoint", str(path), "--text", "x")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "corrupt.ckpt" in err and "Traceback" not in err


class TestPredictFile:
    TEXTS = ["hello world", "", "Zebra crossing at 5pm!", "abc abc abc", "\u00e9t\u00e9 caf\u00e9"]

    def predict_text(self, capsys, trained, text):
        code, out, _err = run(capsys, "predict", "--checkpoint", str(trained), "--text", text)
        assert code == 0
        cls_line, prob_line = out.splitlines()
        return int(cls_line.split(":")[1]), [float(p) for p in prob_line.split(":")[1].split()]

    def check_lines(self, capsys, trained, out):
        lines = out.splitlines()
        assert len(lines) == len(self.TEXTS)
        for text, line in zip(self.TEXTS, lines):
            cls, probs = line.split("\t")
            want_cls, want_probs = self.predict_text(capsys, trained, text)
            assert int(cls) == want_cls
            got = [float(p) for p in probs.split()]
            assert len(got) == len(want_probs)
            assert max(abs(a - b) for a, b in zip(got, want_probs)) <= 1e-5

    def test_each_line_matches_its_text_result(self, trained, capsys, tmp_path):
        path = tmp_path / "texts.txt"
        path.write_text("\n".join(self.TEXTS) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "predict", "--checkpoint", str(trained), "--file", str(path))
        assert (code, err) == (0, "")
        self.check_lines(capsys, trained, out)

    def test_dash_reads_stdin(self, trained, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO("\n".join(self.TEXTS).encode("utf-8"))))
        code, out, _err = run(capsys, "predict", "--checkpoint", str(trained), "--file", "-")
        assert code == 0
        self.check_lines(capsys, trained, out)

    def test_more_lines_than_one_batch(self, trained, capsys, tmp_path):
        path = tmp_path / "many.txt"
        path.write_text("".join(f"text number {i}\n" for i in range(300)), encoding="utf-8")
        code, out, _err = run(capsys, "predict", "--checkpoint", str(trained), "--file", str(path))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 300
        assert lines[299].split("\t")[0] == str(self.predict_text(capsys, trained, "text number 299")[0])

    def test_empty_file_prints_nothing(self, trained, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert run(capsys, "predict", "--checkpoint", str(trained), "--file", str(path)) == (0, "", "")

    def test_missing_file(self, trained, capsys, tmp_path):
        code, out, err = run(capsys, "predict", "--checkpoint", str(trained), "--file", str(tmp_path / "none.txt"))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "none.txt" in err

    def test_text_and_file_are_exclusive(self, trained, capsys, tmp_path):
        code, _out, err = run(capsys, "predict", "--checkpoint", str(trained), "--text", "a", "--file", "-")
        assert code == 2
        assert "not allowed with" in err
        code, _out, err = run(capsys, "predict", "--checkpoint", str(trained))
        assert code == 2
        assert "--text" in err and "--file" in err


class TestOneTextPath:
    """Bytes reach the model as the same row from a training CSV and from each predict input."""

    CASES = {  # (text bytes, line end)
        "bom": (codecs.BOM_UTF8 + b"hello bom", b"\n"),
        "truncated-4-byte": (b"ab\xf0\x9f\x98cd", b"\n"),
        "lone-0xff": (b"x\xffy", b"\n"),
        "crlf": (b"line end", b"\r\n"),
        "upper-case": (b"MIXED Case 42", b"\n"),
        "out-of-dictionary": ("\u00e9t\u00e9 \u4e2d\u6587 \u00df~".encode(), b"\n"),
        "astral": ("a\U0001F600b\U00010400c".encode(), b"\n"),
    }

    @pytest.mark.parametrize("body,end", CASES.values(), ids=CASES)
    def test_csv_file_stdin_and_text_give_one_row(self, trained, capsys, tmp_path, monkeypatch, body, end):
        bom = codecs.BOM_UTF8 if body.startswith(codecs.BOM_UTF8) else b""
        csv_path = tmp_path / "train.csv"
        csv_path.write_bytes(bom + b'1,"' + body.removeprefix(bom) + b'"' + end)
        text_path = tmp_path / "texts.txt"
        text_path.write_bytes(body + end)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(body + end)))
        rows = []
        monkeypatch.setattr("svdcnn.cli.predict_logits",
                            lambda model, idx: rows.append(idx) or predict_logits(model, idx))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            want = load_csv(csv_path, n_classes=2, seq_len=load_checkpoint(trained).spec.seq_len).indices
            for argv in (["--file", str(text_path)], ["--file", "-"], ["--text", os.fsdecode(body)]):
                assert run(capsys, "predict", "--checkpoint", str(trained), *argv)[0] == 0
        assert len(rows) == 3
        for got in rows:
            np.testing.assert_array_equal(got, want)
        # every route warns about the same number of replaced sequences, or none does
        assert all(w.category is IngestionWarning for w in caught) and len(caught) in (0, 4)
        assert len({str(w.message).split(": ", 1)[1] for w in caught}) <= 1


def run_command(*argv):
    """``svdcnn ARGV`` in a fresh interpreter, where warnings reach stderr as a user sees them
    (this test session turns them into errors): ``(code, stdout, stderr)``."""
    src = os.path.dirname(os.path.dirname(svdcnn.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-c", "import sys; from svdcnn.cli import main; sys.exit(main())", *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


class TestWarnings:
    """Each warning reaches the user as one ``warning: ...`` line on stderr, with no source location."""

    @staticmethod
    def replaced_line(path):
        return f"warning: {path}: 1 undecodable byte sequence(s) replaced with U+FFFD\n"

    def test_predict_file(self, trained, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"x\xffy\nplain\n")
        code, out, err = run_command("predict", "--checkpoint", str(trained), "--file", str(path))
        assert (code, len(out.splitlines())) == (0, 2)
        assert err == self.replaced_line(path)

    def test_train_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b'1,"x\xffy"\n' + b"".join(b'%d,"text %d"\n' % (1 + i % 2, i) for i in range(7)))
        code, out, err = run_command("train", "--csv", str(path), *TestTrain.SMALL, "--out", str(tmp_path / "m.ckpt"))
        assert code == 0 and "wrote" in out
        assert err == self.replaced_line(path)

    def test_library_still_warns_and_main_restores_the_format(self, trained, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"x\xffy\n")
        formatwarning = warnings.formatwarning
        with pytest.warns(IngestionWarning, match="1 undecodable byte sequence"):
            assert run(capsys, "predict", "--checkpoint", str(trained), "--file", str(path))[0] == 0
        assert warnings.formatwarning is formatwarning


class TestBench:
    def test_one_stats_row(self, capsys):
        code, out, _err = run(
            capsys, "bench", "--family", "svdcnn", "--depth", "9", "--s", "16",
            "--pooled-len", "2", "--classes", "2", "--fc-hidden", "8",
            "--reps", "5", "--warmup", "1",
        )
        assert code == 0
        assert "reps=5" in out

    def test_checkpoint_row_names_its_family_and_depth(self, capsys, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(Model(ArchitectureSpec("vdcnn", depth=17, seq_len=16, pooled_len=2, n_classes=2, fc_hidden=8),
                              seed=None), path)
        code, out, err = run(capsys, "bench", "--checkpoint", str(path), "--reps", "2", "--warmup", "0")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 1 and out.split()[:2] == ["vdcnn", "17"] and "reps=2" in out

    SPEC_FLAGS = [("--family", "svdcnn"), ("--depth", "9"), ("--classes", "2"), ("--seq-len", "16"), ("--s", "16"),
                  ("--embed-dim", "16"), ("--pooled-len", "2"), ("--fc-hidden", "8")]

    @pytest.mark.parametrize("flag,value", SPEC_FLAGS, ids=[flag for flag, _value in SPEC_FLAGS])
    def test_architecture_flag_with_checkpoint_is_rejected_before_loading(self, capsys, trained, flag, value):
        code, out, err = run(capsys, "bench", "--checkpoint", str(trained), "--reps", "2", "--warmup", "0", flag, value)
        named = "--seq-len" if flag == "--s" else flag
        assert (code, out, err) == (1, "", f"error: --checkpoint sets the architecture; drop {named}\n")

    def test_missing_json_directory_fails_before_measuring(self, capsys, tmp_path):
        missing = tmp_path / "missing" / "run.json"
        code, out, err = run(capsys, "bench", "--s", "16", "--pooled-len", "2", "--classes", "2", "--fc-hidden", "8",
                             "--reps", "2", "--warmup", "0", "--json", str(missing))
        assert (code, out, err) == (1, "", f"error: cannot write {missing}: its directory does not exist\n")

    def test_json_path_naming_a_directory_fails_before_measuring(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(svdcnn.bench, "measure_latency", lambda *a, **k: pytest.fail("timed before the check"))
        code, out, err = run(capsys, "bench", "--s", "16", "--pooled-len", "2", "--classes", "2", "--fc-hidden", "8",
                             "--reps", "2", "--warmup", "0", "--json", str(tmp_path))
        assert (code, out, err) == (1, "", f"error: cannot write {tmp_path}: it is a directory\n")

    def test_empty_json_path_fails_before_measuring(self, capsys, monkeypatch):
        monkeypatch.setattr(svdcnn.bench, "measure_latency", lambda *a, **k: pytest.fail("timed before the check"))
        code, out, err = run(capsys, "bench", "--s", "16", "--pooled-len", "2", "--classes", "2", "--fc-hidden", "8",
                             "--reps", "2", "--warmup", "0", "--json", "")
        assert (code, out, err) == (1, "", "error: cannot write an empty path\n")

    @pytest.mark.parametrize("source", [[], ["--checkpoint", "absent.ckpt"]], ids=["built", "loaded"])
    def test_negative_seed_is_rejected_before_a_model_is_built_or_loaded(self, capsys, monkeypatch, source):
        monkeypatch.setattr(svdcnn.cli, "Model", lambda *a, **k: pytest.fail("built before the check"))
        code, out, err = run(capsys, "bench", *source, "--seed", "-1")
        assert (code, out, err) == (1, "", "error: --seed must be non-negative, got -1\n")

    def test_reps_of_one_is_usage_error(self, capsys):
        code, _out, err = run(capsys, "bench", "--reps", "1")
        assert code == 2
        assert "at least 2" in err

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_reps_below_two_is_usage_error_before_measuring(self, capsys, monkeypatch, reps):
        monkeypatch.setattr(svdcnn.bench, "measure_latency", lambda *a, **k: pytest.fail("timed before the check"))
        code, out, err = run(capsys, "bench", "--reps", reps)
        assert (code, out) == (2, "")
        assert err.endswith("error: --reps must be at least 2\n")

    @pytest.mark.parametrize("source", [[], ["--checkpoint", "absent.ckpt"]], ids=["built", "loaded"])
    def test_negative_warmup_is_usage_error_before_a_model_is_built_or_loaded(self, capsys, monkeypatch, source):
        monkeypatch.setattr(svdcnn.cli, "Model", lambda *a, **k: pytest.fail("built before the check"))
        monkeypatch.setattr(svdcnn.cli, "load_checkpoint", lambda *a, **k: pytest.fail("loaded before the check"))
        code, out, err = run(capsys, "bench", *source, "--warmup", "-1")
        assert (code, out) == (2, "")
        assert err.endswith("error: --warmup cannot be negative\n")

    MEASUREMENT_FLAGS = ["--family", "--depth", "--classes", "--seq-len", "--s", "--embed-dim", "--pooled-len",
                         "--fc-hidden", "--checkpoint", "--reps", "--warmup", "--seed", "--json"]

    @pytest.mark.parametrize("flag", MEASUREMENT_FLAGS)
    def test_help_lists_the_flag(self, capsys, flag):
        code, out, _err = run(capsys, "bench", "--help")
        assert code == 0
        assert f" {flag} " in out.replace(",", " ").replace("\n", " ")

    def test_compare_is_not_an_option(self, capsys, tmp_path):
        code, out, err = run(capsys, "bench", "--compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"))
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --compare" in err
        assert "--compare" not in run(capsys, "bench", "--help")[1]
        assert list(tmp_path.iterdir()) == []

    def test_json_record_written(self, capsys, tmp_path):
        record = tmp_path / "run.json"
        code, _out, _err = run(
            capsys, "bench", "--family", "svdcnn", "--depth", "9", "--s", "16",
            "--pooled-len", "2", "--classes", "2", "--fc-hidden", "8",
            "--reps", "3", "--warmup", "0", "--json", str(record),
        )
        assert code == 0
        payload = json.loads(record.read_text())
        assert payload["reps"] == 3

    def test_json_record_is_the_printed_row_s_measurement(self, capsys, tmp_path):
        record = tmp_path / "run.json"
        code, out, err = run(capsys, "bench", "--s", "16", "--pooled-len", "2", "--classes", "2", "--fc-hidden", "8",
                             "--reps", "2", "--warmup", "1", "--json", str(record))
        assert (code, err) == (0, "")
        row, wrote = out.splitlines()
        assert wrote == f"wrote {record}"
        payload = json.loads(record.read_text(encoding="utf-8"))
        assert list(payload) == ["mean_ms", "std_ms", "reps", "warmup", "environment", "blas_stall"]
        assert row.startswith(f"svdcnn       9  {payload['mean_ms']:8.2f}ms ±{payload['std_ms']:.2f}  reps=2  ")
        assert (payload["reps"], payload["warmup"]) == (2, 1)

    def test_json_record_names_the_environment(self, capsys, tmp_path):
        flags = ["bench", "--family", "svdcnn", "--depth", "9", "--s", "16", "--pooled-len", "2",
                 "--classes", "2", "--fc-hidden", "8", "--reps", "2", "--warmup", "0", "--json"]
        record = tmp_path / "run.json"
        assert run(capsys, *flags, str(record))[0] == 0
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
        assert json.loads(record.read_text())["environment"] == (
            f"{cores} vCPU {platform.machine()}, numpy {np.__version__}, Python {platform.python_version()}, "
            f"BLAS {blas['name']} {blas['version']}, OPENBLAS_NUM_THREADS={threads}")
