"""Vocabulary, quantization, CSV ingestion, batching and the synthetic set."""

import hashlib
import re
import warnings

import numpy as np
import pytest

from svdcnn.data import (
    ALPHABET,
    Dataset,
    IngestionError,
    IngestionWarning,
    Vocabulary,
    load_csv,
    make_batches,
    quantize,
    split_dataset,
    synth_dataset,
)

from oracles import histogram_classifier, quantize_direct


def digest(indices, labels):
    """SHA-256 of the int64 index rows followed by the int64 labels."""
    rows = np.ascontiguousarray(indices, dtype=np.int64).tobytes()
    return hashlib.sha256(rows + np.asarray(labels, dtype=np.int64).tobytes()).hexdigest()


class TestVocabulary:
    def test_sixty_nine_symbols_plus_padding(self):
        vocab = Vocabulary()
        assert len(ALPHABET) == 69
        assert vocab.size == 70

    def test_indices_dense_and_unique(self):
        vocab = Vocabulary()
        indices = quantize(ALPHABET, vocab, len(ALPHABET))
        assert sorted(indices) == list(range(1, 70))

    def test_unknown_maps_to_padding(self):
        vocab = Vocabulary()
        np.testing.assert_array_equal(quantize("é€\U0001f600", vocab, 3), [0, 0, 0])
        assert "A" not in ALPHABET  # quantize lowercases before the lookup


class TestQuantize:
    def test_empty_text_is_all_padding(self):
        np.testing.assert_array_equal(quantize("", Vocabulary(), 4), [0, 0, 0, 0])

    def test_short_text_right_padded(self):
        vocab = Vocabulary()
        out = quantize("ab", vocab, 4)
        np.testing.assert_array_equal(out, [1, 2, 0, 0])  # ALPHABET starts "ab"; index 0 is padding

    def test_long_text_truncated_to_length(self):
        out = quantize("x" * 2000, Vocabulary(), 1024)
        assert out.shape == (1024,)
        assert (out == ALPHABET.index("x") + 1).all()

    def test_lowercased_before_lookup(self):
        vocab = Vocabulary()
        np.testing.assert_array_equal(quantize("AbC", vocab, 3), quantize("abc", vocab, 3))

    def test_non_ascii_maps_to_padding(self):
        out = quantize("héllo", Vocabulary(), 5)
        assert out[1] == 0
        assert (out[[0, 2, 3, 4]] > 0).all()

    @pytest.mark.parametrize("seq_len", [1, 3, 8, 64])
    @pytest.mark.parametrize("text", [
        "MIXED Case", "é€ßü~", "a\U0001F600b\U00010400", "İİİabc", "\udcff\ud800x", "", "x" * 100,
    ], ids=["uppercase", "out_of_dictionary", "astral", "longer_after_lower", "lone_surrogates", "empty", "long"])
    def test_matches_direct_oracle(self, text, seq_len):
        vocab = Vocabulary()
        out = quantize(text, vocab, seq_len)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, quantize_direct(text, ALPHABET, seq_len))

    def test_total_and_deterministic(self):
        vocab = Vocabulary()
        texts = ["", "a", "zz@@  !!", "MIXED case 123", "\x00\x7f\n"]
        for text in texts:
            a, b = quantize(text, vocab, 16), quantize(text, vocab, 16)
            assert a.shape == (16,)
            np.testing.assert_array_equal(a, b)


class TestLoadCsv:
    def test_class_first_schema(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('"3","title","desc"\n"1","other","text"\n')
        ds = load_csv(path, n_classes=4, seq_len=16)
        assert ds.labels.tolist() == [2, 0]
        expected = quantize("title desc", Vocabulary(), 16)
        np.testing.assert_array_equal(ds.indices[0], expected)

    def test_quoted_commas_and_doubled_quotes(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('"2","a, b","say ""hi"""\n')
        ds = load_csv(path, n_classes=2, seq_len=20)
        expected = quantize('a, b say "hi"', Vocabulary(), 20)
        np.testing.assert_array_equal(ds.indices[0], expected)

    def test_blank_rows_are_skipped_and_line_numbers_still_count_them(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('"2","first"\n\n"1","second"\r\n\r\n\n"x","third"\n')
        with pytest.raises(IngestionError, match=r"line 6: class field 'x' is not an integer$"):
            load_csv(path, n_classes=2, seq_len=8)
        path.write_text('"2","first"\n\n"1","second"\r\n\r\n')
        ds = load_csv(path, n_classes=2, seq_len=8)
        assert ds.labels.tolist() == [1, 0]
        np.testing.assert_array_equal(ds.indices[1], quantize("second", Vocabulary(), 8))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(IngestionError, match="no samples"):
            load_csv(path, n_classes=4, seq_len=8)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('"1","ok"\njustonefield\n')
        with pytest.raises(IngestionError, match="line 2"):
            load_csv(path, n_classes=4, seq_len=8)

    def test_non_integer_class_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('"x","text"\n')
        with pytest.raises(IngestionError, match="line 1.*not an integer"):
            load_csv(path, n_classes=4, seq_len=8)

    def test_class_out_of_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('"5","text"\n')
        with pytest.raises(IngestionError, match=r"outside \[1, 4\]"):
            load_csv(path, n_classes=4, seq_len=8)

    def test_row_count_preserved_and_news_like_shape_accepted(self, tmp_path):
        # the standard news-corpus layout: 4 classes, title+description fields
        path = tmp_path / "news.csv"
        rows = [f'"{(i % 4) + 1}","headline {i}","body text {i}"' for i in range(120)]
        path.write_text("\n".join(rows) + "\n")
        ds = load_csv(path, n_classes=4, seq_len=32)
        assert len(ds) == 120
        assert ds.n_classes == 4

    def test_rows_and_labels_are_pinned(self, tmp_path):
        # digest computed with the per-sample loader this array layout replaced
        path = tmp_path / "data.csv"
        path.write_bytes(
            '"3","Title One","Desc, with comma"\n"1","héllo WORLD","say ""hi"""\n'
            '"2","x","tab\there"\n"4","İstanbul ß","中文 1234567890 {}~|"\n'.encode("utf-8")
        )
        ds = load_csv(path, n_classes=4, seq_len=16)
        assert ds.indices.dtype == np.uint8 and ds.indices.shape == (4, 16)
        assert digest(ds.indices, ds.labels) == "d7fceb0733fcdbcf4921918712f8e6e20759f2d18d2f7f653bee7dfa62c5a995"

    def test_undecodable_bytes_counted_in_a_warning(self, tmp_path):
        path = tmp_path / "bad_bytes.csv"
        path.write_bytes(b'"1","ab\xffc"\n"2","\xfe\xfe"\n')
        with pytest.warns(IngestionWarning, match=r"bad_bytes\.csv: 3 undecodable"):
            ds = load_csv(path, n_classes=2, seq_len=8)
        assert ds.labels.tolist() == [0, 1]
        np.testing.assert_array_equal(ds.indices[0], quantize("ab\ufffdc", Vocabulary(), 8))

    def test_genuine_replacement_character_is_not_warned(self, tmp_path):
        path = tmp_path / "fffd.csv"
        path.write_bytes('"1","a\ufffdb"\n'.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_csv(path, n_classes=2, seq_len=8)
        assert len(ds) == 1


class TestDataset:
    def test_label_outside_classes_named(self):
        with pytest.raises(ValueError, match=r"label 2 outside \[0, 2\)"):
            Dataset(np.zeros((3, 4), dtype=np.uint8), [0, 2, 1], n_classes=2)

    def test_layout_checked(self):
        with pytest.raises(ValueError, match=r"got int64 indices \(3, 4\)"):
            Dataset(np.zeros((3, 4), dtype=np.int64), [0, 1, 0], n_classes=2)
        with pytest.raises(ValueError, match=r"labels \(2,\)"):
            Dataset(np.zeros((3, 4), dtype=np.uint8), [0, 1], n_classes=2)
        with pytest.raises(ValueError, match="non-empty"):
            Dataset(np.zeros((0, 4), dtype=np.uint8), [], n_classes=2)
        with pytest.raises(ValueError, match="^labels must be integers, got dtype float64$"):
            Dataset(np.zeros((3, 4), dtype=np.uint8), np.array([0.7, 1.2, 1.9]), n_classes=2)
        with pytest.raises(ValueError, match="^labels must be integers, got dtype bool$"):
            Dataset(np.zeros((3, 4), dtype=np.uint8), [True, False, True], n_classes=2)

    def test_integer_labels_of_any_width_become_int64(self):
        ds = Dataset(np.zeros((3, 4), dtype=np.uint8), np.array([1, 0, 1], dtype=np.uint8), n_classes=2)
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 0, 1]


class TestBatches:
    def _dataset(self, n):
        indices = np.repeat(np.arange(n)[:, None] % 3, 4, axis=1).astype(np.uint8)
        return Dataset(indices, np.arange(n) % 2, n_classes=2)

    def test_sizes_with_partial_tail(self):
        batches = make_batches(self._dataset(10), 3, seed=0)
        assert [len(labels) for _idx, labels in batches] == [3, 3, 3, 1]

    def test_same_seed_same_order(self):
        a = make_batches(self._dataset(10), 3, seed=5)
        b = make_batches(self._dataset(10), 3, seed=5)
        for (ia, la), (ib, lb) in zip(a, b):
            np.testing.assert_array_equal(ia, ib)
            np.testing.assert_array_equal(la, lb)

    def test_epoch_union_is_the_dataset(self):
        ds = self._dataset(11)
        batches = make_batches(ds, 4, seed=1)
        seen = sorted(int(idx[0]) for idx_batch, labels in batches for idx in idx_batch)
        expected = sorted(int(row[0]) for row in ds.indices)
        assert seen == expected
        assert sum(len(labels) for _i, labels in batches) == len(ds)

    def test_rows_are_contiguous_int64(self):
        for idx, labels in make_batches(self._dataset(10), 3, seed=2):
            assert idx.dtype == np.int64 and idx.flags.c_contiguous
            assert labels.dtype == np.int64

    def test_default_batch_size_is_64(self):
        from svdcnn.training import TrainConfig

        assert TrainConfig().batch_size == 64


class TestSplit:
    def test_partition(self):
        ds = self._make(50)
        train, val = split_dataset(ds, 0.2, seed=0)
        assert len(train) + len(val) == 50
        assert len(val) == 10

    def test_single_sample_rejected_with_its_count(self):
        with pytest.raises(ValueError, match=r"cannot split 1 sample\(s\).*at least 2"):
            split_dataset(self._make(1), 0.2, seed=0)

    def _make(self, n):
        indices = np.repeat(np.arange(n)[:, None], 4, axis=1).astype(np.uint8)
        return Dataset(indices, np.arange(n) % 2, n_classes=2)


class TestSynthetic:
    def test_round_robin_counts(self):
        ds = synth_dataset(400, 4, 32, seed=0)
        counts = np.bincount(ds.labels, minlength=4)
        np.testing.assert_array_equal(counts, [100, 100, 100, 100])

    def test_labels_in_range(self):
        ds = synth_dataset(40, 4, 32, seed=1)
        assert all(0 <= label < 4 for label in ds.labels)

    def test_deterministic_per_seed(self):
        a = synth_dataset(20, 4, 32, seed=3)
        b = synth_dataset(20, 4, 32, seed=3)
        for ra, rb in zip(a.indices, b.indices):
            np.testing.assert_array_equal(ra, rb)
        c = synth_dataset(20, 4, 32, seed=4)
        assert any((ra != rc).any() for ra, rc in zip(a.indices, c.indices))

    def test_histogram_oracle_reaches_99_percent(self):
        # learnability floor: counting signature letters alone classifies it
        ds = synth_dataset(400, 4, 128, seed=11)
        vocab = Vocabulary()
        signatures = list(quantize("abcd", vocab, 4))
        predictions = histogram_classifier(ds.indices, 4, signatures)
        accuracy = float(np.mean([p == label for p, label in zip(predictions, ds.labels)]))
        assert accuracy >= 0.99

    @pytest.mark.parametrize("seed", [11, 12])
    def test_rows_and_labels_are_pinned(self, seed):
        # digests computed with the per-sample text generator this array layout replaced
        expected = {
            11: "f32ab9f4a859decbe757f1fa7e902b6ddee400db20b91a54e0e9bc01cea3a3ce",
            12: "b0119d47f829cc4041e3bfdbfe96929574eac861d076c1e216d617da9c5e9906",
        }
        ds = synth_dataset(400, 4, 128, seed=seed)
        assert ds.indices.dtype == np.uint8 and ds.indices.shape == (400, 128)
        assert digest(ds.indices, ds.labels) == expected[seed]

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            synth_dataset(2, 4, 32, seed=0)
        with pytest.raises(ValueError):
            synth_dataset(40, 30, 32, seed=0)


def _two_rows(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("1,a\n2,b\n", encoding="utf-8")
    return path


_FOUR = Dataset(np.zeros((4, 4), dtype=np.uint8), [0, 1, 0, 1], n_classes=2)


@pytest.mark.parametrize("call,message", [
    (lambda tmp: Dataset(np.zeros((3, 4), dtype=np.uint8), [0, 1, 0], 3.5), "n_classes must be an integer, got 3.5"),
    (lambda tmp: load_csv(_two_rows(tmp), 2.0, 16), "n_classes must be an integer, got 2.0"),
    (lambda tmp: make_batches(_FOUR, True, 0), "batch_size must be an integer, got True"),
    (lambda tmp: make_batches(_FOUR, 2, 0.5), "seed must be an integer, got 0.5"),
    (lambda tmp: split_dataset(_FOUR, 0.5, seed=1.5), "seed must be an integer, got 1.5"),
    (lambda tmp: synth_dataset(8.0, 2, 16, seed=0), "n must be an integer, got 8.0"),
    (lambda tmp: synth_dataset(8, 2, 16.0, seed=0), "seq_len must be an integer, got 16.0"),
    (lambda tmp: synth_dataset(8, 2, 16, seed="1"), "seed must be an integer, got '1'"),
    (lambda tmp: quantize("abc", Vocabulary(), 4.0), "seq_len must be an integer, got 4.0"),
], ids=["Dataset-n_classes", "load_csv-n_classes", "make_batches-batch_size", "make_batches-seed",
        "split_dataset-seed", "synth_dataset-n", "synth_dataset-seq_len", "synth_dataset-seed", "quantize-seq_len"])
def test_non_integer_count_is_named(tmp_path, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(tmp_path)
