"""Latency statistics with injected clocks, ratios and the protocol defaults."""

import inspect
import json

import numpy as np
import pytest

from svdcnn import bench
from svdcnn.architecture import ArchitectureSpec, Model
from svdcnn.autograd import StateError
from svdcnn.bench import (
    LatencyStats,
    format_stats_row,
    latency_ratio,
    load_stats,
    measure_latency,
    save_stats,
)


def tiny_model():
    return Model(
        ArchitectureSpec("svdcnn", depth=9, seq_len=8, pooled_len=1, n_classes=2, fc_hidden=4),
        seed=0,
    ).eval()


class FakeClock:
    """Returns scripted readings (seconds) on successive calls."""

    def __init__(self, readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


class TestMeasure:
    def test_scripted_clock_gives_exact_stats(self):
        # per-rep (start, end) pairs elapse exactly 1, 2 and 3 ms
        clock = FakeClock([0.0, 0.001, 0.0, 0.002, 0.0, 0.003])
        stats = measure_latency(tiny_model(), np.zeros(8, dtype=np.int64), reps=3, warmup=0, clock=clock)
        assert stats.mean_ms == 2.0
        assert stats.std_ms == 1.0
        assert stats.reps == 3

    def test_deterministic_clock_is_reproducible(self):
        readings = [0.0, 0.004, 0.0, 0.002, 0.0, 0.006, 0.0, 0.008]
        a = measure_latency(tiny_model(), np.zeros(8, dtype=np.int64), reps=4, warmup=0, clock=FakeClock(readings))
        b = measure_latency(tiny_model(), np.zeros(8, dtype=np.int64), reps=4, warmup=0, clock=FakeClock(readings))
        assert (a.mean_ms, a.std_ms) == (b.mean_ms, b.std_ms)

    def test_default_reps_is_1000(self):
        signature = inspect.signature(measure_latency)
        assert signature.parameters["reps"].default == 1000
        assert signature.parameters["warmup"].default == 10

    def test_negative_warmup(self):
        with pytest.raises(ValueError, match="^warmup cannot be negative, got -1$"):
            measure_latency(tiny_model(), np.zeros(8, dtype=np.int64), reps=2, warmup=-1)

    def test_too_few_reps(self):
        with pytest.raises(ValueError, match="2 repetitions"):
            measure_latency(tiny_model(), np.zeros(8, dtype=np.int64), reps=1)

    def test_train_mode_rejected(self):
        model = tiny_model().train()
        with pytest.raises(StateError, match="eval"):
            measure_latency(model, np.zeros(8, dtype=np.int64), reps=2)

    def test_a_module_in_train_mode_is_rejected_and_named(self):
        model = tiny_model()
        model.first_conv.train()  # the model itself stays in eval mode
        buffers = [b.copy() for _name, b in model.named_buffers()]
        with pytest.raises(StateError, match=r"^model must be in eval mode for latency measurement, "
                                             r"but model\.first_conv is in train mode$"):
            measure_latency(model, np.zeros(8, dtype=np.int64), reps=2, warmup=1)
        for before, (_name, after) in zip(buffers, model.named_buffers()):
            np.testing.assert_array_equal(after, before)  # no train-mode forward updated the running statistics

    def test_single_instance_only(self):
        with pytest.raises(ValueError, match="one instance"):
            measure_latency(tiny_model(), np.zeros((2, 8), dtype=np.int64), reps=2)

    def test_coarse_resolution_sets_warning(self):
        clock = FakeClock([0.0, 0.001, 0.0, 0.001])
        stats = measure_latency(
            tiny_model(), np.zeros(8, dtype=np.int64), reps=2, warmup=0, clock=clock, resolution_s=0.001
        )
        assert stats.resolution_warning
        fine = measure_latency(
            tiny_model(), np.zeros(8, dtype=np.int64), reps=2, warmup=0,
            clock=FakeClock([0.0, 0.001, 0.0, 0.001]), resolution_s=1e-9,
        )
        assert not fine.resolution_warning

    @pytest.mark.parametrize("probes,stalled", [((8.0, 0.7), True), ((0.7, 8.0), True), ((0.7, 0.7), False)],
                             ids=["stalled-after-warmup", "stalled-after-timing", "unstalled"])
    def test_probe_over_stall_ms_flags_record_and_row(self, monkeypatch, probes, stalled):
        medians = list(probes)
        monkeypatch.setattr(bench, "probe_gemm_ms", lambda: medians.pop(0))
        clock = FakeClock([0.0, 0.001, 0.0, 0.002, 0.0, 0.003])
        stats = measure_latency(tiny_model(), np.zeros(8, dtype=np.int64), reps=3, warmup=0, clock=clock)
        assert medians == []  # probed once after the warmup and once after the timed passes
        assert (stats.mean_ms, stats.std_ms, stats.blas_stall) == (2.0, 1.0, stalled)
        row = format_stats_row("svdcnn", 9, stats)
        assert ("  (BLAS stall: the tap GEMM probe took over 5 ms; rerun)" in row) == stalled

    def test_real_clock_smoke(self):
        stats = measure_latency(tiny_model(), np.zeros(8, dtype=np.int64), reps=3, warmup=1)
        assert stats.mean_ms > 0
        assert stats.std_ms >= 0


class TestRatio:
    def test_reference_rows(self):
        fast = LatencyStats(mean_ms=5.53, std_ms=0.1, reps=10, warmup=0)
        slow = LatencyStats(mean_ms=25.88, std_ms=0.1, reps=10, warmup=0)
        assert latency_ratio(fast, slow) == 0.21
        a = LatencyStats(mean_ms=10.26, std_ms=0.1, reps=10, warmup=0)
        b = LatencyStats(mean_ms=65.80, std_ms=0.1, reps=10, warmup=0)
        assert latency_ratio(a, b) == 0.16

    def test_equal_means_give_one(self):
        s = LatencyStats(mean_ms=7.0, std_ms=0.0, reps=5, warmup=0)
        assert latency_ratio(s, s) == 1.00

    def test_zero_denominator(self):
        a = LatencyStats(mean_ms=1.0, std_ms=0.0, reps=2, warmup=0)
        b = LatencyStats(mean_ms=0.0, std_ms=0.0, reps=2, warmup=0)
        with pytest.raises(ValueError, match="positive"):
            latency_ratio(a, b)


class TestRecords:
    def test_json_roundtrip(self, tmp_path):
        stats = LatencyStats(mean_ms=3.25, std_ms=0.5, reps=100, warmup=10, environment="hostA", blas_stall=True)
        path = tmp_path / "run.json"
        save_stats(stats, path)
        assert load_stats(path) == stats

    def test_stats_validation(self):
        with pytest.raises(ValueError):
            LatencyStats(mean_ms=1.0, std_ms=-0.1, reps=5, warmup=0)
        with pytest.raises(ValueError):
            LatencyStats(mean_ms=1.0, std_ms=0.1, reps=1, warmup=0)

    def test_integer_milliseconds_are_accepted(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"mean_ms": 3, "std_ms": 0, "reps": 10, "warmup": 0}))
        assert load_stats(path) == LatencyStats(mean_ms=3.0, std_ms=0.0, reps=10, warmup=0)

    def test_record_without_the_stall_field_loads_unflagged(self, tmp_path):
        path = tmp_path / "run.json"  # the fields of the committed BENCH_pr8_*.json and BENCH_pr9_*.json records
        path.write_text(json.dumps({"mean_ms": 23.108, "std_ms": 4.099, "reps": 1000, "warmup": 10,
                                    "environment": "2 vCPU x86_64, numpy 2.4.6", "resolution_warning": False}))
        assert not load_stats(path).blas_stall

    @pytest.mark.parametrize("field,value,kind", [
        ("mean_ms", "1.0", "a real number"),
        ("std_ms", True, "a real number"),
        ("reps", "10", "an integer"),
        ("reps", 10.0, "an integer"),
        ("warmup", False, "an integer"),
        ("environment", 3, "a string"),
        ("resolution_warning", 0, "true or false"),
        ("blas_stall", "true", "true or false"),
    ], ids=["float-given-str", "float-given-bool", "int-given-str", "int-given-float", "int-given-bool",
            "str-given-int", "bool-given-int", "bool-given-str"])
    def test_wrong_field_type_names_path_and_field(self, tmp_path, field, value, kind):
        record = {"mean_ms": 1.0, "std_ms": 0.1, "reps": 10, "warmup": 0} | {field: value}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError) as exc:
            load_stats(path)
        assert str(exc.value) == f"{path}: field {field} must be {kind}, got {json.dumps(value)}"

    @pytest.mark.parametrize("field,value,message", [
        ("mean_ms", float("nan"), "field mean_ms must be positive, got NaN"),
        ("mean_ms", 0.0, "field mean_ms must be positive, got 0.0"),
        ("mean_ms", -1.0, "field mean_ms must be positive, got -1.0"),
        ("mean_ms", float("inf"), "field mean_ms must be finite and non-negative, got inf"),
        ("std_ms", float("nan"), "field std_ms must be finite and non-negative, got nan"),
        ("std_ms", float("inf"), "field std_ms must be finite and non-negative, got inf"),
        ("std_ms", -0.5, "field std_ms must be finite and non-negative, got -0.5"),
    ], ids=["mean-nan", "mean-zero", "mean-negative", "mean-inf", "std-nan", "std-inf", "std-negative"])
    def test_out_of_range_value_names_path_and_field(self, tmp_path, field, value, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"mean_ms": 1.0, "std_ms": 0.1, "reps": 10, "warmup": 0} | {field: value}))
        with pytest.raises(ValueError) as exc:
            load_stats(path)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("mean,std", [(float("nan"), 0.1), (float("inf"), 0.1), (-1.0, 0.1), (1.0, float("nan"))])
    def test_stats_reject_non_finite_and_negative_values(self, mean, std):
        with pytest.raises(ValueError, match="must be finite and non-negative"):
            LatencyStats(mean_ms=mean, std_ms=std, reps=5, warmup=0)

    def test_row_format_mentions_reps(self):
        stats = LatencyStats(mean_ms=3.25, std_ms=0.5, reps=100, warmup=10)
        row = format_stats_row("svdcnn", 9, stats)
        assert "3.25" in row and "reps=100" in row and "9" in row
