"""Latency statistics with injected clocks, the written record and the protocol defaults."""

import inspect
import itertools
import json
import os
import time
from dataclasses import FrozenInstanceError, asdict

import numpy as np
import pytest

from svdcnn import bench
from svdcnn.architecture import ArchitectureSpec, Model
from svdcnn.autograd import StateError
from svdcnn.bench import LatencyStats, environment_summary, format_stats_row, measure_latency, save_stats


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
        assert signature.parameters["clock"].default is time.perf_counter

    def test_negative_warmup(self):
        with pytest.raises(ValueError, match="^warmup cannot be negative, got -1$"):
            measure_latency(tiny_model(), np.zeros(8, dtype=np.int64), reps=2, warmup=-1)

    def test_too_few_reps(self):
        with pytest.raises(ValueError, match="2 repetitions"):
            measure_latency(tiny_model(), np.zeros(8, dtype=np.int64), reps=1)

    @pytest.mark.parametrize("counts,message", [
        ({"reps": 1}, "need at least 2 repetitions, got 1"),
        ({"reps": 0}, "need at least 2 repetitions, got 0"),
        ({"reps": -1}, "need at least 2 repetitions, got -1"),
        ({"reps": 2, "warmup": -1}, "warmup cannot be negative, got -1"),
        ({"reps": 2, "warmup": -10}, "warmup cannot be negative, got -10"),
        ({"reps": 2.5}, "reps must be an integer, got 2.5"),
        ({"reps": True}, "reps must be an integer, got True"),
        ({"reps": 2, "warmup": 1.5}, "warmup must be an integer, got 1.5"),
    ], ids=["reps-1", "reps-0", "reps-negative", "warmup-1", "warmup-10", "reps-float", "reps-bool", "warmup-float"])
    def test_bad_counts_are_rejected_before_anything_runs(self, monkeypatch, counts, message):
        # the counts are checked here only: a LatencyStats is not validated when it is built
        monkeypatch.setattr(bench, "probe_gemm_ms", lambda: pytest.fail("probed before the check"))
        monkeypatch.setattr(Model, "forward", lambda self, idx: pytest.fail("forward before the check"))
        with pytest.raises(ValueError, match=f"^{message}$"):
            measure_latency(tiny_model(), np.zeros(8, dtype=np.int64), clock=FakeClock([]), **counts)

    @pytest.mark.parametrize("warmup", [0, 1, 3])
    def test_warmup_passes_are_run_untimed_and_recorded(self, monkeypatch, warmup):
        forwards = []
        forward = Model.forward
        monkeypatch.setattr(Model, "forward", lambda self, idx: forwards.append(idx.shape) or forward(self, idx))
        clock = FakeClock([0.0, 0.001, 0.0, 0.003])  # two timed passes read the clock twice each
        stats = measure_latency(tiny_model(), np.zeros(8, dtype=np.int64), reps=2, warmup=warmup, clock=clock)
        assert clock.readings == []
        assert forwards == [(1, 8)] * (warmup + 2)
        assert (stats.mean_ms, stats.reps, stats.warmup) == (2.0, 2, warmup)

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

    def test_the_first_nested_module_in_train_mode_is_named(self, monkeypatch):
        model = tiny_model()
        model.levels[1][0].layer2.bn.train()
        model.levels[2][0].train()  # later in the walk: not the one named
        monkeypatch.setattr(Model, "forward", lambda self, idx: pytest.fail("forward before the check"))
        with pytest.raises(StateError, match=r"^model must be in eval mode for latency measurement, "
                                             r"but model\.level1\.block0\.layer2\.bn is in train mode$"):
            measure_latency(model, np.zeros(8, dtype=np.int64), reps=2, warmup=1)

    def test_single_instance_only(self):
        with pytest.raises(ValueError, match="one instance"):
            measure_latency(tiny_model(), np.zeros((2, 8), dtype=np.int64), reps=2)

    @pytest.mark.parametrize("probes,stalled", [((8.0, 0.7, 0.7), True), ((0.7, 8.0, 0.7), True),
                                                ((0.7, 0.7, 8.0), True), ((0.7, 0.7, 0.7), False)],
                             ids=["stalled-before-warmup", "stalled-after-warmup", "stalled-after-timing",
                                  "unstalled"])
    def test_probe_over_stall_ms_flags_record_and_row(self, monkeypatch, probes, stalled):
        medians = list(probes)
        monkeypatch.setattr(bench, "probe_gemm_ms", lambda: medians.pop(0))
        clock = FakeClock([0.0, 0.001, 0.0, 0.002, 0.0, 0.003])
        stats = measure_latency(tiny_model(), np.zeros(8, dtype=np.int64), reps=3, warmup=0, clock=clock)
        assert medians == []  # probed before the warmup, after it and after the timed passes
        assert (stats.mean_ms, stats.std_ms, stats.blas_stall) == (2.0, 1.0, stalled)
        row = format_stats_row("svdcnn", 9, stats)
        assert ("  (BLAS stall: the tap GEMM probe took over 5 ms; rerun)" in row) == stalled

    def test_probes_bracket_the_warmup_and_the_timed_passes(self, monkeypatch):
        # a stall that ends inside the warmup is seen only by a probe before the first forward
        events = []
        forward = Model.forward
        monkeypatch.setattr(bench, "probe_gemm_ms", lambda: events.append("probe") or 0.7)
        monkeypatch.setattr(Model, "forward", lambda self, idx: events.append("forward") or forward(self, idx))
        measure_latency(tiny_model(), np.zeros(8, dtype=np.int64), reps=2, warmup=1,
                        clock=FakeClock([0.0, 0.001, 0.0, 0.003]))
        assert events == ["probe", "forward", "probe", "forward", "forward", "probe"]

    def test_real_clock_smoke(self):
        stats = measure_latency(tiny_model(), np.zeros(8, dtype=np.int64), reps=3, warmup=1)
        assert stats.mean_ms > 0
        assert stats.std_ms >= 0


def show_config_without_mode(mode=None):
    raise TypeError("show_config() got an unexpected keyword argument 'mode'")  # as numpy < 1.25 does


class TestEnvironment:
    @pytest.mark.parametrize("show_config", [
        show_config_without_mode,
        lambda mode=None: {"Build Dependencies": {"lapack": {"name": "openblas", "version": "0.3.27"}}},
    ], ids=["no-mode-keyword", "no-blas-entry"])
    def test_blas_falls_back_to_unknown(self, monkeypatch, show_config):
        monkeypatch.setattr(np, "show_config", show_config)
        assert ", BLAS unknown, OPENBLAS_NUM_THREADS=" in environment_summary()

    def test_names_the_blas_numpy_reports(self, monkeypatch):
        build = {"blas": {"name": "scipy-openblas", "version": "0.3.31"}}
        monkeypatch.setattr(np, "show_config", lambda mode=None: {"Build Dependencies": build})
        assert ", BLAS scipy-openblas 0.3.31, OPENBLAS_NUM_THREADS=" in environment_summary()

    @pytest.mark.parametrize("threads", ["1", "2", None], ids=["one", "two", "unset"])
    def test_ends_with_the_openblas_thread_setting(self, monkeypatch, threads):
        if threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        assert environment_summary().endswith(f", OPENBLAS_NUM_THREADS={threads or 'unset'}")

    @pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "no-affinity"])
    def test_counts_the_usable_cores(self, monkeypatch, affinity):
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert environment_summary().startswith("2 vCPU " if affinity else "7 vCPU ")


ENVIRONMENT = "2 vCPU x86_64, numpy 2.4.6"
FLAGS = list(itertools.product(["", ENVIRONMENT], [False, True]))
# each id keeps its "fine" part, from when a record could flag a timer as coarse against its mean, so ids stay stable
FLAG_IDS = [f"{'env' if env else 'no-env'}-fine-{'stall' if stall else 'clean'}" for env, stall in FLAGS]


class TestRecords:
    def test_json_roundtrip(self, tmp_path):
        stats = LatencyStats(mean_ms=3.25, std_ms=0.5, reps=100, warmup=10, environment="hostA", blas_stall=True)
        path = tmp_path / "run.json"
        save_stats(stats, path)
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == asdict(stats)

    def test_row_format_mentions_reps(self):
        stats = LatencyStats(mean_ms=3.25, std_ms=0.5, reps=100, warmup=10)
        row = format_stats_row("svdcnn", 9, stats)
        assert "3.25" in row and "reps=100" in row and "9" in row

    def test_optional_fields_default_to_an_unflagged_record(self):
        stats = LatencyStats(mean_ms=3.25, std_ms=0.5, reps=100, warmup=10)
        assert (stats.environment, stats.blas_stall) == ("", False)
        assert format_stats_row("vdcnn", 29, stats) == "vdcnn       29      3.25ms ±0.50  reps=100"

    def test_records_are_frozen(self):
        stats = LatencyStats(mean_ms=3.25, std_ms=0.5, reps=100, warmup=10)
        with pytest.raises(FrozenInstanceError):
            stats.mean_ms = 1.0

    @pytest.mark.parametrize("environment,stall", FLAGS, ids=FLAG_IDS)
    def test_row_matches_the_reference_bytes(self, environment, stall):
        stats = LatencyStats(23.108, 4.099, 1000, 10, environment, stall)
        expected = "svdcnn       9     23.11ms ±4.10  reps=1000"
        if environment:
            expected += "  [2 vCPU x86_64, numpy 2.4.6]"
        if stall:
            expected += "  (BLAS stall: the tap GEMM probe took over 5 ms; rerun)"
        assert format_stats_row("svdcnn", 9, stats) == expected

    @pytest.mark.parametrize("environment,stall", FLAGS, ids=FLAG_IDS)
    def test_written_record_matches_the_reference_bytes(self, tmp_path, environment, stall):
        path = tmp_path / "run.json"
        save_stats(LatencyStats(23.108, 4.099, 1000, 10, environment, stall), path)
        assert path.read_bytes() == (
            "{\n"
            '  "mean_ms": 23.108,\n'
            '  "std_ms": 4.099,\n'
            '  "reps": 1000,\n'
            '  "warmup": 10,\n'
            f'  "environment": "{environment}",\n'
            f'  "blas_stall": {"true" if stall else "false"}\n'
            "}\n"
        ).encode()
