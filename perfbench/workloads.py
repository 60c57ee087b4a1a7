"""The benchmark's workloads and the closed loop that drives them.

Imported by ``run.py`` after it has fixed the BLAS thread count and put the
package source on the path. Every call into the package goes through a
module attribute (``data.quantize``, ``training.load_checkpoint``, ...), so
the traced run's wrappers see it.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from svdcnn import architecture, autograd, data, functional, training

import fixtures
import reference
import stats
import tracing

N_CLASSES = 4
SETUP_REPEATS = 5
POOL_TEXTS = 512  # raw texts a classify workload cycles through
CALIBRATION_TEXTS = 8
TRAIN_CORPUS = 512  # CSV rows: eight batches of 64 per epoch
LOSS_TAIL_STEPS = 8  # train_loss_end averages this many final steps
# Logit error is max |program - reference| / max(1, max |reference|).
LOGIT_TOL = 1e-3
# A predicted class that differs from the reference's is a failure only when
# the reference prefers its own class by more than this, on the same scale.
TIE_MARGIN = 1e-4
# A k-max boundary gap (reference.forward) at or below this is within float32
# rounding of the trunk, so either near-equal value may be kept. A text with
# such a gap and a logit error above LOGIT_TOL is counted as tie-excused
# instead of being checked; a text without one is always checked.
KMAX_TIE = 1e-5


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    depth: int
    seq_len: int
    batch: int  # texts per classify request, samples per train step
    train: bool
    checks: int  # requests sampled per run for the reference check

    @property
    def spec(self):
        return architecture.ArchitectureSpec(self.family, depth=self.depth, seq_len=self.seq_len, n_classes=N_CLASSES)


WORKLOADS = {
    w.name: w
    for w in (
        # Why each workload was chosen is recorded in BENCHMARK.json.
        Workload("serve-svdcnn29", "svdcnn", 29, 1024, 1, False, 16),
        Workload("batch-vdcnn9", "vdcnn", 9, 1024, 16, False, 3),
        Workload("train-svdcnn9", "svdcnn", 9, 128, 64, True, 3),
    )
}


class NonFiniteLoss(RuntimeError):
    pass


def _arrays(model) -> dict:
    out = {name: t.data for name, t, _c in model.named_params()}
    out.update(model.named_buffers())
    return out


class _Driver:
    """What the closed loop needs from a workload."""

    def __init__(self, wl: Workload):
        self.wl, self.spec = wl, wl.spec

    def _reference(self, arrays, indices, train=False):
        return reference.forward(arrays, self.wl.family, self.wl.depth, self.spec.pooled_len, indices, train)

    @staticmethod
    def _compare(logits, ref, gap, pred=None):
        """Per-row logit error, the rows excused by a k-max near-tie, and
        whether any other row predicts a class the reference clearly rejects."""
        scale = np.maximum(1.0, np.abs(ref).max(axis=1))
        err = np.abs(logits - ref).max(axis=1) / scale
        excused = (gap <= KMAX_TIE) & (err > LOGIT_TOL)
        wrong = False
        if pred is not None:
            margin = ref.max(axis=1) - ref[np.arange(len(pred)), pred]
            wrong = bool(((margin > TIE_MARGIN * scale) & ~excused).any())
        return float(err[~excused].max(initial=0.0)), int(excused.sum()), wrong

    def model(self, state):
        return state

    def before(self, state):
        """What a sampled request's check needs from before the request ran."""
        return None


class Classify(_Driver):
    """Raw text -> quantize -> eval forward -> argmax, ``batch`` texts per request."""

    def __init__(self, wl: Workload, seed: int, workdir: Path):
        super().__init__(wl)
        rng = np.random.default_rng(seed)
        model = architecture.Model(self.spec, seed=seed)
        fixtures.randomize(model, rng)
        calibration = self._ref_indices(fixtures.texts(rng, CALIBRATION_TEXTS, wl.seq_len))
        fixtures.standardize_logits(model, self._reference(_arrays(model), calibration)[0])
        self.checkpoint = workdir / "model.ckpt"
        training.save_checkpoint(model, self.checkpoint)
        self.texts = fixtures.texts(rng, POOL_TEXTS, wl.seq_len)
        self.vocab = data.Vocabulary()

    def _ref_indices(self, texts):
        return np.stack([reference.quantize(t, self.wl.seq_len) for t in texts])

    def _request_texts(self, i):
        b = self.wl.batch
        return [self.texts[(i * b + j) % len(self.texts)] for j in range(b)]

    def setup(self):
        model = training.load_checkpoint(self.checkpoint)
        self.request(model, 0)
        return model

    def request(self, model, i):
        idx = np.stack([data.quantize(t, self.vocab, self.wl.seq_len) for t in self._request_texts(i)])
        logits = model.forward(idx).data
        return self.wl.batch, (logits.argmax(axis=1), logits)

    def check(self, model, kept):
        """Returns (worst logit error, tie-excused texts, ids of wrong requests)."""
        arrays, worst, excused, wrong = _arrays(model), 0.0, 0, set()
        for i, _before, (pred, logits) in kept:
            ref, gap = self._reference(arrays, self._ref_indices(self._request_texts(i)))
            err, n_excused, is_wrong = self._compare(logits, ref, gap, pred)
            worst, excused = max(worst, err), excused + n_excused
            if is_wrong:
                wrong.add(i)
        return worst, excused, wrong


@dataclass
class TrainState:
    dataset: object
    model: object
    opt: object
    epoch: int = 0
    batches: list = field(default_factory=list)
    losses: list = field(default_factory=list)


class Train(_Driver):
    """make_batches (once per epoch) -> taped train forward -> backward -> SGD step."""

    def __init__(self, wl: Workload, seed: int, workdir: Path):
        super().__init__(wl)
        self.seed = seed
        self.csv = workdir / "train.csv"
        rows = fixtures.write_csv(self.csv, np.random.default_rng(seed), TRAIN_CORPUS, N_CLASSES, wl.seq_len)
        self.label_of_row = {reference.quantize(t, wl.seq_len).tobytes(): label for t, label in rows}
        self.cfg = training.TrainConfig(batch_size=wl.batch, seed=seed)

    def setup(self):
        dataset = data.load_csv(self.csv, N_CLASSES, self.wl.seq_len)
        model = architecture.Model(self.spec, seed=self.seed)
        opt = training.SGD(model.parameters(), self.cfg.lr, self.cfg.momentum, self.cfg.weight_decay)
        state = TrainState(dataset, model, opt)
        self.request(state, 0)
        return state

    def model(self, state):
        return state.model

    def before(self, state):
        return {name: a.copy() for name, a in _arrays(state.model).items()}

    def request(self, state, i):
        if not state.batches:
            state.epoch += 1
            state.batches = data.make_batches(state.dataset, self.cfg.batch_size, self.cfg.seed + state.epoch)[::-1]
        idx, labels = state.batches.pop()
        state.opt.zero_grad()
        with autograd.Tape() as tape:
            logits = state.model.forward(idx)
            loss = functional.cross_entropy(logits, labels)
        value = loss.data.item()
        if not math.isfinite(value):
            raise NonFiniteLoss(f"step {i}: loss {value}")
        autograd.backward(loss, tape)
        state.opt.step()
        state.losses.append(value)
        return len(labels), (idx, labels, logits.data, value)

    def check(self, model, kept):
        worst, excused, wrong = 0.0, 0, set()
        for i, arrays, (idx, labels, logits, loss) in kept:
            if any(self.label_of_row.get(row.tobytes()) != label for row, label in zip(idx, labels)):
                wrong.add(i)  # the batch does not hold the CSV's rows and labels
                continue
            ref, gap = self._reference(arrays, idx, train=True)
            err, n_excused, _ = self._compare(logits, ref, gap)
            loss_err = abs(loss - reference.cross_entropy(ref, labels)) / max(1.0, abs(loss))
            worst, excused = max(worst, err, loss_err), excused + n_excused
        return worst, excused, wrong


@dataclass
class Phase:
    """Outcome of one closed-loop phase; request ids run from ``first``."""

    first: int
    latencies: list
    items: int
    failed: set
    wall_s: float

    @property
    def ids(self):
        return range(self.first, self.first + len(self.latencies))


def closed_loop(work, state, seconds, first, reservoir, tracer=None) -> Phase:
    """One client sends its next request when the previous one has returned."""
    clock = time.perf_counter
    latencies, items, failed, i = [], 0, set(), first
    start = clock()
    while clock() - start < seconds:
        slot = reservoir.slot(i)
        before = work.before(state) if slot is not None else None
        if tracer is not None:
            tracer.request = i
            tracer.begin("request")
        t0 = clock()
        try:
            n, out = work.request(state, i)
        except Exception:  # a failed request is counted, and the run goes on
            if not failed:
                traceback.print_exc(file=sys.stderr)
            failed.add(i)
            out = None
        latencies.append(clock() - t0)
        if tracer is not None:
            tracer.end()
            tracer.request = None
        if out is not None:
            items += n
            if slot is not None:
                reservoir.items[slot] = (i, before, out)
        i += 1
    return Phase(first, latencies, items, failed, clock() - start)


def _commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path, wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "workload": wl.name,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "clients": 1,
        "cores": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": _commit(root),
    }


def _metric(value, unit, **extra):
    return {"value": value, "unit": unit, **extra}


def _plain(driver, seconds, reservoir):
    """Set up SETUP_REPEATS times, then run the closed loop untraced."""
    setups, state = [], None
    for _ in range(SETUP_REPEATS):
        state = None  # release the previous set-up before timing the next
        t0 = time.perf_counter()
        state = driver.setup()
        setups.append(time.perf_counter() - t0)
    phase = closed_loop(driver, state, seconds, 0, reservoir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return state, phase, float(np.median(setups)), peak_rss_mb


def _traced(driver, seconds, reservoir, tracer):
    """A third of the time untraced, then one traced set-up and the rest traced."""
    state = driver.setup()
    untraced = closed_loop(driver, state, seconds / 3, 0, reservoir)
    tracer.install()
    try:
        tracer.request = tracing.SETUP
        state = driver.setup()
        tracer.request = None
        tracer.instrument(driver.model(state))
        traced = closed_loop(driver, state, 2 * seconds / 3, len(untraced.latencies), reservoir, tracer)
    finally:
        tracer.uninstall()
    return state, untraced, traced


def run(wl: Workload, seed: int, seconds: float, trace: bool, root: Path, workdir: Path, outdir: Path):
    """Run one workload.

    Returns the full record and the result line's metrics: the end-to-end
    metrics of BENCHMARK.json untraced, the per-layer metrics traced.
    """
    driver = (Train if wl.train else Classify)(wl, seed, workdir)
    reservoir = stats.Reservoir(wl.checks, np.random.default_rng([seed, 1]))
    record = {"environment": environment(root, wl, seed, seconds, trace)}
    problems = []
    if trace:
        tracer = tracing.Tracer()
        state, untraced, main = _traced(driver, seconds, reservoir, tracer)
        phases = [untraced, main]
        done = [i for i in main.ids if i not in main.failed]
        model = driver.model(state)
        problems += tracer.cross_check(done, architecture.count_params(model).conv, architecture.head_weight_params(driver.spec))
        trace_path = outdir / f"trace-{wl.name}-seed{seed}.json"
        tracer.write(trace_path)
        record["trace_file"] = str(trace_path.relative_to(root))
    else:
        state, main, setup_s, peak_rss_mb = _plain(driver, seconds, reservoir)
        phases = [main]

    kept = reservoir.kept()
    worst, excused, wrong = driver.check(driver.model(state), kept)
    failed = len(set().union(*(p.failed for p in phases)) | wrong)
    attempted = sum(len(p.latencies) for p in phases)
    if worst > LOGIT_TOL:
        problems.append(f"logit error {worst:.3g} exceeds {LOGIT_TOL:g}")
    if not kept:
        problems.append("no request was checked against the reference")

    lat_ms = np.asarray(main.latencies) * 1e3
    tail_ms, tail_pct, n = stats.tail(lat_ms)
    rate = main.items / main.wall_s
    e2e = {
        "samples_per_s" if wl.train else "texts_per_s": _metric(rate, "1/s"),
        "latency_p10_ms": _metric(float(np.percentile(lat_ms, 10)), "ms", samples=n),
        "latency_p50_ms": _metric(float(np.median(lat_ms)), "ms", samples=n),
        "latency_tail_ms": _metric(tail_ms, "ms", percentile=tail_pct, samples=n),
        "failed_share": _metric(stats.failed_share(attempted, failed), "1"),
        "logit_err_max": _metric(worst, "1", checked_requests=len(kept), kmax_tie_excused_texts=excused),
    }
    if wl.train:
        e2e["train_loss_end"] = _metric(float(np.mean(state.losses[-LOSS_TAIL_STEPS:])), "nats")
    if trace:
        per_layer = tracer.metrics(done)
        overhead = float(np.percentile(main.latencies, 10)) / float(np.percentile(untraced.latencies, 10)) - 1.0
        per_layer["trace.overhead_pct"] = (100.0 * overhead, "%")
        result = {name: _metric(v, unit) for name, (v, unit) in per_layer.items()}
        record["end_to_end_while_tracing"] = e2e
        record["per_layer"] = result
    else:
        e2e["setup_s"] = _metric(setup_s, "s", repeats=SETUP_REPEATS)
        e2e["peak_rss_mb"] = _metric(peak_rss_mb, "MB")
        record["end_to_end"] = e2e
        # BENCHMARK.json's end-to-end metrics: texts or samples per second
        # under one name, so every workload reports the same set.
        result = {
            "items_per_s": _metric(rate, "1/s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    correct = not problems and not failed
    record.update(problems=problems, correct=correct, attempted=attempted, failed=failed)
    return record, result
